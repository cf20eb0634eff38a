"""Seeded input generators for the benchmark workloads.

Everything chipkit receives is made here from a ``random.Random(seed)``: the
SystemVerilog corpus and its two revisions, the memory map, a canonical
``regs.csv``, the bring-up script and the session's line stream. The same
seed gives byte-identical inputs.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field

from refmodel import Reg, Region, RefSoc, read_line, write_line

CSR_BASE = 0x40000000
CSR_SIZE = 0x10000  # 16k words: room for every register of both corpus revisions
SRAM_BASE = 0x20000000
SRAM_SIZE = 0x100000
N_SRAM = 8
PERIPH_BASE = 0x50000000
PERIPH_SIZE = 0x1000
PERIPH_STRIDE = 0x2000  # leaves an unmapped hole after every peripheral
N_PERIPH = 57
UNMAPPED_ADDR = 0x10000000

BLOCK = "bench"
DIAG_PINS = 2
DB_COLUMNS = ("name", "width", "access", "reset", "offset", "origin_module",
              "description", "state")
TARGETS = "rtl,inst,md,c,py,test,memmap,diag,pads"

_DESCRIPTIONS = ("", "gain stage", "threshold, upper", 'the "fast" path',
                 "status | sticky", "enable")


def soc_regions() -> list[Region]:
    """66 regions: one csr block, 8 SRAMs of 1 MiB and 57 peripherals."""
    regions = [Region("csr0", "csr", CSR_BASE, CSR_SIZE)]
    regions += [Region(f"sram{i}", "sram", SRAM_BASE + i * SRAM_SIZE, SRAM_SIZE)
                for i in range(N_SRAM)]
    regions += [Region(f"per{i:02d}", "peripheral", PERIPH_BASE + i * PERIPH_STRIDE, PERIPH_SIZE)
                for i in range(N_PERIPH)]
    return regions


def map_text(regions: list[Region]) -> str:
    lines = ["# benchmark SoC"]
    lines += [f"region {r.name} {r.kind} 0x{r.base:08x} 0x{r.size:x}" for r in regions]
    return "\n".join(lines) + "\n"


def regs_csv(regs: list[Reg], origin: dict[str, str] | None = None,
             descriptions: dict[str, str] | None = None) -> str:
    """Canonical database text: rows by offset, lowercase hex, LF endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DB_COLUMNS)
    for r in sorted(regs, key=lambda r: r.offset):
        writer.writerow([r.name, r.width, r.access, f"0x{r.reset:x}", f"0x{r.offset:x}",
                         (origin or {}).get(r.name, ""), (descriptions or {}).get(r.name, ""),
                         r.state])
    return buf.getvalue()


@dataclass
class Database:
    regs: list[Reg]
    text: str


def soc_database(rng: random.Random, n_regs: int = 4000) -> Database:
    """4k registers at random word offsets, so the csr block has holes; 2%
    retired rows, which read like holes."""
    offsets = sorted(rng.sample(range(1, CSR_SIZE // 4), n_regs))
    regs, origin, desc = [], {}, {}
    for i, word_index in enumerate(offsets):
        width = rng.randint(1, 32)
        name = f"r{i:04d}_{rng.choice(('ctl', 'sts', 'cnt', 'irq'))}"
        state = "retired" if rng.random() < 0.02 else "active"
        regs.append(Reg(name, width, rng.choice(("RW", "RO")),
                        rng.getrandbits(width), word_index * 4, state))
        origin[name] = f"blk_{i // 40:03d}"
        desc[name] = rng.choice(_DESCRIPTIONS)
    return Database(regs, regs_csv(regs, origin, desc))


# ---------------------------------------------------------------------------
# regen: the SystemVerilog corpus and its two revisions

@dataclass
class Port:
    name: str
    width: int

    @property
    def access(self) -> str:
        return "RW" if self.name.startswith("cfg_") else "RO"


@dataclass
class Module:
    name: str
    ports_a: list[Port]
    ports_b: list[Port] | None = None  # None: the module is the same in both revisions
    stages: int = 0


@dataclass
class Corpus:
    modules: list[Module] = field(default_factory=list)

    def ports(self, rev: str) -> list[Port]:
        """Candidate ports in scan order: files sorted by path, declaration order."""
        out = []
        for m in self.modules:
            out.extend(m.ports_b if rev == "B" and m.ports_b is not None else m.ports_a)
        return out

    def files(self, rev: str, changed_only: bool = False) -> dict[str, str]:
        return {f"rtl/{m.name}.sv": module_text(m, rev) for m in self.modules
                if not changed_only or m.ports_b is not None}

    def expected_rows(self, rev: str, seen_b: bool = True) -> set[tuple]:
        """(name, width, access, offset, state) for every row of the database
        after ``update`` on revision rev; seen_b tells whether revision B was
        ever scanned before.

        The first scan of A allocates offsets 0x4 upward in scan order, with
        the generated diagnostic select register last; ports that exist only
        in revision B take the next offsets in B's scan order. Names absent
        from rev are retired with the width they last had.
        """
        order = [p.name for p in self.ports("A")] + ["cfg_diag_sel"]
        known = set(order)
        order += [p.name for p in self.ports("B") if p.name not in known]
        offset = {name: 4 * (i + 1) for i, name in enumerate(order)}
        last = {p.name: p for p in self.ports("B")} if seen_b else {}
        last.update({p.name: p for p in self.ports("A")})
        present = {p.name: p for p in self.ports(rev)}
        sel_width = max(1, (len(self.modules) - 1).bit_length() * DIAG_PINS)
        rows = {("cfg_diag_sel", sel_width, "RW", offset["cfg_diag_sel"], "active")}
        for name, port in {**last, **present}.items():
            state = "active" if name in present else "retired"
            rows.add((name, port.width, port.access, offset[name], state))
        return rows


def corpus(rng: random.Random, n_modules: int = 100, n_ports: int = 40,
           changed_frac: float = 0.1) -> Corpus:
    """Modules with n_ports cfg_/sts_ ports of widths 1-32 each; in
    changed_frac of them revision B removes 2 ports, adds 2 and widens 1."""
    out = Corpus()
    for k in range(n_modules):
        ports = [Port(f"{rng.choice(('cfg', 'sts'))}_b{k:03d}_{j:02d}", rng.randint(1, 32))
                 for j in range(n_ports)]
        out.modules.append(Module(f"blk_{k:03d}", ports, stages=rng.randint(10, 14)))
    for m in rng.sample(out.modules, max(1, round(n_modules * changed_frac))):
        k = m.name[-3:]
        narrow = [i for i, p in enumerate(m.ports_a) if p.width < 32]
        widen = rng.choice(narrow)
        drop = set(rng.sample([i for i in range(n_ports) if i != widen], 2))
        ports_b = []
        for i, p in enumerate(m.ports_a):
            if i == widen:
                ports_b.append(Port(p.name, rng.randint(p.width + 1, 32)))
            elif i not in drop:
                ports_b.append(p)
        for j in range(2):
            ports_b.insert(rng.randrange(len(ports_b) + 1),
                           Port(f"{rng.choice(('cfg', 'sts'))}_b{k}_x{j}", rng.randint(1, 32)))
        m.ports_b = ports_b
    return out


def _decl(direction: str, width: int, name: str) -> str:
    kind = "logic" if width == 1 else f"logic [{width - 1}:0]"
    return f"  {direction:<6} {kind:<13} {name}"


def module_text(m: Module, rev: str) -> str:
    """Lint-clean SystemVerilog: ANSI ports, logic, always_comb and the FF
    macro, with comments and a string literal that name the forbidden
    constructs, so the scanner's masking is exercised."""
    ports = m.ports_b if rev == "B" and m.ports_b is not None else m.ports_a
    tag = m.name[-3:]
    decls = [_decl("input", 1, "clock"), _decl("input", 1, "reset_n"),
             _decl("input", 32, "data_in"), _decl("input", 1, "valid_in"),
             _decl("output", 32, "data_out"), _decl("output", 1, "ready_out")]
    decls += [_decl("input" if p.access == "RW" else "output", p.width, p.name) for p in ports]
    decls.append(_decl("output", 1, f"diag_b{tag}_tap"))
    lines = [
        f"// {m.name}: synthetic datapath block, revision {rev}",
        "// Style notes: no wire or reg declarations, no always @(...) blocks and",
        "// no raw always_ff; registers go through the FF() macro.",
        "/* The ports below follow the naming convention: cfg_ inputs become",
        "   read-write registers, sts_ outputs read-only ones, diag_ outputs",
        "   diagnostic taps. */",
        '`include "RTL.svh"',
        "",
        f"module {m.name} (",
        ",\n".join(decls),
        ");",
        "",
        "logic [31:0] stage_0;",
        "always_comb stage_0 = valid_in ? data_in : 32'd0;",
    ]
    for s in range(1, m.stages + 1):
        lines += [
            "",
            f"// stage {s}: rotate and mix; a reg here would trip W002",
            f"logic [31:0] stage_{s};",
            f"logic [31:0] stage_{s}_next;",
            f"always_comb stage_{s}_next = {{stage_{s - 1}[{s % 31}:0], "
            f"stage_{s - 1}[31:{s % 31 + 1}]}} ^ 32'h{(s * 0x9E3779B1) & 0xFFFFFFFF:08x};",
            f"`FF(stage_{s}_next, stage_{s}, clock, valid_in, reset_n, '0);",
        ]
    last = f"stage_{m.stages}"
    lines += [
        "",
        f"always_comb data_out = {last};",
        "always_comb ready_out = reset_n;",
        f"always_comb diag_b{tag}_tap = ^{last};",
        "",
        "// checker instance: implicit connections, so W005 does not apply",
        f"parity_chk u_parity_{tag} (.*);",
        "",
        "initial begin",
        f'  $display("{m.name}: wire reg always @ checks are style only");',
        "end",
        "",
        f"endmodule  // {m.name}",
        "",
    ]
    return "\n".join(lines)


def pads_csv(n: int = 16) -> str:
    rows = ["name,side,order,cell,signal"]
    rows += [f"pad{i:02d},{'NESW'[i % 4]},{i // 4},PDIO,sig{i:02d}" for i in range(n)]
    return "\n".join(rows) + "\n"


def project_config() -> str:
    return "\n".join([
        "[project]", "rtl = rtl", "db = regs.csv", "out = gen", "map = soc.map",
        "pads = pads.csv", "",
        "[emit]", f"block_name = {BLOCK}", f"base_address = 0x{CSR_BASE:08x}",
        f"region_size_bytes = 0x{CSR_SIZE:x}", f"targets = {TARGETS}",
        f"diag_pins = {DIAG_PINS}", ""])


# ---------------------------------------------------------------------------
# bringup and session traffic

def _sram_addr(rng: random.Random, regions: list[Region]) -> int:
    """A random word of a random region; one in 20 is its first or last word."""
    r = regions[rng.randrange(len(regions))]
    if rng.random() < 0.05:
        return r.base + rng.choice((0, r.size - 4))
    return r.base + 4 * rng.randrange(r.size // 4)


def bringup_script(rng: random.Random, regions: list[Region], db: Database,
                   n_steps: int) -> tuple[str, int]:
    """A strict-X self-check: ~60% SRAM writes and read-backs, ~25% CSR
    traffic, ~10% peripheral traffic, ~5% error paths. Expected responses
    come from the reference model. Returns (script text, step count)."""
    ref = RefSoc(regions, db.regs, db.text)
    srams = [r for r in regions if r.kind == "sram"]
    periphs = [r for r in regions if r.kind == "peripheral"]
    csr = next(r for r in regions if r.kind == "csr")
    active = [r for r in db.regs if r.state == "active"]
    rw = [r for r in active if r.access == "RW"]
    ro = [r for r in active if r.access == "RO"]
    sram_written: list[int] = []
    periph_written: list[int] = []
    out = []
    for i in range(n_steps):
        if i % 64 == 0:
            out.append(f"# block {i // 64}")
        x = rng.random()
        if x < 0.35:
            addr = _sram_addr(rng, srams)
            line = write_line(addr, rng.getrandbits(32))
            sram_written.append(addr)
        elif x < 0.60:
            line = read_line(rng.choice(sram_written) if sram_written else csr.base)
        elif x < 0.70:
            line = write_line(csr.base + rng.choice(rw).offset, rng.getrandbits(32))
        elif x < 0.75:
            line = write_line(csr.base + rng.choice(ro).offset, rng.getrandbits(32))
        elif x < 0.82:
            line = read_line(csr.base + rng.choice(active).offset)
        elif x < 0.835:
            line = read_line(csr.base)
        elif x < 0.85:
            line = read_line(csr.base + 4 * rng.randrange(1, csr.size // 4))
        elif x < 0.90:
            addr = _sram_addr(rng, periphs)
            line = write_line(addr, rng.getrandbits(32))
            periph_written.append(addr)
        elif x < 0.95:
            line = read_line(rng.choice(periph_written) if periph_written else csr.base)
        else:
            y = rng.random()
            if y < 0.33:  # unmapped: far from every region, or next to one
                per = rng.choice(periphs)
                addr = rng.choice((UNMAPPED_ADDR + 4 * rng.randrange(1 << 20),
                                   per.base - 4, per.base + PERIPH_SIZE,
                                   per.base + PERIPH_SIZE + 4 * rng.randrange(PERIPH_SIZE // 4),
                                   SRAM_BASE + N_SRAM * SRAM_SIZE, CSR_BASE + CSR_SIZE))
                line = write_line(addr, rng.getrandbits(32)) if y < 0.15 else read_line(addr)
            elif y < 0.66:  # misaligned
                addr = _sram_addr(rng, srams + periphs) + rng.randint(1, 3)
                line = write_line(addr, rng.getrandbits(32)) if y < 0.48 else read_line(addr)
            else:  # most likely never written
                line = read_line(_sram_addr(rng, srams))
        out.append(f"> {line}")
        out.append(f"< {ref.respond(line)}")
    return "\n".join(out) + "\n", n_steps


def session_lines(rng: random.Random, regions: list[Region], db: Database):
    """Endless read-heavy traffic: ~70% reads, mostly of never-written SRAM
    words (the random power-up fill) with re-reads of a sample of them and
    CSR status polls; ~30% writes."""
    srams = [r for r in regions if r.kind == "sram"]
    csr = next(r for r in regions if r.kind == "csr")
    active = [r for r in db.regs if r.state == "active"]
    ro = [r for r in active if r.access == "RO"]
    rw = [r for r in active if r.access == "RW"]
    filled: list[int] = []
    written: list[int] = []
    while True:
        x = rng.random()
        if x < 0.45 or not filled:
            addr = _sram_addr(rng, srams)
            filled.append(addr)
            yield read_line(addr)
        elif x < 0.53:
            yield read_line(rng.choice(filled))
        elif x < 0.60:
            yield read_line(rng.choice(written) if written else csr.base)
        elif x < 0.68:
            yield read_line(csr.base + rng.choice(ro).offset)
        elif x < 0.70:
            yield read_line(csr.base)
        elif x < 0.95:
            addr = _sram_addr(rng, srams)
            written.append(addr)
            yield write_line(addr, rng.getrandbits(32))
        else:
            yield write_line(csr.base + rng.choice(rw).offset, rng.getrandbits(32))


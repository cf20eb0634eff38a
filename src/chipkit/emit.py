"""Deterministic renderers for every generated artifact.

All emitters are pure functions of the register database (plus auxiliary
inputs) and produce byte-identical output for identical input, so generated
files can be golden-tested and diffed in version control. Every artifact
carries the database content hash in its banner, tying it to the database
revision it was rendered from; the caller takes that hash once and passes it
to each emitter.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from typing import NamedTuple

from . import DataError, InputError
from . import regdb as rdb
from .memmap import MemoryMap
from .regdb import ACCESS_RO, ACCESS_RW, ACTIVE, ALL_TARGETS, ID_REG_NAME, ID_REG_OFFSET, RETIRED
from .regdb import EmitConfig, RegDb, RegEntry
from .script import RESP_OK, format_word, save_script
from .sv_scan import DiagCandidate

_SIDES = ("N", "E", "S", "W")


class Pad(NamedTuple):
    name: str
    side: str
    order_index: int
    cell_type: str
    signal: str


class PadDb(NamedTuple):
    pads: tuple[Pad, ...] = ()


def load_pad_db(csv_text: str) -> PadDb:
    rows = list(rdb.csv_rows(csv_text, "pad row"))
    if not rows:
        raise InputError("empty pad file (missing header row)")
    header = [c.strip() for c in rows[0]]
    required = ("name", "side", "order", "cell", "signal")
    for col in required:
        if col not in header:
            raise InputError(f"pad file missing column {col!r}")
    idx = {c: header.index(c) for c in required}
    pads = []
    slots = set()
    for rownum, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) < len(header):
            raise InputError(f"pad row {rownum}: expected {len(header)} fields, found {len(row)}")
        side = row[idx["side"]].strip().upper()
        if side not in _SIDES:
            raise InputError(f"pad row {rownum}: side must be one of N/E/S/W")
        try:
            order = int(row[idx["order"]].strip(), 0)
        except ValueError:
            raise InputError(f"pad row {rownum}: bad order index") from None
        if (side, order) in slots:
            raise DataError(f"pad row {rownum}: duplicate slot {side}{order}")
        slots.add((side, order))
        pads.append(Pad(row[idx["name"]].strip(), side, order,
                        row[idx["cell"]].strip(), row[idx["signal"]].strip()))
    return PadDb(tuple(pads))


# ---------------------------------------------------------------------------
# shared helpers

_NOT_ALNUM_RE = re.compile(r"[^0-9A-Za-z]")


def _macro_name(text: str) -> str:
    return _NOT_ALNUM_RE.sub("_", text).upper()


def _bits(width: int) -> str:
    return "1 bit" if width == 1 else f"{width} bits"


def _sorted_entries(db: RegDb) -> list[RegEntry]:
    return sorted(db.entries, key=lambda e: e.offset_bytes)


def _check_region(db: RegDb, cfg: EmitConfig) -> None:
    need = 4 * (len(db.entries) + 1)
    if cfg.csr_region_size_bytes < need:
        raise DataError(
            f"region size 0x{cfg.csr_region_size_bytes:x} too small for "
            f"{len(db.entries)} entries plus the ID register (need 0x{need:x})")
    for e in db.entries:
        if e.offset_bytes is not None and e.offset_bytes >= cfg.csr_region_size_bytes:
            raise DataError(
                f"entry {e.name} at offset 0x{e.offset_bytes:x} falls outside the region")


def _free_offset(db: RegDb, cfg: EmitConfig) -> int | None:
    """Lowest in-region word offset with no register behind it, if any."""
    used = {ID_REG_OFFSET} | {e.offset_bytes for e in db.entries}
    for off in range(rdb.FIRST_OFFSET, cfg.csr_region_size_bytes, rdb.WORD_BYTES):
        if off not in used:
            return off
    return None


def _sv_banner(title: str, hash32: int) -> list[str]:
    rule = "// " + "-" * 66
    return [
        rule,
        f"// {title}",
        f"// generated file, do not edit; database hash {format_word(hash32)}",
        rule,
    ]


# ---------------------------------------------------------------------------
# RTL

def emit_csr_rtl(db: RegDb, cfg: EmitConfig, hash32: int) -> str:
    """Synthesizable register block: write decode, one flop bank per RW entry,
    read mux over all offsets with the ID register at 0x0."""
    _check_region(db, cfg)
    entries = _sorted_entries(db)
    active = [e for e in entries if e.state == ACTIVE]
    retired = [e for e in entries if e.state == RETIRED]
    addr_w = cfg.csr_region_size_bytes.bit_length() - 1
    addr_digits = max(1, (addr_w + 3) // 4)

    def off_lit(offset: int) -> str:
        return f"{addr_w}'h{offset:0{addr_digits}x}"

    def pad_type(width: int) -> str:
        return f"logic [{width - 1}:0]" if width > 1 else "logic"

    widest = max([e.width_bits for e in active], default=1)
    type_col = len(pad_type(max(widest, 32)))

    def port(direction: str, width: int, name: str, last: bool = False) -> str:
        return f"  {direction:<6} {pad_type(width):<{type_col}} {name}{'' if last else ','}"

    lines = _sv_banner(f"{cfg.block_name}_csr: memory-mapped control and status registers", hash32)
    lines += ["", '`include "RTL.svh"', "", f"module {cfg.block_name}_csr ("]
    lines += [port("input", 1, "clock"), port("input", 1, "reset_n")]
    lines += ["", "  // bus slave interface"]
    lines += [port("input", 1, "sel"), port("input", 1, "wr_en"),
              port("input", addr_w, "addr"), port("input", 32, "wdata"),
              port("output", 32, "rdata")]
    rw = [e for e in active if e.access == ACCESS_RW]
    ro = [e for e in active if e.access == ACCESS_RO]
    lines += [port("output", 1, "ready", last=not (rw or ro))]
    if rw:
        lines += ["", "  // control register outputs"]
        for i, e in enumerate(rw):
            lines.append(port("output", e.width_bits, e.name, last=(i == len(rw) - 1 and not ro)))
    if ro:
        lines += ["", "  // status inputs"]
        for i, e in enumerate(ro):
            lines.append(port("input", e.width_bits, e.name, last=(i == len(ro) - 1)))
    lines += [");", ""]

    lines += ["logic wr_stb;", "always_comb wr_stb = sel & wr_en;"]

    rule = "// " + "-" * 66
    for e in rw:
        abs_addr = cfg.base_address + e.offset_bytes
        slice_ = "wdata" if e.width_bits == 32 else (
            "wdata[0]" if e.width_bits == 1 else f"wdata[{e.width_bits - 1}:0]")
        reset_lit = f"{e.width_bits}'h{e.reset_value:x}"
        lines += [
            "",
            rule,
            f"// {e.name} @ {format_word(abs_addr)} (RW, {_bits(e.width_bits)}, reset 0x{e.reset_value:x})",
            f"logic {e.name}_wr_en;",
            f"{pad_type(e.width_bits)} {e.name}_next;",
            f"always_comb {e.name}_wr_en = wr_stb & (addr == {off_lit(e.offset_bytes)});",
            f"always_comb {e.name}_next = {slice_};",
            f"`FF({e.name}_next, {e.name}, clock, {e.name}_wr_en, reset_n, {reset_lit});",
        ]

    for e in ro:
        abs_addr = cfg.base_address + e.offset_bytes
        lines += [
            "",
            rule,
            f"// {e.name} @ {format_word(abs_addr)} (RO, {_bits(e.width_bits)}, reset 0x{e.reset_value:x})",
            "// driven by the attached design; read-only through the bus",
        ]

    if retired:
        lines += ["", rule, "// retired registers (offsets stay reserved)"]
        for e in retired:
            lines.append(f"// retired: {e.name} @ {format_word(cfg.base_address + e.offset_bytes)}")

    def read_expr(e: RegEntry) -> str:
        if e.width_bits == 32:
            return e.name
        return f"{{{32 - e.width_bits}'d0, {e.name}}}"

    lines += ["", rule, f"// read mux; {ID_REG_NAME} register @ {format_word(cfg.base_address + ID_REG_OFFSET)}",
              "logic [31:0] rdata_next;",
              "always_comb begin",
              "  case (addr)",
              f"    {off_lit(ID_REG_OFFSET)}: rdata_next = 32'h{hash32:08x};  // {ID_REG_NAME}"]
    for e in active:
        lines.append(f"    {off_lit(e.offset_bytes)}: rdata_next = {read_expr(e)};  // {e.name}")
    lines += [f"    default: rdata_next = 32'h{cfg.unmapped_value:08x};  // no register here",
              "  endcase",
              "end",
              "`FF(rdata_next, rdata, clock, sel, reset_n, '0);"]

    lines += ["", "// registered single-cycle response", "logic ready_next;",
              "always_comb ready_next = sel;",
              "`FF(ready_next, ready, clock, 1'b1, reset_n, 1'b0);"]

    lines += ["", f"endmodule  // {cfg.block_name}_csr", ""]
    return "\n".join(lines)


def emit_instantiation_template(db: RegDb, cfg: EmitConfig, hash32: int) -> str:
    """Copy-paste instantiation of the generated block, one named connection per port."""
    active = [e for e in _sorted_entries(db) if e.state == ACTIVE]
    mod = f"{cfg.block_name}_csr"
    conns = [("clock", "clock"), ("reset_n", "reset_n")]
    conns += [(p, f"{mod}_{p}") for p in ("sel", "wr_en", "addr", "wdata", "rdata", "ready")]
    conns += [(e.name, e.name) for e in active]
    pin_col = max(len(pin) for pin, _ in conns)
    lines = _sv_banner(f"instantiation template for {mod}", hash32)
    lines += ["", f"{mod} u_{mod} ("]
    for i, (pin, sig) in enumerate(conns):
        comma = "" if i == len(conns) - 1 else ","
        lines.append(f"  .{pin:<{pin_col}} ({sig}){comma}")
    lines += [");", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# documentation and software views

def _md_escape(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def _doc_rows(db: RegDb, cfg: EmitConfig, hash32: int):
    id_row = (ID_REG_NAME, cfg.base_address + ID_REG_OFFSET, 32, ACCESS_RO,
              hash32, "register map content hash")
    rows = [id_row]
    for e in _sorted_entries(db):
        if e.state == ACTIVE:
            rows.append((e.name, cfg.base_address + e.offset_bytes, e.width_bits,
                         e.access, e.reset_value, e.description))
    return rows


def emit_markdown(db: RegDb, cfg: EmitConfig, hash32: int) -> str:
    header = "| name | address | width | access | reset | description |"
    divider = "|---|---|---|---|---|---|"

    def row(name, addr, width, access, reset, desc):
        return f"| {name} | {format_word(addr)} | {width} | {access} | 0x{reset:x} | {_md_escape(desc)} |"

    lines = [
        f"# {cfg.block_name} register map",
        "",
        f"Database hash: `{format_word(hash32)}`. Base address: `{format_word(cfg.base_address)}`.",
        "",
        header,
        divider,
    ]
    lines += [row(*r) for r in _doc_rows(db, cfg, hash32)]
    retired = [e for e in _sorted_entries(db) if e.state == RETIRED]
    if retired:
        lines += ["", "## Retired registers", "",
                  "Offsets stay reserved; reads return the unmapped constant.", "",
                  header, divider]
        lines += [row(e.name, cfg.base_address + e.offset_bytes, e.width_bits,
                      e.access, e.reset_value, e.description) for e in retired]
    return "\n".join(lines) + "\n"


def emit_sw_views(db: RegDb, cfg: EmitConfig, hash32: int) -> tuple[str, str]:
    """C header and Python definitions for the active register set."""
    block = _macro_name(cfg.block_name)
    guard = f"{block}_REGS_H"
    rows = _doc_rows(db, cfg, hash32)

    c_lines = [
        f"/* {cfg.block_name} register definitions",
        f" * generated file, do not edit; database hash {format_word(hash32)}",
        " */",
        f"#ifndef {guard}",
        f"#define {guard}",
        "",
        f"#define {block}_BASE_ADDR {format_word(cfg.base_address)}",
    ]
    for name, addr, width, access, reset, _desc in rows:
        macro = f"{block}_{_macro_name(name)}"
        c_lines += [
            "",
            f"/* {name}: {access}, {_bits(width)}, reset 0x{reset:x} */",
            f"#define {macro}_ADDR {format_word(addr)}",
            f"#define {macro}_WIDTH {width}",
        ]
    c_lines += ["", f"#endif /* {guard} */", ""]

    py_lines = [
        f"# {cfg.block_name} register definitions",
        f"# generated file, do not edit; database hash {format_word(hash32)}",
        "",
        f"BASE_ADDR = {format_word(cfg.base_address)}",
        "",
        "# name: (address, width_bits, access)",
        "REGISTERS = {",
    ]
    for name, addr, width, access, _reset, _desc in rows:
        py_lines.append(f'    "{name}": ({format_word(addr)}, {width}, "{access}"),')
    py_lines += ["}", ""]

    return "\n".join(c_lines), "\n".join(py_lines)


# ---------------------------------------------------------------------------
# self test

def emit_selftest(db: RegDb, cfg: EmitConfig, hash32: int) -> str:
    """Bring-up script text: ID check, write/read-back over every active
    register, and one probe of an in-region offset with no register behind it."""
    _check_region(db, cfg)
    return save_script(_selftest_rows(db, cfg, hash32))


def _selftest_rows(db: RegDb, cfg: EmitConfig, hash32: int) -> Iterator[tuple[str, str, str]]:
    """The self-test's (command, expected, comment) rows, one at a time."""
    base = cfg.base_address
    yield (f"R {format_word(base + ID_REG_OFFSET)}", format_word(hash32),
           f"{ID_REG_NAME} register carries the database hash")
    for e in _sorted_entries(db):
        if e.state != ACTIVE:
            continue
        name, addr = e.name, format_word(base + e.offset_bytes)
        read, reset = f"R {addr}", format_word(e.reset_value)
        if e.access == ACCESS_RW:
            ones = format_word((1 << e.width_bits) - 1)
            yield read, reset, f"{name}: reset value"
            yield f"W {addr} {ones}", RESP_OK, f"{name}: set all {e.width_bits} writable bits"
            yield read, ones, f"{name}: read back ones"
            yield f"W {addr} 0x00000000", RESP_OK, f"{name}: clear"
            yield read, "0x00000000", f"{name}: read back zero"
        else:
            yield read, reset, f"{name}: status value"
            yield f"W {addr} 0xa5a5a5a5", RESP_OK, f"{name}: write is ignored"
            yield read, reset, f"{name}: unchanged by write"
    # with no entries every offset is equally unmapped; the ID read already
    # proves the decode, so the degenerate script is that single step
    probe = _free_offset(db, cfg) if db.entries else None
    if probe is not None:
        yield (f"R {format_word(base + probe)}", format_word(cfg.unmapped_value),
               "offset with no register reads the unmapped constant")


# ---------------------------------------------------------------------------
# interconnect header

def emit_memmap_header(memmap: MemoryMap) -> str:
    """Base/size parameter pair per region; adding an IP touches only this file."""
    rule = "// " + "-" * 66
    lines = [rule, "// interconnect memory map", "// generated file, do not edit", rule, ""]
    for r in memmap.regions:
        name = _macro_name(r.name)
        lines.append(f"parameter logic [31:0] SOC_{name}_BASE = 32'h{r.base:08x};")
        lines.append(f"parameter logic [31:0] SOC_{name}_SIZE = 32'h{r.size_bytes:08x};")
    lines += ["", f"parameter int unsigned SOC_REGION_COUNT = {len(memmap.regions)};", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# diagnostic mux

def emit_diag_mux(diags: list[DiagCandidate], db: RegDb, cfg: EmitConfig, hash32: int) -> str:
    """Observation mux: every diagnostic tap in, cfg.diag_pins out, per-pin
    select fields sliced from the memory-mapped cfg_diag_sel register."""
    n_pins = cfg.diag_pins
    names = [d.name for d in diags]
    if len(set(names)) != len(names):
        raise DataError("duplicate diagnostic signal names across modules")
    sel_bits = rdb.diag_select_bits(len(names))
    sel_entry = db.entry("cfg_diag_sel")
    if sel_entry is None:
        raise DataError("database has no cfg_diag_sel entry (run update with diag enabled)")
    if sel_bits and sel_entry.width_bits < sel_bits * n_pins:
        raise DataError(
            f"cfg_diag_sel is {sel_entry.width_bits} bits; need {sel_bits * n_pins} "
            f"for {len(names)} signals on {n_pins} pins")

    mod = f"{cfg.block_name}_diag_mux"
    lines = _sv_banner(f"{mod}: diagnostic pin observation mux", hash32)
    lines += ["", f"module {mod} ("]
    for d in diags:
        lines.append(f"  input  logic {d.name},")
    if sel_bits:
        lines.append(f"  input  logic [{sel_bits * n_pins - 1}:0] cfg_diag_sel,")
    out_type = f"logic [{n_pins - 1}:0]" if n_pins > 1 else "logic"
    lines += [f"  output {out_type} diag_pins", ");", ""]

    pin_nets = []
    for pin in range(n_pins):
        net = f"pin{pin}_val"
        pin_nets.append(net)
        lines.append(f"// pin {pin}")
        lines.append(f"logic {net};")
        if sel_bits == 0:
            lines.append(f"always_comb {net} = {names[0]};")
        else:
            lo = pin * sel_bits
            hi = lo + sel_bits - 1
            sel = f"cfg_diag_sel[{hi}:{lo}]" if sel_bits > 1 else f"cfg_diag_sel[{lo}]"
            lines.append("always_comb begin")
            lines.append(f"  case ({sel})")
            for i, name in enumerate(names):
                lines.append(f"    {sel_bits}'d{i}: {net} = {name};")
            lines.append(f"    default: {net} = 1'b0;")
            lines.append("  endcase")
            lines.append("end")
        lines.append("")
    if n_pins > 1:
        concat = ", ".join(reversed(pin_nets))
        lines.append(f"always_comb diag_pins = {{{concat}}};")
    else:
        lines.append(f"always_comb diag_pins = {pin_nets[0]};")
    lines += ["", f"endmodule  // {mod}", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pad placement

def emit_pad_script(pads: PadDb) -> str:
    lines = ["# pad placement directives", "# generated file, do not edit"]
    for side in _SIDES:
        group = sorted((p for p in pads.pads if p.side == side), key=lambda p: p.order_index)
        if not group:
            continue
        lines.append("")
        lines.append(f"# side {side}")
        for p in group:
            lines.append(f"place_pad {p.name} -side {p.side} -order {p.order_index} "
                         f"-cell {p.cell_type} -signal {p.signal}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# target table

def output_name(target: str, cfg: EmitConfig) -> str:
    return {
        "rtl": f"{cfg.block_name}_csr.sv",
        "inst": f"{cfg.block_name}_csr_inst.sv",
        "md": f"{cfg.block_name}_regs.md",
        "c": f"{cfg.block_name}_regs.h",
        "py": f"{cfg.block_name}_regs.py",
        "test": f"{cfg.block_name}_selftest.txt",
        "memmap": "soc_memmap.svh",
        "diag": f"{cfg.block_name}_diag_mux.sv",
        "pads": "pads_place.tcl",
    }[target]


def render_targets(
    db: RegDb,
    cfg: EmitConfig,
    hash32: int,
    memmap: MemoryMap | None = None,
    diags: list[DiagCandidate] | None = None,
    pads: PadDb | None = None,
) -> dict[str, str]:
    """Render every configured target to text, keyed by output file name;
    hash32 is the db_hash of db, which the caller takes once.

    Raises before returning anything, so callers can write the whole tree
    atomically or not at all.
    """
    out: dict[str, str] = {}
    c_text = py_text = None
    for target in cfg.targets:
        name = output_name(target, cfg)
        if target == "rtl":
            out[name] = emit_csr_rtl(db, cfg, hash32)
        elif target == "inst":
            out[name] = emit_instantiation_template(db, cfg, hash32)
        elif target == "md":
            out[name] = emit_markdown(db, cfg, hash32)
        elif target in ("c", "py"):
            if c_text is None:
                c_text, py_text = emit_sw_views(db, cfg, hash32)
            out[name] = c_text if target == "c" else py_text
        elif target == "test":
            out[name] = emit_selftest(db, cfg, hash32)
        elif target == "memmap":
            if memmap is None:
                raise DataError("memmap target needs a memory map file")
            out[name] = emit_memmap_header(memmap)
        elif target == "diag":
            out[name] = emit_diag_mux(diags or [], db, cfg, hash32)
        elif target == "pads":
            out[name] = emit_pad_script(pads if pads is not None else PadDb())
    return out

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
from .regdb import OFFSET_KEY, EmitConfig, RegDb, RegEntry
from .script import RESP_OK, format_word, save_script
from .sv_scan import DiagCandidate

_SIDES = ("N", "E", "S", "W")


class Pad(NamedTuple):
    name: str
    side: str
    order_index: int
    cell_type: str
    signal: str


def load_pad_db(csv_text: str) -> tuple[Pad, ...]:
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
        if len(row) != len(header):
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
    return tuple(pads)


# ---------------------------------------------------------------------------
# shared helpers

_NOT_ALNUM_RE = re.compile(r"[^0-9A-Za-z]")


def _macro_name(text: str) -> str:
    return _NOT_ALNUM_RE.sub("_", text).upper()


def _bits(width: int) -> str:
    return "1 bit" if width == 1 else f"{width} bits"


def _sorted_entries(db: RegDb) -> list[RegEntry]:
    return sorted(db.entries, key=OFFSET_KEY)


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
    rw = [e for e in active if e.access == ACCESS_RW]
    ro = [e for e in active if e.access == ACCESS_RO]
    base = cfg.base_address
    addr_w = cfg.csr_region_size_bytes.bit_length() - 1
    # an offset's literal is lit, then the offset formatted by digits
    lit, digits = f"{addr_w}'h", f"0{max(1, (addr_w + 3) // 4)}x"

    # the strings that depend on a width alone, made once per width in use
    widths = {e.width_bits for e in active}
    types = {w: f"logic [{w - 1}:0]" if w > 1 else "logic" for w in widths | {1, 32, addr_w}}
    type_col = len(types[max(widths | {32})])
    port_types = {w: f"{t:<{type_col}}" for w, t in types.items()}
    slices = {w: "wdata" if w == 32 else "wdata[0]" if w == 1 else f"wdata[{w - 1}:0]"
              for w in widths}
    bits = {w: _bits(w) for w in widths}

    bit, word = port_types[1], port_types[32]
    lines = _sv_banner(f"{cfg.block_name}_csr: memory-mapped control and status registers", hash32)
    lines += ["", '`include "RTL.svh"', "", f"module {cfg.block_name}_csr ("]
    lines += [f"  input  {bit} clock,", f"  input  {bit} reset_n,", "", "  // bus slave interface",
              f"  input  {bit} sel,", f"  input  {bit} wr_en,",
              f"  input  {port_types[addr_w]} addr,", f"  input  {word} wdata,",
              f"  output {word} rdata,", f"  output {bit} ready,"]
    if rw:
        lines += ["", "  // control register outputs"]
        lines += [f"  output {port_types[e.width_bits]} {e.name}," for e in rw]
    if ro:
        lines += ["", "  // status inputs"]
        lines += [f"  input  {port_types[e.width_bits]} {e.name}," for e in ro]
    lines[-1] = lines[-1][:-1]  # no comma after the last port
    lines += [");", "", "logic wr_stb;", "always_comb wr_stb = sel & wr_en;"]

    rule = "// " + "-" * 66
    for e in rw:
        n, w, off, reset = e.name, e.width_bits, e.offset_bytes, e.reset_value
        lines.append(
            f"\n{rule}\n// {n} @ 0x{(base + off) & 0xffffffff:08x} "
            f"(RW, {bits[w]}, reset 0x{reset:x})\n"
            f"logic {n}_wr_en;\n{types[w]} {n}_next;\n"
            f"always_comb {n}_wr_en = wr_stb & (addr == {lit}{off:{digits}});\n"
            f"always_comb {n}_next = {slices[w]};\n"
            f"`FF({n}_next, {n}, clock, {n}_wr_en, reset_n, {w}'h{reset:x});")
    lines += [f"\n{rule}\n// {e.name} @ 0x{(base + e.offset_bytes) & 0xffffffff:08x} "
              f"(RO, {bits[e.width_bits]}, reset 0x{e.reset_value:x})\n"
              "// driven by the attached design; read-only through the bus" for e in ro]

    if retired:
        lines += ["", rule, "// retired registers (offsets stay reserved)"]
        lines += [f"// retired: {e.name} @ 0x{(base + e.offset_bytes) & 0xffffffff:08x}"
                  for e in retired]

    lines += ["", rule, f"// read mux; {ID_REG_NAME} register @ {format_word(base + ID_REG_OFFSET)}",
              "logic [31:0] rdata_next;",
              "always_comb begin",
              "  case (addr)",
              f"    {lit}{ID_REG_OFFSET:{digits}}: rdata_next = 32'h{hash32:08x};"
              f"  // {ID_REG_NAME}"]
    for e in active:
        n, w = e.name, e.width_bits
        value = n if w == 32 else f"{{{32 - w}'d0, {n}}}"
        lines.append(f"    {lit}{e.offset_bytes:{digits}}: rdata_next = {value};  // {n}")
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
    lines += [f"  .{pin:<{pin_col}} ({sig})," for pin, sig in conns]
    lines[-1] = lines[-1][:-1]  # no comma after the last connection
    lines += [");", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# documentation and software views

def _doc_rows(db: RegDb, cfg: EmitConfig, hash32: int):
    """(name, address word, width, access, reset, description) of the ID
    register and of each active entry, by offset."""
    base = cfg.base_address
    id_row = (ID_REG_NAME, format_word(base + ID_REG_OFFSET), 32, ACCESS_RO,
              hash32, "register map content hash")
    return [id_row] + [(e.name, f"0x{(base + e.offset_bytes) & 0xffffffff:08x}", e.width_bits,
                        e.access, e.reset_value, e.description)
                       for e in _sorted_entries(db) if e.state == ACTIVE]


def emit_markdown(db: RegDb, cfg: EmitConfig, hash32: int) -> str:
    header = "| name | address | width | access | reset | description |"
    divider = "|---|---|---|---|---|---|"

    def table(rows) -> list[str]:
        out = []
        for name, addr, width, access, reset, desc in rows:
            desc = desc.replace("|", "\\|").replace("\n", " ")
            out.append(f"| {name} | {addr} | {width} | {access} | 0x{reset:x} | {desc} |")
        return out

    lines = [
        f"# {cfg.block_name} register map",
        "",
        f"Database hash: `{format_word(hash32)}`. Base address: `{format_word(cfg.base_address)}`.",
        "",
        header,
        divider,
    ]
    lines += table(_doc_rows(db, cfg, hash32))
    retired = [e for e in _sorted_entries(db) if e.state == RETIRED]
    if retired:
        lines += ["", "## Retired registers", "",
                  "Offsets stay reserved; reads return the unmapped constant.", "",
                  header, divider]
        lines += table((e.name, f"0x{(cfg.base_address + e.offset_bytes) & 0xffffffff:08x}",
                        e.width_bits, e.access, e.reset_value, e.description) for e in retired)
    return "\n".join(lines) + "\n"


def emit_sw_views(db: RegDb, cfg: EmitConfig, hash32: int) -> tuple[str, str]:
    """C header and Python definitions for the active register set."""
    block = _macro_name(cfg.block_name)
    guard = f"{block}_REGS_H"
    rows = _doc_rows(db, cfg, hash32)
    # an ASCII identifier is its own macro name, upper-cased
    macros = [_macro_name(row[0]) if not (row[0].isascii() and row[0].isidentifier())
              else row[0].upper() for row in rows]
    bits = {w: _bits(w) for w in {row[2] for row in rows}}

    c_lines = [
        f"/* {cfg.block_name} register definitions",
        f" * generated file, do not edit; database hash {format_word(hash32)}",
        " */",
        f"#ifndef {guard}",
        f"#define {guard}",
        "",
        f"#define {block}_BASE_ADDR {format_word(cfg.base_address)}",
    ]
    c_lines += [f"\n/* {name}: {access}, {bits[width]}, reset 0x{reset:x} */\n"
                f"#define {block}_{macro}_ADDR {addr}\n#define {block}_{macro}_WIDTH {width}"
                for (name, addr, width, access, reset, _), macro in zip(rows, macros)]
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
    py_lines += [f'    "{name}": ({addr}, {width}, "{access}"),'
                 for name, addr, width, access, _, _ in rows]
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
        name, addr = e.name, f"0x{(base + e.offset_bytes) & 0xffffffff:08x}"
        read, reset = f"R {addr}", f"0x{e.reset_value & 0xffffffff:08x}"
        if e.access == ACCESS_RW:
            ones = f"0x{((1 << e.width_bits) - 1) & 0xffffffff:08x}"
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

def emit_pad_script(pads: tuple[Pad, ...]) -> str:
    lines = ["# pad placement directives", "# generated file, do not edit"]
    for side in _SIDES:
        group = sorted((p for p in pads if p.side == side), key=lambda p: p.order_index)
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
    pads: tuple[Pad, ...] = (),
) -> dict[str, str]:
    """Render every configured target to text, keyed by output file name;
    hash32 is the db_hash of db, which the caller takes once.

    Raises before returning anything. `generate` calls it once per output,
    with c and py in one call since one emit_sw_views call renders both, and
    writes each result to temp files before the next call, so it holds one
    artifact's text at a time and replaces no output until all have rendered.
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
            out[name] = emit_pad_script(pads)
    return out

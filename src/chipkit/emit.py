"""Deterministic renderers for every generated artifact.

All emitters are pure functions of the register database (plus auxiliary
inputs) and produce byte-identical output for identical input, so generated
files can be golden-tested and diffed in version control. Every artifact
carries the database content hash in its banner, tying it to the database
revision it was rendered from. The caller takes that hash once, and prepare()
checks the database against the csr region and makes one RegMap of it, its
settings and the hash, which every register emitter renders from and none
changes: no emitter reads the database.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import DataError, InputError
from . import regdb as rdb
from .memmap import MemoryMap, macro_name
from .regdb import ACCESS_RO, ACCESS_RW, ACTIVE, DIAG_SEL, ID_REG_NAME, ID_REG_OFFSET, RETIRED
from .regdb import OFFSET_KEY, TAPS_COLUMN, DiagTap, EmitConfig, RegDb
from .script import RESP_OK, format_word, save_script

_SIDES = ("N", "E", "S", "W")
# a pad cell is one TCL word in the pad script: bare when plain, else in
# braces, where TCL substitutes nothing; load_pad_db refuses what braces cannot hold
_PLAIN_RE = re.compile(r"[A-Za-z0-9_.:-]+")
_UNQUOTABLE_RE = re.compile(r"[{}\\\x00-\x1f\x7f-\x9f]")


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
        for col in required:
            if bad := _UNQUOTABLE_RE.search(row[idx[col]]):
                raise InputError(f"pad row {rownum}: {col} holds {bad.group()!r}, "
                                 "which the pad script cannot quote")
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

def _bits(width: int) -> str:
    return "1 bit" if width == 1 else f"{width} bits"


def _sv_banner(title: str, hash32: int) -> list[str]:
    rule = "// " + "-" * 66
    return [
        rule,
        f"// {title}",
        f"// generated file, do not edit; database hash {format_word(hash32)}",
        rule,
    ]


Row = tuple[str, str, int, str, int, str, int]


class RegMap(NamedTuple):
    """What the register emitters read, made once per database: its settings
    and hash, and a Row (name, address word, width, access, reset, description,
    offset) per register. rows holds the ID register's and each active entry's,
    by offset; rw and ro hold them by access, retired the retired entries'. taps
    holds the taps that an active RW cfg_diag_sel records, in code order, and
    probe the self-test's offset with no register behind it. No emitter changes it."""
    cfg: EmitConfig
    hash32: int
    rows: list[Row]
    rw: list[Row]
    ro: list[Row]
    retired: list[Row]
    taps: list[DiagTap]
    probe: int | None


def prepare(db: RegDb, cfg: EmitConfig, hash32: int) -> RegMap:
    """The RegMap of db under cfg; hash32 is the db_hash of db, which the caller
    takes once. Every entry, retired too, needs an offset in the csr region."""
    base, size, count = cfg.base_address, cfg.csr_region_size_bytes, len(db.entries)
    if size < 4 * (count + 1):
        raise DataError(f"region size 0x{size:x} too small for {count} entries plus "
                        f"the ID register (need 0x{4 * (count + 1):x})")
    rows = [(ID_REG_NAME, format_word(base + ID_REG_OFFSET), 32, ACCESS_RO, hash32,
             "register map content hash", ID_REG_OFFSET)]
    rw, ro, retired, taps = [], [], [], []
    probe = rdb.FIRST_OFFSET  # the lowest word from 0x4 that no entry holds, as offsets rise
    for e in sorted(db.entries, key=OFFSET_KEY):
        if e.offset_bytes >= size:
            raise DataError(
                f"entry {e.name} at offset 0x{e.offset_bytes:x} falls outside the region")
        if e.offset_bytes == probe:
            probe += rdb.WORD_BYTES
        row = (e.name, f"0x{(base + e.offset_bytes) & 0xffffffff:08x}", e.width_bits,
               e.access, e.reset_value, e.description, e.offset_bytes)
        if e.state == ACTIVE:
            rows.append(row)
            if e.access == ACCESS_RW:
                rw.append(row)
                if e.extra and e.name == DIAG_SEL:
                    taps = rdb.parse_taps(e.extra.get(TAPS_COLUMN, ""))
            elif e.access == ACCESS_RO:
                ro.append(row)
        elif e.state == RETIRED:
            retired.append(row)
    # with no entries the ID read alone proves the decode, so the self-test probes none
    return RegMap(cfg, hash32, rows, rw, ro, retired, taps,
                  probe if count and probe < size else None)


def _active_taps(regs: RegMap) -> list[tuple[int, str]]:
    """(select code, name) of each active tap, by code."""
    return [(code, t.name) for code, t in enumerate(regs.taps) if not t.retired]


# ---------------------------------------------------------------------------
# RTL

def emit_csr_rtl(regs: RegMap) -> str:
    """Synthesizable register block: write decode, one flop bank per RW entry,
    read mux over all offsets with the ID register at 0x0."""
    cfg, hash32, rw, ro = regs.cfg, regs.hash32, regs.rw, regs.ro
    addr_w = cfg.csr_region_size_bytes.bit_length() - 1
    # an offset's literal is lit, then the offset formatted by digits
    lit, digits = f"{addr_w}'h", f"0{max(1, (addr_w + 3) // 4)}x"

    # the strings that depend on a width alone, made once per width in use
    widths = {row[2] for row in regs.rows}  # the ID register's 32 among them
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
    # a run of one line per register (the ports, the read mux's cases) is joined
    # on its own, so the last join holds one string per run, not one per line
    if rw:
        lines += ["", "  // control register outputs",
                  "\n".join([f"  output {port_types[w]} {n}," for n, _, w, _, _, _, _ in rw])]
    if ro:
        lines += ["", "  // status inputs",
                  "\n".join([f"  input  {port_types[w]} {n}," for n, _, w, _, _, _, _ in ro])]
    lines[-1] = lines[-1][:-1]  # no comma after the last port
    lines += [");", "", "logic wr_stb;", "always_comb wr_stb = sel & wr_en;"]

    rule = "// " + "-" * 66
    for n, addr, w, _, reset, _, off in rw:
        lines.append(
            f"\n{rule}\n// {n} @ {addr} "
            f"(RW, {bits[w]}, reset 0x{reset:x})\n"
            f"logic {n}_wr_en;\n{types[w]} {n}_next;\n"
            f"always_comb {n}_wr_en = wr_stb & (addr == {lit}{off:{digits}});\n"
            f"always_comb {n}_next = {slices[w]};\n"
            f"`FF({n}_next, {n}, clock, {n}_wr_en, reset_n, {w}'h{reset:x});")
    lines += [f"\n{rule}\n// {n} @ {addr} (RO, {bits[w]}, reset 0x{reset:x})\n"
              "// driven by the attached design; read-only through the bus"
              for n, addr, w, _, reset, _, _ in ro]

    if regs.retired:
        lines += ["", rule, "// retired registers (offsets stay reserved)"]
        lines += [f"// retired: {n} @ {addr}" for n, addr, *_ in regs.retired]

    lines += ["", rule, f"// read mux; {ID_REG_NAME} register @ {regs.rows[0][1]}",
              "logic [31:0] rdata_next;",
              "always_comb begin",
              "  case (addr)"]
    cases = [f"    {lit}{ID_REG_OFFSET:{digits}}: rdata_next = 32'h{hash32:08x};  // {ID_REG_NAME}"]
    for n, _, w, _, _, _, off in regs.rows[1:]:
        value = n if w == 32 else f"{{{32 - w}'d0, {n}}}"
        cases.append(f"    {lit}{off:{digits}}: rdata_next = {value};  // {n}")
    lines.append("\n".join(cases))
    del cases  # its joined text alone stays
    lines += [f"    default: rdata_next = 32'h{cfg.unmapped_value:08x};  // no register here",
              "  endcase",
              "end",
              "`FF(rdata_next, rdata, clock, sel, reset_n, '0);"]

    lines += ["", "// registered single-cycle response", "logic ready_next;",
              "always_comb ready_next = sel;",
              "`FF(ready_next, ready, clock, 1'b1, reset_n, 1'b0);"]

    lines += ["", f"endmodule  // {cfg.block_name}_csr", ""]
    return "\n".join(lines)


def emit_instantiation_template(regs: RegMap) -> str:
    """Copy-paste instantiation of the generated block, one named connection per port."""
    mod = f"{regs.cfg.block_name}_csr"
    conns = [("clock", "clock"), ("reset_n", "reset_n")]
    conns += [(p, f"{mod}_{p}") for p in ("sel", "wr_en", "addr", "wdata", "rdata", "ready")]
    conns += [(row[0], row[0]) for row in regs.rows[1:]]
    pin_col = max(len(pin) for pin, _ in conns)
    lines = _sv_banner(f"instantiation template for {mod}", regs.hash32)
    lines += ["", f"{mod} u_{mod} ("]
    lines += [f"  .{pin:<{pin_col}} ({sig})," for pin, sig in conns]
    lines[-1] = lines[-1][:-1]  # no comma after the last connection
    lines += [");", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# documentation and software views

def emit_markdown(regs: RegMap) -> str:
    cfg, hash32 = regs.cfg, regs.hash32
    header = "| name | address | width | access | reset | description |"
    divider = "|---|---|---|---|---|---|"

    def table(rows) -> list[str]:
        out = []
        for name, addr, width, access, reset, desc, _ in rows:
            if "\r" in desc:  # CR, LF and CRLF each end a line, and become one space
                desc = desc.replace("\r\n", "\n").replace("\r", "\n")
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
    lines += table(regs.rows)
    if regs.retired:
        lines += ["", "## Retired registers", "",
                  "Offsets stay reserved; reads return the unmapped constant.", "",
                  header, divider]
        lines += table(regs.retired)
    if regs.taps:
        lines += ["", "## Diagnostic select codes", "",
                  f"A pin shows the tap whose code its field of `{DIAG_SEL}` holds. Retired "
                  "codes stay reserved; they and unused codes show 0.", "",
                  "| tap | code | module | state |", "|---|---|---|---|"]
        lines += [f"| {t.name} | {code} | {t.origin_module} | {RETIRED if t.retired else ACTIVE} |"
                  for code, t in enumerate(regs.taps)]
    return "\n".join(lines) + "\n"


def emit_sw_views(regs: RegMap) -> tuple[str, str]:
    """C header and Python definitions for the active register set."""
    cfg, hash32, rows = regs.cfg, regs.hash32, regs.rows
    block = macro_name(cfg.block_name)
    guard = f"{block}_REGS_H"
    # an ASCII identifier is its own macro name, upper-cased
    macros = [macro_name(row[0]) if not (row[0].isascii() and row[0].isidentifier())
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
                for (name, addr, width, access, reset, _, _), macro in zip(rows, macros)]
    taps = _active_taps(regs)
    if taps:
        c_lines += ["", f"/* {DIAG_SEL} field value that puts each diagnostic tap on a pin */"]
        c_lines += [f"#define {block}_DIAG_SEL_{name.upper()} {code}" for code, name in taps]
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
                 for name, addr, width, access, _, _, _ in rows]
    py_lines += ["}", ""]
    if taps:
        py_lines += [f"# tap: {DIAG_SEL} field value that puts it on a pin", "DIAG_SELECT = {"]
        py_lines += [f'    "{name}": {code},' for code, name in taps]
        py_lines += ["}", ""]

    return "\n".join(c_lines), "\n".join(py_lines)


# ---------------------------------------------------------------------------
# self test

def emit_selftest(regs: RegMap) -> str:
    """Bring-up script text: ID check, write/read-back over every active
    register, and one probe of an in-region offset with no register behind it.
    Each register's steps are one block of text, as save_script writes them."""
    id_name, id_addr = regs.rows[0][:2]
    blocks = [save_script([(f"R {id_addr}", format_word(regs.hash32),
                            f"{id_name} register carries the database hash")])]
    for name, addr, width, access, reset, _, _ in regs.rows[1:]:
        reset = f"0x{reset & 0xffffffff:08x}"
        if access == ACCESS_RW:
            ones = f"0x{((1 << width) - 1) & 0xffffffff:08x}"
            blocks.append(f"\n# {name}: reset value\n> R {addr}\n< {reset}\n"
                          f"\n# {name}: set all {width} writable bits\n> W {addr} {ones}\n< {RESP_OK}\n"
                          f"\n# {name}: read back ones\n> R {addr}\n< {ones}\n"
                          f"\n# {name}: clear\n> W {addr} 0x00000000\n< {RESP_OK}\n"
                          f"\n# {name}: read back zero\n> R {addr}\n< 0x00000000\n")
        else:
            blocks.append(f"\n# {name}: status value\n> R {addr}\n< {reset}\n"
                          f"\n# {name}: write is ignored\n> W {addr} 0xa5a5a5a5\n< {RESP_OK}\n"
                          f"\n# {name}: unchanged by write\n> R {addr}\n< {reset}\n")
    if regs.probe is not None:
        blocks.append("\n# offset with no register reads the unmapped constant\n"
                      f"> R {format_word(regs.cfg.base_address + regs.probe)}\n"
                      f"< {format_word(regs.cfg.unmapped_value)}\n")
    return "".join(blocks)


# ---------------------------------------------------------------------------
# interconnect header

def emit_memmap_header(memmap: MemoryMap) -> str:
    """Base/size parameter pair per region; adding an IP touches only this file."""
    rule = "// " + "-" * 66
    lines = [rule, "// interconnect memory map", "// generated file, do not edit", rule, ""]
    for r in memmap.regions:
        name = macro_name(r.name)
        lines.append(f"parameter logic [31:0] SOC_{name}_BASE = 32'h{r.base:08x};")
        lines.append(f"parameter logic [31:0] SOC_{name}_SIZE = 32'h{r.size_bytes:08x};")
    lines += ["", f"parameter int unsigned SOC_REGION_COUNT = {len(memmap.regions)};", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# diagnostic mux

def emit_diag_mux(regs: RegMap) -> str:
    """Observation mux: every active diagnostic tap the database records, at
    its select code, regs.cfg.diag_pins out, per-pin select fields sliced from
    the active RW cfg_diag_sel register."""
    cfg, n_pins = regs.cfg, regs.cfg.diag_pins
    sel_width = next((row[2] for row in regs.rw if row[0] == DIAG_SEL), None)
    if sel_width is None:
        raise DataError(f"database has no active RW {DIAG_SEL} (run update with diag enabled)")
    if not regs.taps:
        raise DataError("database records no diagnostic taps (run update)")
    sel_bits, taps = rdb.diag_select_bits(regs.taps), _active_taps(regs)
    if not taps:
        raise DataError("diagnostic mux needs at least one signal")
    if sel_width < sel_bits * n_pins:
        raise DataError(f"{DIAG_SEL} is {sel_width} bits; need {sel_bits * n_pins} "
                        f"for {len(regs.taps)} select codes on {n_pins} pins")

    mod = f"{cfg.block_name}_diag_mux"
    lines = _sv_banner(f"{mod}: diagnostic pin observation mux", regs.hash32)
    lines += ["", f"module {mod} ("]
    lines += [f"  input  logic {name}," for _, name in taps]
    if sel_bits:
        lines.append(f"  input  logic [{sel_bits * n_pins - 1}:0] cfg_diag_sel,")
    out_type = f"logic [{n_pins - 1}:0]" if n_pins > 1 else "logic"
    lines += [f"  output {out_type} diag_pins", ");", ""]

    pin_nets = []
    for pin in range(n_pins):
        net = f"pin{pin}_val"
        pin_nets.append(net)
        lines += [f"// pin {pin}", f"logic {net};"]
        if sel_bits == 0:
            lines.append(f"always_comb {net} = {taps[0][1]};")
        else:
            lo, hi = pin * sel_bits, (pin + 1) * sel_bits - 1
            sel = f"cfg_diag_sel[{hi}:{lo}]" if sel_bits > 1 else f"cfg_diag_sel[{lo}]"
            lines += ["always_comb begin", f"  case ({sel})"]
            lines += [f"    {sel_bits}'d{code}: {net} = {name};" for code, name in taps]
            lines += [f"    default: {net} = 1'b0;", "  endcase", "end"]
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
    def word(cell: str) -> str:
        return cell if _PLAIN_RE.fullmatch(cell) else f"{{{cell}}}"

    lines = ["# pad placement directives", "# generated file, do not edit"]
    for side in _SIDES:
        group = sorted((p for p in pads if p.side == side), key=lambda p: p.order_index)
        if group:
            lines += ["", f"# side {side}"]
            lines += [f"place_pad {word(p.name)} -side {p.side} -order {p.order_index} "
                      f"-cell {word(p.cell_type)} -signal {word(p.signal)}" for p in group]
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
    regs: RegMap,
    memmap: MemoryMap | None = None,
    pads: tuple[Pad, ...] = (),
) -> dict[str, str]:
    """Render every target of regs.cfg to text, keyed by output file name.

    Raises before returning anything. `generate` prepares one RegMap and
    hands the writer a generator of calls, one per output, with c and py in
    one call since one emit_sw_views call renders both. The writer stages
    each result before it asks for the next, encoding each text a bounded
    slice at a time, so `generate` holds one artifact's text at a time and
    never its bytes beside it, and replaces no output until all have rendered.
    """
    cfg = regs.cfg
    out: dict[str, str] = {}
    c_text = py_text = None
    for target in cfg.targets:
        name = output_name(target, cfg)
        if target == "rtl":
            out[name] = emit_csr_rtl(regs)
        elif target == "inst":
            out[name] = emit_instantiation_template(regs)
        elif target == "md":
            out[name] = emit_markdown(regs)
        elif target in ("c", "py"):
            if c_text is None:
                c_text, py_text = emit_sw_views(regs)
            out[name] = c_text if target == "c" else py_text
        elif target == "test":
            out[name] = emit_selftest(regs)
        elif target == "memmap":
            if memmap is None:
                raise DataError("memmap target needs a memory map file")
            out[name] = emit_memmap_header(memmap)
        elif target == "diag":
            out[name] = emit_diag_mux(regs)
        elif target == "pads":
            out[name] = emit_pad_script(pads)
    return out

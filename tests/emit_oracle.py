"""Emitters as they were before chipkit.emit rendered each register in one
f-string block per target with per-width strings from a table. The self-test
emitter added each step through TestScript.add, with its command and reply
each formatted through read_command, write_command and format_word; and
save_script as it was when it built the file's lines as a list and joined
them. Those helpers are gone from chipkit.script, so verbatim copies live
here; the emitter takes the database hash from its caller, as every emitter
now does, and builds host_oracle's copies of the records. The register
block, instantiation template, Markdown and software-view emitters called
format_word, _bits, _md_escape, _macro_name and local port, row and pad_type
helpers per field; they and those helpers are copied verbatim below. All of
them took (db, cfg, hash32), before the emitters took one RegMap, and sorted
the entries by offset through _sorted_entries, copied verbatim too. The
register block and self-test emitters ran the region check, _check_region,
and the self-test found its probe through _free_offset; both are copied
verbatim, but for the entry the region check names past the region: the
one at the lowest offset, as emit.prepare names it, where the copy named the
first in list order. Every register-view oracle here runs the region check
first, as emit.prepare now does for every target. Kept only as oracles for the
differential property tests; chipkit never imports it."""

from __future__ import annotations

import re

from chipkit import DataError
from chipkit import regdb as rdb
from chipkit.emit import _sv_banner
from chipkit.regdb import ACCESS_RO, ACCESS_RW, ACTIVE, ID_REG_NAME, ID_REG_OFFSET, OFFSET_KEY
from chipkit.regdb import RETIRED, EmitConfig, RegDb, RegEntry
from chipkit.script import RESP_OK, format_word
from host_oracle import ScriptStep, TestScript


class _Script(TestScript):
    """TestScript with the add method it had when this emitter was replaced."""

    def add(self, command: str, expected: str, comment: str = "") -> None:
        self.steps.append(ScriptStep(command, expected, comment))


def _check_region(db: RegDb, cfg: EmitConfig) -> None:
    need = 4 * (len(db.entries) + 1)
    if cfg.csr_region_size_bytes < need:
        raise DataError(
            f"region size 0x{cfg.csr_region_size_bytes:x} too small for "
            f"{len(db.entries)} entries plus the ID register (need 0x{need:x})")
    outside = [e for e in db.entries
               if e.offset_bytes is not None and e.offset_bytes >= cfg.csr_region_size_bytes]
    if outside:  # the lowest such offset, as emit.prepare names it
        e = min(outside, key=OFFSET_KEY)
        raise DataError(f"entry {e.name} at offset 0x{e.offset_bytes:x} falls outside the region")


def _free_offset(db: RegDb, cfg: EmitConfig) -> int | None:
    """Lowest in-region word offset with no register behind it, if any."""
    used = {ID_REG_OFFSET} | {e.offset_bytes for e in db.entries}
    for off in range(rdb.FIRST_OFFSET, cfg.csr_region_size_bytes, rdb.WORD_BYTES):
        if off not in used:
            return off
    return None


def _sorted_entries(db: RegDb) -> list[RegEntry]:
    return sorted(db.entries, key=OFFSET_KEY)


def read_command(addr: int) -> str:
    return f"R {format_word(addr)}"


def write_command(addr: int, data: int) -> str:
    return f"W {format_word(addr)} {format_word(data)}"


def emit_selftest(db, cfg, hash32) -> TestScript:
    _check_region(db, cfg)
    base = cfg.base_address
    sc = _Script()
    sc.add(read_command(base + ID_REG_OFFSET), format_word(hash32),
           f"{ID_REG_NAME} register carries the database hash")
    for e in _sorted_entries(db):
        if e.state != ACTIVE:
            continue
        addr = base + e.offset_bytes
        if e.access == ACCESS_RW:
            ones = (1 << e.width_bits) - 1
            sc.add(read_command(addr), format_word(e.reset_value), f"{e.name}: reset value")
            sc.add(write_command(addr, ones), RESP_OK, f"{e.name}: set all {e.width_bits} writable bits")
            sc.add(read_command(addr), format_word(ones), f"{e.name}: read back ones")
            sc.add(write_command(addr, 0), RESP_OK, f"{e.name}: clear")
            sc.add(read_command(addr), format_word(0), f"{e.name}: read back zero")
        else:
            sc.add(read_command(addr), format_word(e.reset_value), f"{e.name}: status value")
            sc.add(write_command(addr, 0xA5A5A5A5), RESP_OK, f"{e.name}: write is ignored")
            sc.add(read_command(addr), format_word(e.reset_value), f"{e.name}: unchanged by write")
    probe = _free_offset(db, cfg) if db.entries else None
    if probe is not None:
        sc.add(read_command(base + probe), format_word(cfg.unmapped_value),
               "offset with no register reads the unmapped constant")
    return sc


def save_script(script: TestScript) -> str:
    lines: list[str] = []
    for step in script.steps:
        if step.comment:
            if lines:
                lines.append("")
            lines.append(f"# {step.comment}")
        lines.append(f"> {step.command}")
        lines.append(f"< {step.expected}")
    return "\n".join(lines) + "\n"


_NOT_ALNUM_RE = re.compile(r"[^0-9A-Za-z]")


def _macro_name(text: str) -> str:
    return _NOT_ALNUM_RE.sub("_", text).upper()


def _bits(width: int) -> str:
    return "1 bit" if width == 1 else f"{width} bits"



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
    _check_region(db, cfg)
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
    _check_region(db, cfg)
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
    _check_region(db, cfg)
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

"""Generated files read back by their own language's tools on this host: the
pad script sourced by tclsh, and the C header compiled by cc and run, whose
addresses must be the self-test's. Each such test skips only when its tool is
absent, and its reason names the tool. The host has no SystemVerilog tool, so
the memory-map header's declarations are read with a regex, and never skip."""

import csv
import io
import re
import shutil
import subprocess

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategies
from chipkit import DataError, emit, regdb
from chipkit.emit import EmitConfig
from chipkit.memmap import REGION_KINDS, MemoryMap, Region, macro_name
from chipkit.regdb import db_hash

TCLSH = shutil.which("tclsh")
CC = shutil.which("cc")
needs_tclsh = pytest.mark.skipif(TCLSH is None, reason="tclsh not found on PATH")
needs_cc = pytest.mark.skipif(CC is None, reason="cc not found on PATH")


# ---------------------------------------------------------------------------
# the pad script under tclsh

# records each place_pad call, then prints it one line a call, each argument
# as the hex of its UTF-8 bytes, so that no character needs quoting on the way back
_TCL_DRIVER = """\
set calls {}
proc place_pad args { lappend ::calls $args }
source [lindex $argv 0]
foreach call $calls {
    set words {}
    foreach arg $call { lappend words [binary encode hex [encoding convertto utf-8 $arg]] }
    puts [join $words " "]
}
"""


def _pads_csv(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([("name", "side", "order", "cell", "signal"),
                                                    *rows])
    return out.getvalue()


def _placed(script: str, tmp_path) -> list[list[str]]:
    """The arguments of each place_pad call that tclsh makes sourcing script."""
    (tmp_path / "pads_place.tcl").write_text(script, encoding="utf-8")
    (tmp_path / "driver.tcl").write_text(_TCL_DRIVER, encoding="utf-8")
    result = subprocess.run([TCLSH, str(tmp_path / "driver.tcl"), str(tmp_path / "pads_place.tcl")],
                            capture_output=True, text=True, timeout=30)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    return [[bytes.fromhex(word).decode("utf-8") for word in line.split(" ")]
            for line in result.stdout.splitlines()]


def _check_pad_script(rows, tmp_path):
    """Sourcing the script made from rows calls place_pad once per pad, by side
    then order, with each cell as load_pad_db read it, stripped, as one argument."""
    pads = emit.load_pad_db(_pads_csv(rows))
    assert [(p.name, p.cell_type, p.signal) for p in pads] == \
        [(name.strip(), cell.strip(), signal.strip()) for name, _, _, cell, signal in rows]
    expected = [[p.name, "-side", p.side, "-order", str(p.order_index), "-cell", p.cell_type,
                 "-signal", p.signal]
                for p in sorted(pads, key=lambda p: ("NESW".index(p.side), p.order_index))]
    assert _placed(emit.emit_pad_script(pads), tmp_path) == expected


@needs_tclsh
def test_pad_script_runs_no_cell(tmp_path):
    """The cells that ran commands or split into two words when written bare:
    a command substitution, a second command, a space, a bus bit, an empty
    cell, a variable, a quote and a comment sign."""
    _check_pad_script([
        ("pad[set ::pwned 1]", "N", "0", "PDIN", "clock"),
        ("pad_b", "N", "1", "PDIN", "sig;set ::two 2"),
        ("pad c", "E", "0", "PD OUT", "data[3]"),
        ("pad_d", "E", "1", "", ""),
        ("$pad", "S", "0", '"q"', "#x"),
        ("pad_f", "W", "0", "a;b]", "$::env(HOME)"),
    ], tmp_path)


_CELL = st.text(st.sampled_from(list("aZ09_.:-[]$;\"# ,")), max_size=10)


@needs_tclsh
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_CELL, st.sampled_from("NESW"), st.integers(0, 20).map(str),
                               _CELL, _CELL), max_size=8, unique_by=lambda row: row[1:3]))
def test_pad_script_calls_are_the_pad_rows(rows, tmp_path_factory):
    _check_pad_script(rows, tmp_path_factory.mktemp("pads"))


# ---------------------------------------------------------------------------
# the C header under cc

def _macros(source: str, tmp_path) -> set[str]:
    """The names of the macros defined after the preprocessor reads source."""
    (tmp_path / "macros.c").write_text(source, encoding="utf-8")
    result = subprocess.run([CC, "-std=c99", "-dM", "-E", str(tmp_path / "macros.c")],
                            capture_output=True, text=True, timeout=60, check=True)
    return set(re.findall(r"^#define (\w+)", result.stdout, re.M))


def _read_header(header: str, tmp_path) -> dict[str, int]:
    """Every _ADDR, _WIDTH and DIAG_SEL_ macro that header defines, with the
    value a C99 program compiled with every warning an error prints for it."""
    (tmp_path / "regs.h").write_text(header, encoding="utf-8")
    names = sorted(name for name in _macros('#include "regs.h"\n', tmp_path) - _macros("", tmp_path)
                   if name.endswith(("_ADDR", "_WIDTH")) or "DIAG_SEL_" in name)
    main = ["#include <stdio.h>", '#include "regs.h"', "", "int main(void)", "{"]
    main += [f'    printf("%s %llu\\n", "{name}", (unsigned long long)({name}));' for name in names]
    main += ["    return 0;", "}", ""]
    (tmp_path / "main.c").write_text("\n".join(main), encoding="utf-8")
    subprocess.run([CC, "-std=c99", "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "main"),
                    str(tmp_path / "main.c")], capture_output=True, text=True, timeout=60,
                   check=True)
    out = subprocess.run([str(tmp_path / "main")], capture_output=True, text=True, timeout=30,
                         check=True).stdout
    return {name: int(value) for name, value in (line.split() for line in out.splitlines())}


def _expected_macros(db, cfg) -> dict[str, int]:
    """The macros the rows of db give under cfg: the base, and the address and
    width of the ID register and of each active entry, and the select code of
    each active tap of the active RW cfg_diag_sel."""
    block, base = cfg.block_name.upper(), cfg.base_address
    expected = {f"{block}_BASE_ADDR": base, f"{block}_ID_ADDR": base, f"{block}_ID_WIDTH": 32}
    for e in db.entries:
        if e.state == regdb.ACTIVE:
            expected[f"{block}_{e.name.upper()}_ADDR"] = base + e.offset_bytes
            expected[f"{block}_{e.name.upper()}_WIDTH"] = e.width_bits
            if e.name == regdb.DIAG_SEL and e.access == regdb.ACCESS_RW:
                expected.update((f"{block}_DIAG_SEL_{t.name.upper()}", code) for code, t in
                                enumerate(regdb.parse_taps(e.extra.get(regdb.TAPS_COLUMN, "")))
                                if not t.retired)
    return expected


def _check_header(header: str, db, cfg, tmp_path) -> dict[str, int]:
    """header's macros, which must be the ones db's rows give, with every
    register's address in the csr region."""
    macros = _read_header(header, tmp_path)
    assert macros == _expected_macros(db, cfg)
    block, base = cfg.block_name.upper(), cfg.base_address
    for name in ["ID"] + [e.name.upper() for e in db.entries if e.state == regdb.ACTIVE]:
        assert base <= macros[f"{block}_{name}_ADDR"] < base + cfg.csr_region_size_bytes, name
    return macros


def _check_selftest(macros: dict[str, int], selftest: str, db, cfg) -> None:
    """Each register's _ADDR macro, the ID register's included, is the one
    address that register's steps in selftest read and write, and only the
    registers with such a macro have steps."""
    steps: dict[str, set[int]] = {}  # by the name as its macros spell it
    for name, addr in re.findall(r"^# (\w+)(?::| register ).*\n> [RW] (0x[0-9a-f]+)", selftest,
                                 re.M):
        steps.setdefault(name.upper(), set()).add(int(addr, 16))
    block = cfg.block_name.upper()
    names = ["ID"] + [e.name.upper() for e in db.entries if e.state == regdb.ACTIVE]
    assert steps == {name: {macros[f"{block}_{name}_ADDR"]} for name in names}


@needs_cc
def test_fixture_header_reads_back(project_dir, tmp_path, monkeypatch):
    """The fixture project's header, as generate writes it, against its
    regs.csv and its self-test."""
    from chipkit.cli import main
    monkeypatch.chdir(project_dir)
    assert main(["--config", "chipkit.cfg", "update"]) == 0
    assert main(["--config", "chipkit.cfg", "generate", "--targets", "c,test"]) == 0
    db = regdb.load_db((project_dir / "regs.csv").read_text())
    cfg = EmitConfig(block_name="demo", base_address=0x50000000, csr_region_size_bytes=0x1000)
    macros = _check_header((project_dir / "gen" / "demo_regs.h").read_text(), db, cfg, tmp_path)
    _check_selftest(macros, (project_dir / "gen" / "demo_selftest.txt").read_text(), db, cfg)
    assert {name for name in macros if name.startswith("DEMO_DIAG_SEL_")} == {
        "DEMO_DIAG_SEL_DIAG_FSM_IDLE", "DEMO_DIAG_SEL_DIAG_OVERFLOW", "DEMO_DIAG_SEL_DIAG_TICK"}


# block names that are identifiers but no usual ones
_BLOCKS = ["soc", "_", "x__y", "Blk", "_9", "my_blk2", "a" * 40]


@st.composite
def _configs(draw):
    size = 1 << draw(st.integers(6, 16))
    return EmitConfig(block_name=draw(st.sampled_from(_BLOCKS)),
                      base_address=size * draw(st.integers(0, (1 << 32) // size - 1)),
                      csr_region_size_bytes=size)


@needs_cc
@settings(max_examples=25, deadline=None)
@given(db=strategies.tapped_dbs(), cfg=_configs())
def test_header_reads_back(db, cfg, tmp_path_factory):
    """Databases with and without taps, at any aligned base of the 32-bit space."""
    assume(not regdb.validate_db(db))
    regs = emit.prepare(db, cfg, db_hash(db))
    c_text, _ = emit.emit_sw_views(regs)
    macros = _check_header(c_text, db, cfg, tmp_path_factory.mktemp("header"))
    _check_selftest(macros, emit.emit_selftest(regs), db, cfg)


# ---------------------------------------------------------------------------
# the memory-map header

@st.composite
def _regions(draw):
    """Up to eight regions, each in a 16 MiB slot of its own, named from
    characters that macro_name maps to '_' or keeps, so that some names give
    one SOC_<NAME>."""
    slots = draw(st.lists(st.integers(0, 0xFF), unique=True, max_size=8))
    return [Region(draw(st.text(st.sampled_from("aZz9_-."), min_size=1, max_size=3)),
                   draw(st.sampled_from(REGION_KINDS)), slot << 24, 1 << draw(st.integers(2, 24)))
            for slot in slots]


@settings(max_examples=200, deadline=None)
@given(regions=_regions())
def test_memmap_header_declares_each_parameter_once(regions):
    """The header of any map declares each parameter once: each region's base
    and size, with the region's values, then the region count. A map whose
    names would declare one twice is refused."""
    try:
        memmap = MemoryMap(regions)
    except DataError:
        assert len({macro_name(r.name) for r in regions}) < len(regions)
        return
    text = emit.emit_memmap_header(memmap)
    declared = re.findall(r"^parameter (?:logic \[31:0\]|int unsigned) (\w+) = (.*);$", text, re.M)
    assert len(declared) == text.count("parameter") == 2 * len(regions) + 1
    values = dict(declared)
    assert len(values) == len(declared)
    assert values.pop("SOC_REGION_COUNT") == str(len(regions))
    assert values == {f"SOC_{macro_name(r.name)}_{part}": f"32'h{value:08x}"
                      for r in regions for part, value in (("BASE", r.base), ("SIZE", r.size_bytes))}

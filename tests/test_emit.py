import hashlib
import re
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategies
from chipkit import DataError, InputError, emit, regdb, sv_scan
from chipkit.emit import EmitConfig, load_pad_db
from chipkit.memmap import MemoryMap, Region
from chipkit.regdb import RETIRED, DiagTap, RegDb, RegEntry, db_hash, update_db
from chipkit.script import format_word, scan_script
from chipkit.sv_scan import CsrCandidate, SourceFile, lint, parse_modules
from test_memory_guard import _render_inputs

CFG = EmitConfig(block_name="myblk", base_address=0x70000000, csr_region_size_bytes=0x1000)


def make_db(*cands):
    db, _ = update_db(RegDb(), list(cands))
    return db


def cand(name, width=8, access="RW", origin="m1"):
    return CsrCandidate(name, width, access, origin)


GAIN_DB = make_db(cand("cfg_gain", 8))
EMPTY_HASH = db_hash(RegDb())


def big_db(n=100):
    return make_db(*[cand(f"cfg_r{i:03d}", 8) for i in range(n)])


class TestCsrRtl:
    def test_hundred_entries_over_thousand_lines(self):
        db = big_db()
        text = emit.emit_csr_rtl(emit.prepare(db, CFG, db_hash(db)))
        assert text.count("\n") > 1000

    def test_empty_db_still_parses(self):
        text = emit.emit_csr_rtl(emit.prepare(RegDb(), CFG, EMPTY_HASH))
        mods = parse_modules(SourceFile("gen.sv", text))
        assert [m.name for m in mods] == ["myblk_csr"]
        assert f"32'h{db_hash(RegDb()):08x}" in text

    def test_rw_entry_becomes_output_port(self):
        text = emit.emit_csr_rtl(emit.prepare(GAIN_DB, CFG, db_hash(GAIN_DB)))
        mods = parse_modules(SourceFile("gen.sv", text))
        port = {p.name: p for p in mods[0].ports}["cfg_gain"]
        assert (port.direction, port.width_bits) == ("output", 8)

    def test_ro_entry_becomes_input_port(self):
        db = make_db(cand("sts_done", 1, "RO"))
        text = emit.emit_csr_rtl(emit.prepare(db, CFG, db_hash(db)))
        port = {p.name: p for p in parse_modules(SourceFile("g.sv", text))[0].ports}["sts_done"]
        assert (port.direction, port.width_bits) == ("input", 1)

    def test_retired_entries_comment_only(self):
        db, _ = update_db(GAIN_DB, [], scanned_modules={"m1"})
        assert db.entry("cfg_gain").state == RETIRED
        text = emit.emit_csr_rtl(emit.prepare(db, CFG, db_hash(db)))
        assert "retired: cfg_gain" in text
        assert "cfg_gain" not in [p.name for p in parse_modules(SourceFile("g.sv", text))[0].ports]

    def test_reset_value_in_macro(self):
        db = make_db(cand("cfg_mode", 4))
        db.entries[0] = db.entries[0]._replace(reset_value=0x5)  # cfg_mode, the only entry
        assert "4'h5" in emit.emit_csr_rtl(emit.prepare(db, CFG, db_hash(db)))

    def test_region_too_small(self):
        small = EmitConfig(block_name="b", base_address=0, csr_region_size_bytes=4)
        with pytest.raises(DataError, match=r"^region size 0x4 too small for 1 entries plus "
                                            r"the ID register \(need 0x8\)$"):
            emit.emit_csr_rtl(emit.prepare(GAIN_DB, small, db_hash(GAIN_DB)))

    def test_monotone_line_count(self):
        counts = [emit.emit_csr_rtl(emit.prepare(db, CFG, db_hash(db))).count("\n")
                  for db in map(big_db, (0, 1, 5, 20))]
        assert counts == sorted(counts) and len(set(counts)) == len(counts)


class TestInstantiation:
    def test_empty_db_bus_ports_only(self):
        text = emit.emit_instantiation_template(emit.prepare(RegDb(), CFG, EMPTY_HASH))
        pins = re.findall(r"\.(\w+)\s*\(", text)
        assert pins == ["clock", "reset_n", "sel", "wr_en", "addr", "wdata", "rdata", "ready"]

    def test_entries_listed(self):
        db = make_db(cand("cfg_a"), cand("sts_b", 1, "RO"))
        text = emit.emit_instantiation_template(emit.prepare(db, CFG, db_hash(db)))
        assert ".cfg_a" in text and ".sts_b" in text

    def test_parses_inside_wrapper(self):
        inst = emit.emit_instantiation_template(emit.prepare(GAIN_DB, CFG, db_hash(GAIN_DB)))
        wrapper = "module wrap (input logic clock, input logic reset_n);\n" + inst + "\nendmodule\n"
        assert [m.name for m in parse_modules(SourceFile("w.sv", wrapper))] == ["wrap"]


class TestMarkdown:
    def test_absolute_address(self):
        text = emit.emit_markdown(emit.prepare(GAIN_DB, CFG, db_hash(GAIN_DB)))
        assert "| cfg_gain | 0x70000004 | 8 | RW |" in text

    def test_empty_db_id_row_only(self):
        text = emit.emit_markdown(emit.prepare(RegDb(), CFG, EMPTY_HASH))
        rows = [l for l in text.splitlines() if l.startswith("| ") and "---" not in l
                and not l.startswith("| name")]
        assert len(rows) == 1 and rows[0].startswith("| id | 0x70000000 | 32 | RO |")

    def test_pipe_escaped(self):
        db = make_db(cand("cfg_a"))
        db.entries[0] = db.entries[0]._replace(description="bits|fields")  # cfg_a, the only entry
        assert "bits\\|fields" in emit.emit_markdown(emit.prepare(db, CFG, db_hash(db)))

    @pytest.mark.parametrize("brk", ["\r\n", "\r", "\n"], ids=["crlf", "cr", "lf"])
    def test_each_line_break_in_a_description_is_one_space(self, brk):
        """CR, LF and CRLF each become one space, so every table row, active or
        retired, stays one line to CommonMark and to str.splitlines."""
        db = make_db(cand("cfg_a"), cand("cfg_b"))
        db.entries = [e._replace(description=f"line one{brk}line two | x",
                                 state=RETIRED if e.name == "cfg_b" else e.state)
                      for e in db.entries]
        md = emit.emit_markdown(emit.prepare(db, CFG, db_hash(db)))
        lines = md.splitlines()
        assert lines == md.split("\n")[:-1]
        for name, addr in (("cfg_a", "0x70000004"), ("cfg_b", "0x70000008")):
            assert f"| {name} | {addr} | 8 | RW | 0x0 | line one line two \\| x |" in lines

    def test_crlf_in_a_quoted_cell_of_the_database_file(self):
        """The canonical loader turns this file down, but load_db reads it and
        validate_db passes it."""
        text = ("name,width,access,reset,offset,origin_module,description,state\n"
                'cfg_a,8,RW,0x0,0x4,m1,"line one\r\nline two | x",active\n')
        assert regdb.load_canonical_db(text) is None
        db = regdb.load_db(text)
        assert regdb.validate_db(db) == []
        md = emit.emit_markdown(emit.prepare(db, CFG, db_hash(db)))
        assert "| cfg_a | 0x70000004 | 8 | RW | 0x0 | line one line two \\| x |" in md.splitlines()

    def test_retired_section(self):
        db, _ = update_db(GAIN_DB, [], scanned_modules={"m1"})
        text = emit.emit_markdown(emit.prepare(db, CFG, db_hash(db)))
        assert "## Retired registers" in text
        assert text.index("cfg_gain") > text.index("Retired")
        assert "Retired" not in emit.emit_markdown(emit.prepare(GAIN_DB, CFG, db_hash(GAIN_DB)))


class TestSwViews:
    def test_c_define_rendering(self):
        c_text, _ = emit.emit_sw_views(emit.prepare(GAIN_DB, CFG, db_hash(GAIN_DB)))
        assert "#define MYBLK_CFG_GAIN_ADDR 0x70000004" in c_text
        assert "#define MYBLK_CFG_GAIN_WIDTH 8" in c_text
        assert "#ifndef MYBLK_REGS_H" in c_text

    def test_empty_db_guards_and_id_only(self):
        c_text, py_text = emit.emit_sw_views(emit.prepare(RegDb(), CFG, EMPTY_HASH))
        assert c_text.count("_ADDR ") == 2  # BASE_ADDR and ID_ADDR
        assert "MYBLK_ID_ADDR 0x70000000" in c_text
        assert '"id": (0x70000000, 32, "RO"),' in py_text

    def test_offset_order(self):
        db = make_db(cand("cfg_b"), cand("cfg_a"))
        c_text, py_text = emit.emit_sw_views(emit.prepare(db, CFG, db_hash(db)))
        assert c_text.index("CFG_B_ADDR") < c_text.index("CFG_A_ADDR")
        assert py_text.index('"cfg_b"') < py_text.index('"cfg_a"')

    def test_python_view_importable(self, tmp_path):
        _, py_text = emit.emit_sw_views(emit.prepare(GAIN_DB, CFG, db_hash(GAIN_DB)))
        namespace = {}
        exec(py_text, namespace)
        assert namespace["REGISTERS"]["cfg_gain"] == (0x70000004, 8, "RW")

    def test_sanitization(self):
        cfg = EmitConfig(block_name="my_blk2", base_address=0x50000000)
        c_text, _ = emit.emit_sw_views(emit.prepare(GAIN_DB, cfg, db_hash(GAIN_DB)))
        assert "MY_BLK2_CFG_GAIN_ADDR" in c_text

    @settings(max_examples=200, deadline=None)
    @given(db=strategies.tapped_dbs())
    def test_views_match_the_database(self, db):
        """Every active register and the ID register, with address, width
        and access, and every active diagnostic tap with its select code, read
        back from both views; and the database hash."""
        assume(not regdb.validate_db(db))
        c_text, py_text = emit.emit_sw_views(emit.prepare(db, CFG, db_hash(db)))
        base = CFG.base_address
        expected = {regdb.ID_REG_NAME: (base + regdb.ID_REG_OFFSET, 32, "RO")}
        expected.update((e.name, (base + e.offset_bytes, e.width_bits, e.access))
                        for e in db.entries if e.state == regdb.ACTIVE)
        sel = db.entry(regdb.DIAG_SEL)
        taps = {t.name: code for code, t in enumerate(regdb.parse_taps(
            sel.extra.get(regdb.TAPS_COLUMN, "") if sel else "")) if not t.retired}

        namespace = {}
        exec(py_text, namespace)
        assert namespace["BASE_ADDR"] == base
        assert namespace["REGISTERS"] == expected
        assert namespace.get("DIAG_SELECT", {}) == taps
        assert ("DIAG_SELECT" in namespace) == bool(taps)

        defines = dict(re.findall(r"^#define (\w+) (\S+)$", c_text, re.M))
        assert int(defines.pop("MYBLK_BASE_ADDR"), 16) == base
        assert defines == {
            f"MYBLK_{name.upper()}_{field}": value
            for name, (addr, width, _access) in expected.items()
            for field, value in (("ADDR", format_word(addr)), ("WIDTH", str(width)))} | {
            f"MYBLK_DIAG_SEL_{name.upper()}": str(code) for name, code in taps.items()}
        assert dict(re.findall(r"^/\* (\w+): (RW|RO), ", c_text, re.M)) == {
            name: access for name, (_addr, _width, access) in expected.items()}

        banner = f"database hash {format_word(db_hash(db))}"
        assert banner in c_text.splitlines()[1] and banner in py_text.splitlines()[1]

    @settings(max_examples=200, deadline=None)
    @given(db=strategies.reg_dbs())
    def test_markdown_matches_the_database(self, db):
        """The register table has the ID row, then one row per active register
        in offset order, with address, width, access and reset from the database."""
        assume(not regdb.validate_db(db))
        text = emit.emit_markdown(emit.prepare(db, CFG, db_hash(db)))
        table = text.split("|---|---|---|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
        rows = [re.match(r"\| (\w+) \| (0x[0-9a-f]{8}) \| (\d+) \| (RW|RO) \| 0x([0-9a-f]+) \| ",
                         line) for line in table.splitlines()]
        assert None not in rows
        base = CFG.base_address
        expected = [(regdb.ID_REG_NAME, base + regdb.ID_REG_OFFSET, 32, "RO", db_hash(db))]
        expected += [(e.name, base + e.offset_bytes, e.width_bits, e.access, e.reset_value)
                     for e in sorted(db.entries, key=lambda e: e.offset_bytes)
                     if e.state == regdb.ACTIVE]
        assert [(m[1], int(m[2], 16), int(m[3]), m[4], int(m[5], 16)) for m in rows] == expected

    @pytest.mark.parametrize("names, problems", [
        (("cfg_A", "cfg_a"), [("cfg_a", "name differs from cfg_A only in case")]),
        (("ID",), [("ID", "name reserved for the ID register")]),
        (("base",), [("base", "name reserved for the base address")]),
        (("Base",), [("Base", "name reserved for the base address")]),
    ])
    def test_names_whose_c_macros_collide_are_invalid(self, names, problems):
        """The C header would define one macro twice: MYBLK_CFG_A_ADDR, or
        the ID register's MYBLK_ID_ADDR, or MYBLK_BASE_ADDR."""
        db = make_db(*[cand(n) for n in names])
        c_text, _ = emit.emit_sw_views(emit.prepare(db, CFG, db_hash(db)))
        macros = re.findall(r"^#define (\w+) ", c_text, re.M)
        assert len(set(macros)) < len(macros)
        assert [(p.entry, p.message) for p in regdb.validate_db(db)] == problems

    def test_names_whose_c_macros_differ_are_valid(self):
        assert regdb.validate_db(make_db(cand("cfg_a"), cand("cfg_a_"), cand("base_addr"),
                                         cand("idx"), cand("sts_id"))) == []

    def test_register_named_like_the_id_register_is_invalid(self):
        """Both views would carry two 'id' registers: the C header would define
        MYBLK_ID_ADDR twice and the Python dict would keep only one."""
        db = make_db(cand("id"))
        assert [p.message for p in regdb.validate_db(db)] == \
            ["name reserved for the ID register"]


def selftest_steps(db, cfg):
    """(command, expected) of each step of the self-test emit writes."""
    return [(command, expected) for command, expected, _ in
            scan_script(emit.emit_selftest(emit.prepare(db, cfg, db_hash(db))))]


class TestSelftest:
    def test_walking_ones_masked_to_width(self):
        cfg = EmitConfig(block_name="b", base_address=0x50000000)
        steps = selftest_steps(make_db(cand("cfg_a", 4)), cfg)
        cmds = [command for command, _ in steps]
        i = cmds.index("W 0x50000004 0x0000000f")
        assert steps[i + 1][0] == "R 0x50000004"
        assert steps[i + 1][1] == "0x0000000f"

    def test_empty_db_id_step_only(self):
        steps = selftest_steps(RegDb(), CFG)
        assert len(steps) == 1
        assert steps[0][0] == "R 0x70000000"
        assert steps[0][1] == format_word(db_hash(RegDb()))

    def test_ro_entry_write_then_unchanged(self):
        db = make_db(cand("sts_x", 8, "RO"))
        db.entries[0] = db.entries[0]._replace(reset_value=0x42)  # sts_x, the only entry
        steps = selftest_steps(db, CFG)
        writes = [s for s in steps if s[0].startswith("W 0x70000004")]
        assert len(writes) == 1 and writes[0][1] == "OK"
        reads = [s for s in steps if s[0] == "R 0x70000004"]
        assert all(expected == "0x00000042" for _, expected in reads)

    def test_unmapped_probe_present(self):
        steps = selftest_steps(GAIN_DB, CFG)
        assert steps[-1][0] == "R 0x70000008"
        assert steps[-1][1] == format_word(CFG.unmapped_value)


class TestMemmapHeader:
    def test_two_regions(self):
        m = MemoryMap([Region("uart0", "peripheral", 0x40000000, 0x100),
                       Region("csr0", "csr", 0x50000000, 0x1000)])
        text = emit.emit_memmap_header(m)
        params = [l for l in text.splitlines() if l.startswith("parameter logic")]
        assert len(params) == 4
        assert "parameter int unsigned SOC_REGION_COUNT = 2;" in text
        assert text.index("UART0") < text.index("CSR0")

    def test_empty_map(self):
        text = emit.emit_memmap_header(MemoryMap([]))
        assert "SOC_REGION_COUNT = 0;" in text

    def test_overlap_rejected(self):
        with pytest.raises(DataError, match="^regions a and b overlap$"):
            MemoryMap([Region("a", "sram", 0x1000, 0x1000), Region("b", "sram", 0x1800, 0x800)])


ONE_PIN = CFG._replace(diag_pins=1)


def diag_db(width=4, access="RW"):
    db, _ = update_db(RegDb(), [CsrCandidate("cfg_diag_sel", width, access, "myblk_diag_mux")])
    return db


def record_taps(db, taps):
    """db with taps, DiagTap records or names of active ones, as its select register's codes."""
    taps = [t if isinstance(t, DiagTap) else DiagTap(t, "m") for t in taps]
    db.entries[0] = db.entries[0]._replace(extra={regdb.TAPS_COLUMN: regdb.format_taps(taps)})
    db.columns.append(regdb.TAPS_COLUMN)
    return db


def diag_mux(db, cfg, taps):
    db = record_taps(db, taps)
    return emit.emit_diag_mux(emit.prepare(db, cfg, db_hash(db)))


def case_labels(mux: str, pin: int) -> dict[int, str]:
    """Select code -> tap of one pin's case statement."""
    return {int(code): name for code, name in
            re.findall(rf"\d+'d(\d+): pin{pin}_val = (\w+);", mux)}


class TestDiagMux:
    def test_four_signals_two_pins(self):
        text = diag_mux(diag_db(4), CFG, [f"diag_{c}" for c in "abcd"])
        assert "input  logic [3:0] cfg_diag_sel" in text
        assert "case (cfg_diag_sel[1:0])" in text
        assert "case (cfg_diag_sel[3:2])" in text

    def test_single_signal_single_pin_passthrough(self):
        text = diag_mux(diag_db(1), ONE_PIN, ["diag_only"])
        assert "cfg_diag_sel" not in text.split("database hash")[1]
        assert "always_comb pin0_val = diag_only;" in text

    def test_no_recorded_taps_is_error(self):
        db = diag_db()
        with pytest.raises(DataError, match=r"^database records no diagnostic taps \(run update\)$"):
            emit.emit_diag_mux(emit.prepare(db, ONE_PIN, db_hash(db)))

    def test_no_signals_is_error(self):
        """Every tap recorded is retired."""
        with pytest.raises(DataError, match="^diagnostic mux needs at least one signal$"):
            diag_mux(diag_db(), ONE_PIN, [DiagTap("diag_a", "m", True)])

    def test_duplicate_signals_are_an_error(self):
        with pytest.raises(DataError, match="^diagnostic tap diag_a listed twice$"):
            diag_mux(diag_db(), CFG, ["diag_a", "diag_b", "diag_a"])

    def test_signals_differing_only_in_case_are_an_error(self):
        with pytest.raises(DataError, match="^diagnostic tap diag_A differs from diag_a only in case$"):
            diag_mux(diag_db(), CFG, ["diag_a", "diag_A"])

    def test_select_register_too_narrow(self):
        with pytest.raises(DataError, match="^cfg_diag_sel is 2 bits; need 4 for 4 select codes "
                                            "on 2 pins$"):
            diag_mux(diag_db(width=2), CFG, [f"diag_{c}" for c in "abcd"])

    MISSING = r"^database has no active RW cfg_diag_sel \(run update with diag enabled\)$"

    def test_missing_select_register(self):
        with pytest.raises(DataError, match=self.MISSING):
            emit.emit_diag_mux(emit.prepare(RegDb(), CFG, EMPTY_HASH))

    def test_retired_select_register(self):
        db = diag_db()
        db.entries[0] = db.entries[0]._replace(state=RETIRED)
        with pytest.raises(DataError, match=self.MISSING):
            diag_mux(db, CFG, ["diag_a", "diag_b"])

    def test_read_only_select_register(self):
        with pytest.raises(DataError, match=self.MISSING):
            diag_mux(diag_db(access="RO"), CFG, ["diag_a", "diag_b"])

    def test_out_of_range_select_goes_to_zero(self):
        text = diag_mux(diag_db(2), ONE_PIN, [f"diag_{c}" for c in "abc"])
        assert "default: pin0_val = 1'b0;" in text

    def test_retired_tap_keeps_its_code_reserved(self):
        """A retired tap leaves its code to the default; the codes after it stay."""
        text = diag_mux(diag_db(4), CFG, ["diag_a", DiagTap("diag_b", "m", True), "diag_c"])
        assert "diag_b" not in text
        for pin in (0, 1):
            assert case_labels(text, pin) == {0: "diag_a", 2: "diag_c"}

    @settings(max_examples=200, deadline=None)
    @given(retired=st.lists(st.booleans(), min_size=1, max_size=12), pins=st.integers(1, 3))
    def test_case_labels_are_the_database_codes(self, retired, pins):
        assume(not all(retired))
        taps = [DiagTap(f"diag_{i}", f"m{i % 3}", r) for i, r in enumerate(retired)]
        cfg = CFG._replace(diag_pins=pins)
        db = record_taps(diag_db(max(1, regdb.diag_select_bits(taps) * pins)), taps)
        regs = emit.prepare(db, cfg, db_hash(db))
        text = emit.emit_diag_mux(regs)
        codes = {code: t.name for code, t in enumerate(regdb.parse_taps(
            db.entries[0].extra[regdb.TAPS_COLUMN])) if not t.retired}
        if regdb.diag_select_bits(taps):
            assert all(case_labels(text, pin) == codes for pin in range(pins))
        else:
            assert codes == {0: "diag_0"} and "pin0_val = diag_0;" in text


def test_views_list_the_database_select_codes():
    """The C, Python and Markdown views list each active tap at its code, and
    a database with no taps lists none."""
    taps = ["diag_a", DiagTap("diag_b", "m", True), "diag_c"]
    db = record_taps(diag_db(4), taps)
    regs = emit.prepare(db, CFG, db_hash(db))
    c_text, py_text = emit.emit_sw_views(regs)
    namespace = {}
    exec(py_text, namespace)
    md = emit.emit_markdown(regs)
    assert dict(re.findall(r"#define MYBLK_DIAG_SEL_(\w+) (\d+)", c_text)) == \
        {"DIAG_A": "0", "DIAG_C": "2"}
    assert namespace["DIAG_SELECT"] == {"diag_a": 0, "diag_c": 2}
    assert re.findall(r"\| (diag_\w) \| (\d) \| m \| (\w+) \|", md) == \
        [("diag_a", "0", "active"), ("diag_b", "1", "retired"), ("diag_c", "2", "active")]
    bare = emit.prepare(diag_db(4), CFG, 0)
    assert "MYBLK_DIAG_SEL_" not in "".join(emit.emit_sw_views(bare))
    assert "DIAG_SELECT" not in "".join(emit.emit_sw_views(bare))
    assert "Diagnostic select codes" not in emit.emit_markdown(bare)


def test_emit_loads_no_scanner():
    """The emitters render from the database alone."""
    result = subprocess.run([sys.executable, "-c", "import sys, chipkit.emit; "
                             "print(sorted(m for m in sys.modules if m.startswith('chipkit.')))"],
                            capture_output=True, text=True, check=True)
    assert "chipkit.emit" in result.stdout and "chipkit.sv_scan" not in result.stdout


class TestPadScript:
    def test_grouped_and_ordered(self):
        pads = load_pad_db(
            "name,side,order,cell,signal\n"
            "p2,N,2,C,s2\np0,N,0,C,s0\np1,N,1,C,s1\npe,E,0,C,se\n")
        text = emit.emit_pad_script(pads)
        order = [l.split()[1] for l in text.splitlines() if l.startswith("place_pad")]
        assert order == ["p0", "p1", "p2", "pe"]
        assert "place_pad p0 -side N -order 0 -cell C -signal s0" in text

    def test_empty_pad_db_banner_only(self):
        text = emit.emit_pad_script(())
        assert all(l.startswith("#") for l in text.strip().splitlines())

    def test_cells_braced_unless_plain(self):
        """A cell of [A-Za-z0-9_.:-] is written bare, any other in braces: the
        empty one, which would vanish as an argument, and a bus bit, which
        would be a command substitution."""
        pads = load_pad_db("name,side,order,cell,signal\n"
                           "p.0:a-b,N,0,,data[3]\n\"p 1\",N,1,$c,\"s;t\"\n")
        assert emit.emit_pad_script(pads).splitlines()[4:] == [
            "place_pad p.0:a-b -side N -order 0 -cell {} -signal {data[3]}",
            "place_pad {p 1} -side N -order 1 -cell {$c} -signal {s;t}"]

    @pytest.mark.parametrize("char", ["\r", "\x01", "\x7f", "\x9b"])
    @pytest.mark.parametrize("column", ["name", "cell", "signal"])
    def test_cell_braces_cannot_hold_is_refused(self, column, char):
        """Control characters beyond those of the CLI's exit-code table: a CR
        in each column, C0, DEL and C1."""
        cells = {"name": "p0", "side": "N", "order": "0", "cell": "C", "signal": "s0"}
        cells[column] = f"a{char}b"
        text = "name,side,order,cell,signal\n" + ",".join(
            f'"{cell}"' for cell in cells.values()) + "\n"
        with pytest.raises(InputError, match=re.escape(
                f"pad row 2: {column} holds {char!r}, which the pad script cannot quote")):
            load_pad_db(text)

    def test_duplicate_slot_rejected(self):
        with pytest.raises(DataError, match="^pad row 3: duplicate slot N0$"):
            load_pad_db("name,side,order,cell,signal\na,N,0,C,s\nb,N,0,C,t\n")


class TestCrossArtifactConsistency:
    def test_addresses_identical_everywhere(self):
        db = make_db(cand("cfg_a", 8), cand("cfg_b", 16), cand("sts_c", 1, "RO"))
        regs = emit.prepare(db, CFG, db_hash(db))
        rtl = emit.emit_csr_rtl(regs)
        md = emit.emit_markdown(regs)
        c_text, py_text = emit.emit_sw_views(regs)
        selftest = emit.emit_selftest(regs)

        def from_rtl():
            return dict(re.findall(r"// (\w+) @ (0x[0-9a-f]{8}) \((?:RW|RO)", rtl))

        def from_md():
            return {m.group(1): m.group(2) for m in
                    re.finditer(r"\| (\w+) \| (0x[0-9a-f]{8}) \|", md)}

        def from_c():
            return {m.group(1).lower(): m.group(2) for m in
                    re.finditer(r"#define MYBLK_(\w+)_ADDR (0x[0-9a-f]{8})", c_text)}

        def from_py():
            namespace = {}
            exec(py_text, namespace)
            return {n: format_word(a) for n, (a, _, _) in namespace["REGISTERS"].items()}

        def from_selftest():
            # one comment line per step, on the line before it
            comments = [line[2:] for line in selftest.splitlines() if line.startswith("# ")]
            steps = list(scan_script(selftest))
            assert len(comments) == len(steps)
            out = {}
            for comment, (command, _, _) in zip(comments, steps):
                name = comment.split(":")[0]
                if name in ("cfg_a", "cfg_b", "sts_c", "id"):
                    out.setdefault(name, command.split()[1])
            return out

        names = {"cfg_a", "cfg_b", "sts_c"}
        views = [from_rtl(), from_md(), from_c(), from_py(), from_selftest()]
        reference = {n: a for n, a in views[1].items() if n in names}
        assert len(reference) == 3
        for view in views:
            for name in names:
                assert view[name] == reference[name], (name, view)


class TestDeterminismAndClosure:
    def test_render_targets_deterministic(self):
        db = make_db(cand("cfg_a"), cand("sts_b", 1, "RO"))
        m = MemoryMap([Region("csr0", "csr", 0x70000000, 0x1000)])
        db2, _ = update_db(db, [cand("cfg_a"), cand("sts_b", 1, "RO")], config=CFG,
                           taps=[DiagTap("diag_z", "m1")])
        hash32 = db_hash(db2)
        regs = emit.prepare(db2, CFG, hash32)
        first = emit.render_targets(regs, memmap=m, pads=())
        second = emit.render_targets(emit.prepare(db2, CFG, hash32), memmap=m, pads=())
        assert first == second
        assert first[emit.output_name("rtl", CFG)] == emit.emit_csr_rtl(regs)
        assert first[emit.output_name("md", CFG)] == emit.emit_markdown(regs)
        assert set(first) == {"myblk_csr.sv", "myblk_csr_inst.sv", "myblk_regs.md",
                              "myblk_regs.h", "myblk_regs.py", "myblk_selftest.txt",
                              "soc_memmap.svh", "myblk_diag_mux.sv", "pads_place.tcl"}

    # sha256 of each rendered file's name, then its text, in name order, for
    # test_memory_guard's 4,000-register inputs with all nine targets; taken
    # before the emitters rendered one block per register, and moved only when
    # the database recorded the taps: the banner hash, and the select codes
    # that the C, Python and Markdown views list
    SCALE_SHA256 = "70dfea1ee145dda4c2f0d8a0eb026076582556cd512f0c3759ab7941c3fbde86"

    def test_render_targets_at_scale_is_byte_identical(self):
        db, cfg, memmap, pads = _render_inputs()
        out = emit.render_targets(emit.prepare(db, cfg, db_hash(db)), memmap, pads)
        digest = hashlib.sha256()
        for name in sorted(out):
            digest.update(name.encode())
            digest.update(out[name].encode())
        assert (len(out), digest.hexdigest()) == (9, self.SCALE_SHA256)

    def test_memmap_target_needs_a_map(self):
        with pytest.raises(DataError, match="^memmap target needs a memory map file$"):
            emit.render_targets(emit.prepare(GAIN_DB, EmitConfig(targets=("rtl", "memmap")),
                                             db_hash(GAIN_DB)))

    def test_reparse_closure_zero_lint(self):
        db = make_db(cand("cfg_a", 32), cand("cfg_b", 1), cand("sts_c", 7, "RO"))
        rtl_src = SourceFile("csr.sv", emit.emit_csr_rtl(emit.prepare(db, CFG, db_hash(db))))
        diags = []
        assert len(parse_modules(rtl_src, diags)) == 1
        assert diags == []
        assert lint(rtl_src) == []

        mux_src = SourceFile("mux.sv", diag_mux(diag_db(2), CFG, ["diag_a", "diag_b"]))
        mux_diags = []
        assert len(parse_modules(mux_src, mux_diags)) == 1
        assert mux_diags == []
        assert lint(mux_src) == []

    def test_config_validation(self):
        with pytest.raises(DataError, match="^block name '2bad' is not an identifier$"):
            EmitConfig(block_name="2bad")
        with pytest.raises(DataError, match="^region size 0x300 is not a power of two >= 4$"):
            EmitConfig(csr_region_size_bytes=0x300)
        with pytest.raises(DataError, match="^base address not aligned to region size$"):
            EmitConfig(base_address=0x100, csr_region_size_bytes=0x1000)
        with pytest.raises(DataError, match="^unknown targets: bogus$"):
            EmitConfig(targets=("rtl", "bogus"))

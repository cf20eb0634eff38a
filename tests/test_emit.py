import re

import pytest

from chipkit import DataError, emit, regdb, sv_scan
from chipkit.emit import EmitConfig, PadDb, load_pad_db
from chipkit.memmap import MemoryMap, Region
from chipkit.regdb import RETIRED, RegDb, RegEntry, db_hash, update_db
from chipkit.script import format_word
from chipkit.sv_scan import CsrCandidate, DiagCandidate, SourceFile, lint, parse_modules

CFG = EmitConfig(block_name="myblk", base_address=0x70000000, csr_region_size_bytes=0x1000)


def make_db(*cands):
    db, _ = update_db(RegDb(), list(cands))
    return db


def cand(name, width=8, access="RW", origin="m1"):
    return CsrCandidate(name, width, access, origin, 1)


GAIN_DB = make_db(cand("cfg_gain", 8))


def big_db(n=100):
    return make_db(*[cand(f"cfg_r{i:03d}", 8) for i in range(n)])


class TestCsrRtl:
    def test_hundred_entries_over_thousand_lines(self):
        text = emit.emit_csr_rtl(big_db(), CFG)
        assert text.count("\n") > 1000

    def test_empty_db_still_parses(self):
        text = emit.emit_csr_rtl(RegDb(), CFG)
        mods = parse_modules(SourceFile("gen.sv", text))
        assert [m.name for m in mods] == ["myblk_csr"]
        assert f"32'h{db_hash(RegDb()):08x}" in text

    def test_rw_entry_becomes_output_port(self):
        text = emit.emit_csr_rtl(GAIN_DB, CFG)
        mods = parse_modules(SourceFile("gen.sv", text))
        port = {p.name: p for p in mods[0].ports}["cfg_gain"]
        assert (port.direction, port.width_bits) == ("output", 8)

    def test_ro_entry_becomes_input_port(self):
        text = emit.emit_csr_rtl(make_db(cand("sts_done", 1, "RO")), CFG)
        port = {p.name: p for p in parse_modules(SourceFile("g.sv", text))[0].ports}["sts_done"]
        assert (port.direction, port.width_bits) == ("input", 1)

    def test_retired_entries_comment_only(self):
        db, _ = update_db(GAIN_DB, [], scanned_modules={"m1"})
        assert db.entry("cfg_gain").state == RETIRED
        text = emit.emit_csr_rtl(db, CFG)
        assert "retired: cfg_gain" in text
        assert "cfg_gain" not in [p.name for p in parse_modules(SourceFile("g.sv", text))[0].ports]

    def test_reset_value_in_macro(self):
        db = make_db(cand("cfg_mode", 4))
        db.entry("cfg_mode").reset_value = 0x5
        assert "4'h5" in emit.emit_csr_rtl(db, CFG)

    def test_region_too_small(self):
        small = EmitConfig(block_name="b", base_address=0, csr_region_size_bytes=4)
        with pytest.raises(DataError, match=r"^region size 0x4 too small for 1 entries plus "
                                            r"the ID register \(need 0x8\)$"):
            emit.emit_csr_rtl(GAIN_DB, small)

    def test_monotone_line_count(self):
        counts = [emit.emit_csr_rtl(big_db(n), CFG).count("\n") for n in (0, 1, 5, 20)]
        assert counts == sorted(counts) and len(set(counts)) == len(counts)


class TestInstantiation:
    def test_empty_db_bus_ports_only(self):
        text = emit.emit_instantiation_template(RegDb(), CFG)
        pins = re.findall(r"\.(\w+)\s*\(", text)
        assert pins == ["clock", "reset_n", "sel", "wr_en", "addr", "wdata", "rdata", "ready"]

    def test_entries_listed(self):
        text = emit.emit_instantiation_template(make_db(cand("cfg_a"), cand("sts_b", 1, "RO")), CFG)
        assert ".cfg_a" in text and ".sts_b" in text

    def test_parses_inside_wrapper(self):
        inst = emit.emit_instantiation_template(GAIN_DB, CFG)
        wrapper = "module wrap (input logic clock, input logic reset_n);\n" + inst + "\nendmodule\n"
        assert [m.name for m in parse_modules(SourceFile("w.sv", wrapper))] == ["wrap"]


class TestMarkdown:
    def test_absolute_address(self):
        text = emit.emit_markdown(GAIN_DB, CFG)
        assert "| cfg_gain | 0x70000004 | 8 | RW |" in text

    def test_empty_db_id_row_only(self):
        text = emit.emit_markdown(RegDb(), CFG)
        rows = [l for l in text.splitlines() if l.startswith("| ") and "---" not in l
                and not l.startswith("| name")]
        assert len(rows) == 1 and rows[0].startswith("| id | 0x70000000 | 32 | RO |")

    def test_pipe_escaped(self):
        db = make_db(cand("cfg_a"))
        db.entry("cfg_a").description = "bits|fields"
        assert "bits\\|fields" in emit.emit_markdown(db, CFG)

    def test_retired_section(self):
        db, _ = update_db(GAIN_DB, [], scanned_modules={"m1"})
        text = emit.emit_markdown(db, CFG)
        assert "## Retired registers" in text
        assert text.index("cfg_gain") > text.index("Retired")
        assert "Retired" not in emit.emit_markdown(GAIN_DB, CFG)


class TestSwViews:
    def test_c_define_rendering(self):
        c_text, _ = emit.emit_sw_views(GAIN_DB, CFG)
        assert "#define MYBLK_CFG_GAIN_ADDR 0x70000004" in c_text
        assert "#define MYBLK_CFG_GAIN_WIDTH 8" in c_text
        assert "#ifndef MYBLK_REGS_H" in c_text

    def test_empty_db_guards_and_id_only(self):
        c_text, py_text = emit.emit_sw_views(RegDb(), CFG)
        assert c_text.count("_ADDR ") == 2  # BASE_ADDR and ID_ADDR
        assert "MYBLK_ID_ADDR 0x70000000" in c_text
        assert '"id": (0x70000000, 32, "RO"),' in py_text

    def test_offset_order(self):
        c_text, py_text = emit.emit_sw_views(make_db(cand("cfg_b"), cand("cfg_a")), CFG)
        assert c_text.index("CFG_B_ADDR") < c_text.index("CFG_A_ADDR")
        assert py_text.index('"cfg_b"') < py_text.index('"cfg_a"')

    def test_python_view_importable(self, tmp_path):
        _, py_text = emit.emit_sw_views(GAIN_DB, CFG)
        namespace = {}
        exec(py_text, namespace)
        assert namespace["REGISTERS"]["cfg_gain"] == (0x70000004, 8, "RW")

    def test_sanitization(self):
        cfg = EmitConfig(block_name="my_blk2", base_address=0x50000000)
        c_text, _ = emit.emit_sw_views(GAIN_DB, cfg)
        assert "MY_BLK2_CFG_GAIN_ADDR" in c_text


class TestSelftest:
    def test_walking_ones_masked_to_width(self):
        cfg = EmitConfig(block_name="b", base_address=0x50000000)
        sc = emit.emit_selftest(make_db(cand("cfg_a", 4)), cfg)
        cmds = [s.command for s in sc.steps]
        i = cmds.index("W 0x50000004 0x0000000f")
        assert sc.steps[i + 1].command == "R 0x50000004"
        assert sc.steps[i + 1].expected == "0x0000000f"

    def test_empty_db_id_step_only(self):
        sc = emit.emit_selftest(RegDb(), CFG)
        assert len(sc.steps) == 1
        assert sc.steps[0].command == "R 0x70000000"
        assert sc.steps[0].expected == format_word(db_hash(RegDb()))

    def test_ro_entry_write_then_unchanged(self):
        db = make_db(cand("sts_x", 8, "RO"))
        db.entry("sts_x").reset_value = 0x42
        sc = emit.emit_selftest(db, CFG)
        writes = [s for s in sc.steps if s.command.startswith("W 0x70000004")]
        assert len(writes) == 1 and writes[0].expected == "OK"
        reads = [s for s in sc.steps if s.command == "R 0x70000004"]
        assert all(s.expected == "0x00000042" for s in reads)

    def test_unmapped_probe_present(self):
        sc = emit.emit_selftest(GAIN_DB, CFG)
        assert sc.steps[-1].command == "R 0x70000008"
        assert sc.steps[-1].expected == format_word(CFG.unmapped_value)


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
        m = MemoryMap([Region("a", "sram", 0x1000, 0x1000), Region("b", "sram", 0x1800, 0x800)])
        with pytest.raises(DataError, match="^regions a and b overlap$"):
            emit.emit_memmap_header(m)


def diag_db(width=4):
    db, _ = update_db(RegDb(), [CsrCandidate("cfg_diag_sel", width, "RW", "myblk_diag_mux", 0)])
    return db


class TestDiagMux:
    def test_four_signals_two_pins(self):
        diags = [DiagCandidate(f"diag_{c}", "m") for c in "abcd"]
        text = emit.emit_diag_mux(diags, 2, diag_db(4), CFG)
        assert "input  logic [3:0] cfg_diag_sel" in text
        assert "case (cfg_diag_sel[1:0])" in text
        assert "case (cfg_diag_sel[3:2])" in text

    def test_single_signal_single_pin_passthrough(self):
        text = emit.emit_diag_mux([DiagCandidate("diag_only", "m")], 1, diag_db(1), CFG)
        assert "cfg_diag_sel" not in text.split("database hash")[1]
        assert "always_comb pin0_val = diag_only;" in text

    def test_no_signals_is_error(self):
        with pytest.raises(DataError, match="^diagnostic mux needs at least one signal$"):
            emit.emit_diag_mux([], 1, diag_db(), CFG)

    def test_select_register_too_narrow(self):
        diags = [DiagCandidate(f"diag_{c}", "m") for c in "abcd"]
        with pytest.raises(DataError, match="^cfg_diag_sel is 2 bits; need 4 for 4 signals on 2 pins$"):
            emit.emit_diag_mux(diags, 2, diag_db(width=2), CFG)

    def test_missing_select_register(self):
        with pytest.raises(DataError, match=r"^database has no cfg_diag_sel entry "
                                            r"\(run update with diag enabled\)$"):
            emit.emit_diag_mux([DiagCandidate("diag_a", "m")], 2, RegDb(), CFG)

    def test_out_of_range_select_goes_to_zero(self):
        diags = [DiagCandidate(f"diag_{c}", "m") for c in "abc"]
        text = emit.emit_diag_mux(diags, 1, diag_db(2), CFG)
        assert "default: pin0_val = 1'b0;" in text


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
        text = emit.emit_pad_script(PadDb())
        assert all(l.startswith("#") for l in text.strip().splitlines())

    def test_duplicate_slot_rejected(self):
        with pytest.raises(DataError, match="^pad row 3: duplicate slot N0$"):
            load_pad_db("name,side,order,cell,signal\na,N,0,C,s\nb,N,0,C,t\n")


class TestCrossArtifactConsistency:
    def test_addresses_identical_everywhere(self):
        db = make_db(cand("cfg_a", 8), cand("cfg_b", 16), cand("sts_c", 1, "RO"))
        rtl = emit.emit_csr_rtl(db, CFG)
        md = emit.emit_markdown(db, CFG)
        c_text, py_text = emit.emit_sw_views(db, CFG)
        sc = emit.emit_selftest(db, CFG)

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
            out = {}
            for step in sc.steps:
                name = step.comment.split(":")[0]
                if name in ("cfg_a", "cfg_b", "sts_c", "id"):
                    out.setdefault(name, step.command.split()[1])
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
        diags = [DiagCandidate("diag_z", "m1")]
        db2, _ = update_db(db, [cand("cfg_a"), cand("sts_b", 1, "RO"),
                                CsrCandidate("cfg_diag_sel", 2, "RW", "myblk_diag_mux", 0)])
        first = emit.render_targets(db2, CFG, memmap=m, diags=diags, pads=PadDb())
        second = emit.render_targets(db2, CFG, memmap=m, diags=diags, pads=PadDb())
        assert first == second
        assert set(first) == {"myblk_csr.sv", "myblk_csr_inst.sv", "myblk_regs.md",
                              "myblk_regs.h", "myblk_regs.py", "myblk_selftest.txt",
                              "soc_memmap.svh", "myblk_diag_mux.sv", "pads_place.tcl"}

    def test_reparse_closure_zero_lint(self):
        db = make_db(cand("cfg_a", 32), cand("cfg_b", 1), cand("sts_c", 7, "RO"))
        rtl_src = SourceFile("csr.sv", emit.emit_csr_rtl(db, CFG))
        diags = []
        assert len(parse_modules(rtl_src, diags)) == 1
        assert diags == []
        assert lint(rtl_src) == []

        mux_src = SourceFile("mux.sv", emit.emit_diag_mux(
            [DiagCandidate("diag_a", "m"), DiagCandidate("diag_b", "m")], 2, diag_db(2), CFG))
        mux_diags = []
        assert len(parse_modules(mux_src, mux_diags)) == 1
        assert mux_diags == []
        assert lint(mux_src) == []

    def test_config_validation(self):
        with pytest.raises(DataError, match="^block name '2bad' is not an identifier$"):
            EmitConfig(block_name="2bad").validate()
        with pytest.raises(DataError, match="^region size 0x300 is not a power of two >= 4$"):
            EmitConfig(csr_region_size_bytes=0x300).validate()
        with pytest.raises(DataError, match="^base address not aligned to region size$"):
            EmitConfig(base_address=0x100, csr_region_size_bytes=0x1000).validate()
        with pytest.raises(DataError, match="^unknown targets: bogus$"):
            EmitConfig(targets=("rtl", "bogus")).validate()


class TestOneHashPerRender:
    @pytest.fixture
    def hash_calls(self, monkeypatch):
        calls = []
        real = regdb.db_hash

        def counting(db):
            calls.append(db)
            return real(db)

        monkeypatch.setattr(regdb, "db_hash", counting)
        return calls

    def _full_render(self):
        db = make_db(cand("cfg_a"), cand("sts_b", 1, "RO"),
                     CsrCandidate("cfg_diag_sel", 2, "RW", "myblk_diag_mux", 0))
        m = MemoryMap([Region("csr0", "csr", 0x70000000, 0x1000)])
        return db, emit.render_targets(db, CFG, memmap=m, diags=[DiagCandidate("diag_z", "m1")],
                                       pads=PadDb())

    def test_render_targets_hashes_once(self, hash_calls):
        db, out = self._full_render()
        assert len(out) == len(emit.ALL_TARGETS)
        assert hash_calls == [db]

    def test_render_matches_direct_emitters(self, hash_calls):
        db, out = self._full_render()
        assert out[emit.output_name("rtl", CFG)] == emit.emit_csr_rtl(db, CFG)
        assert out[emit.output_name("md", CFG)] == emit.emit_markdown(db, CFG)
        assert len(hash_calls) == 3  # called directly, each emitter hashes for itself

    def test_no_hash_without_hashing_target(self, hash_calls):
        cfg = EmitConfig(block_name="myblk", base_address=0x70000000, targets=("pads",))
        emit.render_targets(GAIN_DB, cfg)
        assert hash_calls == []

    def test_config_errors_precede_the_hash(self, hash_calls):
        # an unallocated entry makes db_hash itself raise DataError
        db = RegDb(entries=[RegEntry("cfg_a", 8, "RW"), RegEntry("cfg_b", 8, "RW")])
        small = EmitConfig(block_name="myblk", base_address=0x70000000, csr_region_size_bytes=8)
        with pytest.raises(DataError, match=r"^region size 0x8 too small for 2 entries plus "
                                            r"the ID register \(need 0xc\)$"):
            emit.render_targets(db, small)
        with pytest.raises(DataError, match="^memmap target needs a memory map file$"):
            emit.render_targets(db, EmitConfig(targets=("memmap", "rtl")))
        with pytest.raises(DataError, match="^entry cfg_a has no offset; allocate before saving$"):
            emit.render_targets(db, EmitConfig(targets=("md",)))
        assert len(hash_calls) == 1

import csv
import gc
import hashlib
import io
import os
import re
import shutil
import socket
import stat
import subprocess
import sys
import threading
import weakref
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import argv_oracle
from chipkit import InputError, cli, regdb, sv_scan
from chipkit.cli import main


def run(argv, cwd=None, monkeypatch=None):
    return main(argv)


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture
def proj(project_dir, monkeypatch):
    monkeypatch.chdir(project_dir)
    monkeypatch.setenv(cli.CONFIG_ENV, str(project_dir / "chipkit.cfg"))
    return project_dir


class TestGolden:
    """Byte identity of the fixture project's outputs. The digests were taken
    before the scanner, merge and render paths were optimized; a change that
    alters any of them changes what users get, not only how fast. They moved
    once, when the database recorded the diagnostic taps: regs.csv gained its
    diag_taps column, the report its tap lines, and the tree a new database
    hash and the select codes of the C, Python and Markdown views."""

    TREE_SHA256 = "25f8be73da10eda7121e39f43e669fdeb04f68348a3bfb078e324038fac77e6d"
    REGS_SHA256 = "de7b7bd7eb096881de0fcdeed590f2386b374a1ccf21acbb12c08f506783ee50"
    REPORT_SHA256 = "4a9159519fbdefec0a35ad22beabe39dd1b1e04551fb6b7a2d21bdd154be9755"

    def test_update_and_generate_are_byte_identical(self, proj, capsys):
        assert main(["update"]) == 0
        report = capsys.readouterr().out
        assert main(["generate", "--out", "gen"]) == 0
        assert hashlib.sha256(report.encode()).hexdigest() == self.REPORT_SHA256
        assert hashlib.sha256((proj / "regs.csv").read_bytes()).hexdigest() == self.REGS_SHA256
        assert tree_digest(proj / "gen") == self.TREE_SHA256


class TestUpdate:
    def test_fresh_scan_creates_db(self, proj, capsys):
        assert main(["update"]) == 0
        out = capsys.readouterr().out
        db = regdb.load_db((proj / "regs.csv").read_text())
        # 12 scanned candidates plus the generated diag select register
        assert len(db.entries) == 13
        assert "added:" in out and "cfg_gain" in out
        rw = [e for e in db.entries if e.access == "RW"]
        ro = [e for e in db.entries if e.access == "RO"]
        assert (len(rw), len(ro)) == (9, 4)
        assert db.entry("cfg_diag_sel").width_bits == 4  # 3 signals, 2 pins

    def test_rerun_no_changes_byte_identical(self, proj, capsys):
        assert main(["update"]) == 0
        before = (proj / "regs.csv").read_bytes()
        assert main(["update"]) == 0
        assert "no changes" in capsys.readouterr().out
        assert (proj / "regs.csv").read_bytes() == before

    def test_rerun_no_changes_replaces_nothing(self, proj):
        assert main(["update"]) == 0
        regs = proj / "regs.csv"
        os.utime(regs, ns=(10**18, 10**18))  # a time that no write now gives a file
        before = (regs.stat().st_mtime_ns, regs.stat().st_ino)
        assert main(["update"]) == 0
        assert (regs.stat().st_mtime_ns, regs.stat().st_ino) == before

    def test_rerun_rewrites_crlf_endings_as_lf(self, proj, capsys):
        """Bytes decide what is unchanged: a CRLF database, which the one-pass
        reader declines, is rewritten in save_db's LF form."""
        assert main(["update"]) == 0
        regs = proj / "regs.csv"
        canonical = regs.read_bytes()
        regs.write_bytes(canonical.replace(b"\n", b"\r\n"))
        assert main(["update"]) == 0
        assert "no changes" in capsys.readouterr().out
        assert regs.read_bytes() == canonical

    @staticmethod
    def _refuse_replace(monkeypatch):
        def refused(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(os, "replace", refused)

    def test_failed_write_leaves_no_trace(self, proj, monkeypatch, capsys):
        self._refuse_replace(monkeypatch)
        before = sorted(proj.rglob("*"))
        assert main(["update", "--db", "new/sub/regs.csv"]) == 2
        assert capsys.readouterr().err == "error: replace refused\n"
        assert not (proj / "new").exists()
        assert sorted(proj.rglob("*")) == before  # no .regs.csv.* temp file either

    def test_failed_write_keeps_the_database(self, proj, monkeypatch):
        assert main(["update"]) == 0
        regs = proj / "regs.csv"
        regs.chmod(0o640)
        before = regs.read_bytes()
        _edit(proj, "rtl/timer_unit.sv", "[3:0]  cfg_prescale", "[4:0]  cfg_prescale")
        self._refuse_replace(monkeypatch)
        assert main(["update"]) == 2
        assert regs.read_bytes() == before
        assert stat.S_IMODE(regs.stat().st_mode) == 0o640
        assert not list(proj.glob(".regs.csv.*"))

    def test_conflict_leaves_db_untouched(self, proj):
        assert main(["update"]) == 0
        db = regdb.load_db((proj / "regs.csv").read_text())
        # retired with opposite access -> conflict on rescan
        db.entries = [e._replace(state=regdb.RETIRED, access="RO") if e.name == "cfg_gain" else e
                      for e in db.entries]
        (proj / "regs.csv").write_text(regdb.save_db(db))
        before = (proj / "regs.csv").read_bytes()
        assert main(["update"]) == 3
        assert (proj / "regs.csv").read_bytes() == before

    def test_conflict_with_blank_offset_exits_3_without_traceback(self, proj):
        assert main(["update"]) == 0
        rows = list(csv.reader(io.StringIO((proj / "regs.csv").read_text())))
        cols = {name: i for i, name in enumerate(rows[0])}
        for row in rows[1:]:
            if row[cols["name"]] == "cfg_gain":  # RW in the RTL
                row[cols["access"]], row[cols["offset"]], row[cols["state"]] = "RO", "", "retired"
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        (proj / "regs.csv").write_text(out.getvalue())
        result = subprocess.run([sys.executable, "-m", "chipkit", "update"],
                                capture_output=True, text=True, cwd=proj)
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: candidate cfg_gain (RW) collides")
        assert "offset unallocated" in result.stderr

    def test_missing_rtl_path_is_io_error(self, proj):
        assert main(["update", "--rtl", "no_such_dir"]) == 2

    def test_malformed_source_exit_2(self, proj):
        (proj / "rtl" / "broken.sv").write_text("module oops (input logic a);\n")
        assert main(["update"]) == 2

    def test_directory_named_like_source_is_not_read(self, proj, capsys):
        (proj / "rtl" / "ip.sv").mkdir()
        assert main(["update"]) == 0
        assert "Is a directory" not in capsys.readouterr().err
        assert len(regdb.load_db((proj / "regs.csv").read_text()).entries) == 13

    def test_notes_on_the_second_module_of_a_file(self, proj, capsys):
        """The notes of a module are numbered on from the module before it in
        the same file, at each port's direction keyword."""
        (proj / "rtl" / "pair.sv").write_text(
            "// a clean module, then one with irregular ports\n"
            "module pair_a (\n"
            "  input  logic [3:0] cfg_one,\n"
            "  output logic       sts_one\n"
            ");\n"
            "endmodule\n"
            "\n"
            "module pair_b #(parameter int W = 4) (\n"
            "  input  logic [7:0]   cfg_two,\n"
            "  input  logic         cfg_two,\n"
            "  input  logic [W-1:0] cfg_wide,\n"
            "  output logic [0:3]   sts_flip,\n"
            "  output logic         sts_arr [2],\n"
            "  output\n"
            "    logic              cfg_out,\n"
            "  output logic         diag_pair\n"
            ");\n"
            "endmodule\n")
        assert main(["update"]) == 0
        path = proj / "rtl" / "pair.sv"
        assert capsys.readouterr().err.splitlines() == [
            f"note: {path}:8: [Skip] parameter list of pair_b skipped",
            f"note: {path}:10: [Skip] duplicate port name cfg_two in pair_b",
            f"note: {path}:11: [Skip] non-literal packed range on port cfg_wide in pair_b",
            f"note: {path}:12: [Skip] non-literal packed range on port sts_flip in pair_b",
            f"note: {path}:13: [Skip] unpacked array port sts_arr in pair_b skipped",
            f"note: {path}:14: [DirectionMismatch] cfg_out in pair_b: expected input, found output",
        ]

    def test_names_differing_only_in_case_exit_3_nothing_written(self, proj, capsys):
        """update writes no database that generate and run-test would reject."""
        assert main(["update"]) == 0
        before = (proj / "regs.csv").read_bytes()
        (proj / "rtl" / "case_a.sv").write_text(
            "module case_a (input logic [3:0] cfg_A);\nendmodule\n")
        (proj / "rtl" / "case_b.sv").write_text(
            "module case_b (input logic [3:0] cfg_a);\nendmodule\n")
        capsys.readouterr()
        assert main(["update"]) == 3
        assert capsys.readouterr().err == (
            "error: cfg_a: name differs from cfg_A only in case\n"
            f"error: database {proj / 'regs.csv'} failed validation\n")
        assert (proj / "regs.csv").read_bytes() == before
        assert main(["generate"]) == 0

    def test_duplicate_diag_taps_exit_3_nothing_written(self, proj, capsys):
        assert main(["update"]) == 0
        before = (proj / "regs.csv").read_bytes()
        (proj / "rtl" / "tap_a.sv").write_text("module tap_a (output logic diag_x);\nendmodule\n")
        (proj / "rtl" / "tap_b.sv").write_text("module tap_b (output logic diag_x);\nendmodule\n")
        capsys.readouterr()
        assert main(["update"]) == 3
        assert capsys.readouterr().err == "error: duplicate diagnostic signal names across modules\n"
        assert (proj / "regs.csv").read_bytes() == before

    @pytest.mark.parametrize("state", ["active", "retired"], ids=["kept", "reactivated"])
    def test_entry_past_the_region_exit_3_nothing_written(self, proj, capsys, state):
        """update writes no entry outside the csr region, whether the scan
        keeps it or brings it back: generate would refuse the database."""
        assert main(["update"]) == 0
        _edit(proj, "regs.csv", "0x34,demo_diag_mux,,active", f"0x2000,demo_diag_mux,,{state}")
        before = (proj / "regs.csv").read_bytes()
        capsys.readouterr()
        assert main(["update"]) == 3
        assert capsys.readouterr().err == \
            "error: entry cfg_diag_sel at offset 0x2000 falls outside the region\n"
        assert (proj / "regs.csv").read_bytes() == before

    def test_flags_override_config(self, proj):
        assert main(["update", "--db", "alt.csv", "--targets", "rtl"]) == 0
        db = regdb.load_db((proj / "alt.csv").read_text())
        assert db.entry("cfg_diag_sel") is None  # diag target disabled
        assert len(db.entries) == 12


def _mux_cases(proj) -> dict[int, str]:
    """Select code -> tap of pin 0 of the generated diagnostic mux."""
    mux = (proj / "gen" / "demo_diag_mux.sv").read_text()
    return {int(code): name for code, name in re.findall(r"\d+'d(\d+): pin0_val = (\w+);", mux)}


def _mux_body(proj) -> str:
    """The generated diagnostic mux without its banner, which carries the database hash."""
    return (proj / "gen" / "demo_diag_mux.sv").read_text().split(" database hash ", 1)[1][11:]


def _crc(proj) -> int:
    return zlib.crc32((proj / "regs.csv").read_bytes())


FIXTURE_CODES = {0: "diag_fsm_idle", 1: "diag_overflow", 2: "diag_tick"}


class TestDiagTaps:
    """update records each diagnostic tap's select code in regs.csv, and
    generate renders the mux from those codes alone."""

    def test_tap_added_ahead_of_the_others_takes_the_next_code(self, proj, capsys):
        assert main(["update"]) == 0
        assert main(["generate"]) == 0
        assert _mux_cases(proj) == FIXTURE_CODES
        before = _crc(proj)
        _edit(proj, "rtl/dsp_core.sv", "  output logic        diag_fsm_idle,",
              "  output logic        diag_aaa_new,\n  output logic        diag_fsm_idle,")
        capsys.readouterr()
        assert main(["update"]) == 0
        assert capsys.readouterr().out == "tap added: diag_aaa_new (code 3)\nunchanged: 13\n"
        assert _crc(proj) != before
        assert main(["generate"]) == 0
        assert _mux_cases(proj) == {**FIXTURE_CODES, 3: "diag_aaa_new"}
        assert f"rdata_next = 32'h{_crc(proj):08x};  // id" in \
            (proj / "gen" / "demo_csr.sv").read_text()

    # (file, old text, new text): each edit changes the taps update finds
    EDITS = [
        ("rtl/dsp_core.sv", "diag_overflow,", "diag_ovf,"),  # renamed: retired and added
        ("rtl/timer_unit.sv", "diag_tick,", "diag_tock,"),
        ("rtl/timer_unit.sv", "diag_tock,", "diag_tick,"),  # back at its old code
        ("rtl/io_ctrl.sv", "module io_ctrl (", "module io_ctrl (\n  output logic diag_io,"),
        ("rtl/dsp_core.sv", "diag_ovf,", "diag_overflow,"),
    ]

    def test_every_mux_change_changes_the_database_crc(self, proj):
        assert main(["update"]) == 0
        assert main(["generate"]) == 0
        for name, old, new in self.EDITS:
            body, crc = _mux_body(proj), _crc(proj)
            _edit(proj, name, old, new)
            assert main(["update"]) == 0
            assert main(["generate"]) == 0
            assert _mux_body(proj) != body and _crc(proj) != crc, (name, new)
        assert _mux_cases(proj) == {0: "diag_fsm_idle", 1: "diag_overflow", 2: "diag_tick",
                                    5: "diag_io"}
        taps = regdb.parse_taps(next(row[regdb.TAPS_COLUMN] for row in csv.DictReader(
            io.StringIO((proj / "regs.csv").read_text())) if row["name"] == regdb.DIAG_SEL))
        assert [(t.name, t.retired) for t in taps] == [
            ("diag_fsm_idle", False), ("diag_overflow", False), ("diag_tick", False),
            ("diag_ovf", True), ("diag_tock", True), ("diag_io", False)]

    def test_retired_tap_comes_back_at_its_code(self, proj, fixtures_dir, capsys):
        assert main(["update"]) == 0
        _edit(proj, "rtl/dsp_core.sv", "  output logic        diag_overflow,\n", "")
        _edit(proj, "rtl/dsp_core.sv", "always_comb diag_overflow = acc[31];\n", "")
        capsys.readouterr()
        assert main(["update"]) == 0
        assert capsys.readouterr().out == "tap retired: diag_overflow (code 1)\nunchanged: 13\n"
        assert main(["generate"]) == 0
        assert _mux_cases(proj) == {0: "diag_fsm_idle", 2: "diag_tick"}
        assert "DEMO_DIAG_SEL_DIAG_OVERFLOW" not in (proj / "gen" / "demo_regs.h").read_text()
        shutil.copy(fixtures_dir / "rtl" / "dsp_core.sv", proj / "rtl" / "dsp_core.sv")
        capsys.readouterr()
        assert main(["update"]) == 0
        assert capsys.readouterr().out == \
            "tap reactivated: diag_overflow (code 1)\nunchanged: 13\n"
        assert main(["generate"]) == 0
        assert _mux_cases(proj) == FIXTURE_CODES

    def test_database_without_taps_takes_the_scan_order(self, proj, capsys):
        """A regs.csv from before the taps were recorded: generate asks for an
        update, and the first update gives the taps the codes of the scan order."""
        assert main(["update"]) == 0
        assert main(["generate"]) == 0
        fresh, body = (proj / "regs.csv").read_text(), _mux_body(proj)
        old = "".join(line.rsplit(",", 1)[0] + "\n" for line in fresh.splitlines())
        (proj / "regs.csv").write_text(old)
        before = tree_digest(proj / "gen")
        capsys.readouterr()
        assert main(["generate"]) == 3
        assert capsys.readouterr().err == \
            "error: database records no diagnostic taps (run update)\n"
        assert tree_digest(proj / "gen") == before
        assert main(["update"]) == 0
        assert capsys.readouterr().out == "".join(
            f"tap added: {name} (code {code})\n" for code, name in FIXTURE_CODES.items()) + \
            "unchanged: 13\n"
        assert (proj / "regs.csv").read_text() == fresh
        assert main(["generate"]) == 0
        assert _mux_body(proj) == body

    def test_database_that_never_held_a_tap_has_no_column(self, proj):
        assert main(["update", "--targets", "rtl,md"]) == 0
        assert (proj / "regs.csv").read_text().startswith(",".join(regdb.CANONICAL_COLUMNS) + "\n")
        assert main(["update"]) == 0
        header = (proj / "regs.csv").read_text().split("\n", 1)[0]
        assert header == ",".join(regdb.CANONICAL_COLUMNS) + ",diag_taps"

    def test_generate_reads_no_rtl(self, proj):
        assert main(["update"]) == 0
        shutil.rmtree(proj / "rtl")
        assert main(["generate"]) == 0
        assert tree_digest(proj / "gen") == TestGolden.TREE_SHA256


class TestCandidateExtraction:
    """generate renders the diag mux from the database alone; only update
    needs register candidates."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = sv_scan.extract_csr_candidates

        def counting(module, *args, **kwargs):
            calls.append(module.name)
            return real(module, *args, **kwargs)

        monkeypatch.setattr(sv_scan, "extract_csr_candidates", counting)
        return calls

    def test_update_extracts_once_per_module(self, proj, calls):
        assert main(["update"]) == 0
        assert sorted(calls) == ["dsp_core", "io_ctrl", "timer_unit"]

    def test_generate_extracts_none(self, proj, calls):
        assert main(["update"]) == 0
        calls.clear()
        assert main(["generate"]) == 0
        assert (proj / "gen" / "demo_diag_mux.sv").exists()
        assert calls == []


class TestGenerate:
    def test_all_targets(self, proj):
        assert main(["update"]) == 0
        assert main(["generate"]) == 0
        names = {p.name for p in (proj / "gen").iterdir()}
        assert names == {"demo_csr.sv", "demo_csr_inst.sv", "demo_regs.md", "demo_regs.h",
                         "demo_regs.py", "demo_selftest.txt", "soc_memmap.svh",
                         "demo_diag_mux.sv", "pads_place.tcl"}

    def test_subset_targets_exact_files(self, proj):
        assert main(["update"]) == 0
        assert main(["generate", "--targets", "rtl,md", "--out", "two"]) == 0
        assert {p.name for p in (proj / "two").iterdir()} == {"demo_csr.sv", "demo_regs.md"}

    def test_crlf_pad_file_places_the_same_pads(self, proj, capsys):
        """pads.csv is read without newline translation; csv still ends each
        CRLF row where an LF ends it."""
        assert main(["update"]) == 0
        assert main(["generate", "--targets", "pads"]) == 0
        script = (proj / "gen" / "pads_place.tcl").read_bytes()
        pads = proj / "pads.csv"
        pads.write_bytes(pads.read_bytes().replace(b"\n", b"\r\n"))
        capsys.readouterr()
        assert main(["generate", "--targets", "pads"]) == 0
        assert capsys.readouterr().out == f"unchanged {proj / 'gen' / 'pads_place.tcl'}\n"
        assert (proj / "gen" / "pads_place.tcl").read_bytes() == script

    def test_invalid_db_exit_3_nothing_written(self, proj):
        assert main(["update"]) == 0
        text = (proj / "regs.csv").read_text()
        (proj / "regs.csv").write_text(text.replace("0x4,dsp_core", "0x8,dsp_core", 1))
        before = tree_digest(proj / "gen") if (proj / "gen").exists() else None
        assert main(["generate"]) == 3
        after = tree_digest(proj / "gen") if (proj / "gen").exists() else None
        assert before == after

    def test_failed_render_replaces_nothing(self, proj, capsys):
        # a database without cfg_diag_sel: the diag target fails after rtl
        # through memmap have rendered
        assert main(["update", "--targets", "rtl"]) == 0
        assert main(["generate", "--targets", "rtl,md,c"]) == 0
        gen = proj / "gen"
        (gen / "demo_regs.md").chmod(0o640)
        modes = {p.name: p.stat().st_mode for p in gen.iterdir()}  # no .<name>.* temp file
        before = tree_digest(gen)
        capsys.readouterr()
        assert main(["generate"]) == 3
        assert capsys.readouterr().err.startswith(
            "error: database has no active RW cfg_diag_sel (run update with diag enabled)")
        assert tree_digest(gen) == before
        assert {p.name: p.stat().st_mode for p in gen.iterdir()} == modes

    def test_retired_select_register_replaces_nothing(self, proj, capsys):
        """A mux is never rendered with a select input the register block lacks."""
        assert main(["update"]) == 0
        assert main(["generate"]) == 0
        before = tree_digest(proj / "gen")
        assert main(["update", "--targets", "rtl,md"]) == 0
        assert "retired: cfg_diag_sel" in capsys.readouterr().out
        assert main(["generate"]) == 3
        assert capsys.readouterr().err.startswith(
            "error: database has no active RW cfg_diag_sel (run update with diag enabled)")
        assert tree_digest(proj / "gen") == before

    def test_failed_render_makes_no_directory(self, proj):
        assert main(["update", "--targets", "rtl"]) == 0
        assert main(["generate", "--out", "a/b/gen"]) == 3
        assert not (proj / "a").exists()

    def test_no_targets_make_no_directory(self, proj, capsys):
        assert main(["update"]) == 0
        capsys.readouterr()
        assert main(["generate", "--targets", "", "--out", "none/gen"]) == 0
        assert capsys.readouterr().out == ""
        assert not (proj / "none").exists()

    def test_rendered_lengths_add_up_to_the_written_text(self, proj, monkeypatch):
        """What the benchmark's traced launcher reads: emit.bytes_out is the
        summed lengths of render_targets' results, and emit_sw_views renders
        the C and Python views in one call."""
        from chipkit import emit
        assert main(["update"]) == 0
        render, sw_views = emit.render_targets, emit.emit_sw_views
        lengths, sw_calls = [], []

        def measured_render(*args, **kwargs):
            out = render(*args, **kwargs)
            lengths.append(sum(len(text) for text in out.values()))
            return out

        def counted_sw_views(*args):
            sw_calls.append(args)
            return sw_views(*args)

        monkeypatch.setattr(emit, "render_targets", measured_render)
        monkeypatch.setattr(emit, "emit_sw_views", counted_sw_views)
        assert main(["generate"]) == 0
        written = [p.read_text(encoding="utf-8") for p in (proj / "gen").iterdir()]
        assert len(written) == 9
        assert sum(lengths) == sum(map(len, written))
        assert len(sw_calls) == 1

    @staticmethod
    def _files(gen: Path) -> dict:
        return {p.name: (p.stat().st_mtime_ns, p.stat().st_ino) for p in gen.iterdir()}

    @staticmethod
    def _reported(out: str) -> dict:
        """Output name -> the word generate printed for it, in printed order."""
        return {Path(path).name: word for word, path in (line.split(" ", 1)
                                                         for line in out.splitlines())}

    def test_repeat_generate_replaces_no_output(self, proj, capsys):
        assert main(["update"]) == 0
        assert main(["generate"]) == 0
        gen = proj / "gen"
        for path in gen.iterdir():  # a time that no write now gives a file
            os.utime(path, ns=(10**18, 10**18))
        before = self._files(gen)
        capsys.readouterr()
        assert main(["generate"]) == 0
        assert self._files(gen) == before
        reported = self._reported(capsys.readouterr().out)
        assert list(reported) == sorted(before)
        assert set(reported.values()) == {"unchanged"}

    def test_database_edit_replaces_only_the_outputs_that_change(self, proj, capsys):
        assert main(["update"]) == 0
        assert main(["generate"]) == 0
        gen = proj / "gen"
        for path in gen.iterdir():
            os.utime(path, ns=(10**18, 10**18))
        before = self._files(gen)
        old = {p.name: p.read_bytes() for p in gen.iterdir()}
        _edit(proj, "regs.csv", "0x4,dsp_core,,active", "0x4,dsp_core,gain stage,active")
        assert main(["generate", "--out", "fresh"]) == 0
        new = {p.name: p.read_bytes() for p in (proj / "fresh").iterdir()}
        changed = {name for name in new if new[name] != old[name]}
        # the database hash is in every artifact but the map header and pad script
        assert changed == set(new) - {"soc_memmap.svh", "pads_place.tcl"}
        capsys.readouterr()
        assert main(["generate"]) == 0
        after = self._files(gen)
        assert {name for name in after if after[name] != before[name]} == changed
        assert {p.name: p.read_bytes() for p in gen.iterdir()} == new
        reported = self._reported(capsys.readouterr().out)
        assert list(reported) == sorted(new)
        assert reported == {name: "wrote" if name in changed else "unchanged" for name in new}

    def test_deterministic_tree(self, proj):
        assert main(["update"]) == 0
        assert main(["generate", "--out", "gen1"]) == 0
        assert main(["generate", "--out", "gen2"]) == 0
        assert tree_digest(proj / "gen1") == tree_digest(proj / "gen2")

    def test_map_mismatch_rejected(self, proj):
        assert main(["update"]) == 0
        assert main(["generate", "--base", "0x70000000"]) == 3

    def test_map_checked_for_every_target(self, proj, capsys):
        """A configured map is checked without the memmap target: the C header
        and the self-test would otherwise hold addresses the map leaves unmapped."""
        assert main(["update"]) == 0
        capsys.readouterr()
        assert main(["generate", "--base", "0x70000000", "--targets", "rtl,test,c"]) == 3
        assert capsys.readouterr().err == \
            "error: memory map has no csr region matching base 0x70000000 size 0x1000\n"
        assert not (proj / "gen").exists()

    @pytest.mark.parametrize("targets", ["c", "md,py", "inst", "diag", "pads", ""])
    def test_entry_past_the_region_refused_for_every_target(self, proj, capsys, targets):
        """The region check runs in emit.prepare, whatever the targets: the C
        header wrote the entry's address past the region's end."""
        assert main(["update"]) == 0
        _edit(proj, "regs.csv", "0x34,demo_diag_mux", "0x2000,demo_diag_mux")
        capsys.readouterr()
        assert main(["generate", "--targets", targets]) == 3
        assert capsys.readouterr().err == \
            "error: entry cfg_diag_sel at offset 0x2000 falls outside the region\n"
        assert not (proj / "gen").exists()

    def test_generated_rtl_lints_clean(self, proj):
        assert main(["update"]) == 0
        assert main(["generate"]) == 0
        assert main(["lint", str(proj / "gen" / "demo_csr.sv"),
                     str(proj / "gen" / "demo_diag_mux.sv")]) == 0


class TestWriteOutputs:
    def test_each_batch_is_dropped_before_the_next_is_made(self, tmp_path):
        class Batch(dict):  # unlike a dict, weakly referable
            pass

        made = []

        def batches():
            for i in range(3):
                assert all(ref() is None for ref in made), "an earlier batch is still held"
                batch = Batch({f"out{i}.txt": f"text {i}\n"})
                made.append(weakref.ref(batch))
                yield batch
                del batch

        changed = cli._write_outputs(tmp_path / "gen", batches())
        assert changed == {"out0.txt": True, "out1.txt": True, "out2.txt": True}
        assert (tmp_path / "gen" / "out2.txt").read_text() == "text 2\n"

    def test_each_file_holds_its_texts_utf8_bytes(self, tmp_path):
        """No newline is translated, and a second write of the same texts replaces nothing."""
        texts = {"crlf.txt": "a\r\nb\rc\n", "utf8.txt": "é ü\n", "empty.txt": ""}
        for changed in (True, False):
            assert cli._write_outputs(tmp_path, [texts]) == dict.fromkeys(texts, changed)
            assert {n: (tmp_path / n).read_bytes() for n in texts} == \
                {n: t.encode("utf-8") for n, t in texts.items()}

    # texts around the slice boundary: one slice, one slice and a character,
    # and a two- or four-byte character as the last of the first slice
    SLICED = {"one-slice": "a" * cli._SLICE, "one-slice-and-1": "a" * cli._SLICE + "b",
              "2-byte-at-the-edge": "a" * (cli._SLICE - 1) + "é" + "z" * cli._SLICE,
              "4-byte-at-the-edge": "a" * (cli._SLICE - 1) + "\U0001f600" + "z\n"}

    @pytest.mark.parametrize("text", SLICED.values(), ids=SLICED)
    def test_sliced_text_keeps_its_bytes(self, tmp_path, text):
        for changed in (True, False):
            assert cli._write_outputs(tmp_path, [{"out.txt": text}]) == {"out.txt": changed}
            assert (tmp_path / "out.txt").read_bytes() == text.encode("utf-8")

    # ASCII texts are told apart by size; the others only byte by byte
    ENDS = {"ascii": "abc\n", "utf8": "é ü\n", "ascii-slices": "a" * (2 * cli._SLICE),
            "utf8-slices": "é" * (cli._SLICE + 1)}

    @pytest.mark.parametrize("text", ENDS.values(), ids=ENDS)
    @pytest.mark.parametrize("old", [lambda data: data + b"\n", lambda data: data[:-1]],
                             ids=["one-byte-more", "one-byte-less"])
    def test_old_file_off_by_one_byte_is_rewritten(self, tmp_path, text, old):
        data = text.encode("utf-8")
        (tmp_path / "out.txt").write_bytes(old(data))
        assert cli._write_outputs(tmp_path, [{"out.txt": text}]) == {"out.txt": True}
        assert (tmp_path / "out.txt").read_bytes() == data

    @pytest.mark.parametrize("text", ENDS.values(), ids=ENDS)
    def test_file_holding_the_bytes_is_left_alone(self, tmp_path, text):
        path = tmp_path / "out.txt"
        path.write_bytes(text.encode("utf-8"))
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        before = path.stat()
        assert cli._write_outputs(tmp_path, [{"out.txt": text}]) == {"out.txt": False}
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert sorted(tmp_path.iterdir()) == [path]


class TestFileModes:
    """A written file gets the mode open() would give it, and a rewritten one
    keeps its own: mkstemp's 0600 never reaches an output."""

    @pytest.fixture(autouse=True)
    def umask_022(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    def test_new_outputs_follow_the_umask(self, proj):
        assert main(["update"]) == 0
        assert main(["generate"]) == 0
        for path in [proj / "regs.csv", *(proj / "gen").iterdir()]:
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name

    def test_an_update_keeps_the_database_mode(self, proj):
        assert main(["update"]) == 0
        regs = proj / "regs.csv"
        regs.chmod(0o640)
        before = regs.read_bytes()
        _edit(proj, "rtl/timer_unit.sv", "[3:0]  cfg_prescale", "[4:0]  cfg_prescale")
        assert main(["update"]) == 0
        assert regs.read_bytes() != before
        assert stat.S_IMODE(regs.stat().st_mode) == 0o640


class TestLint:
    def test_clean_corpus(self, proj):
        assert main(["lint", "rtl"]) == 0

    def test_seeded_violations(self, fixtures_dir, capsys, monkeypatch):
        monkeypatch.chdir(fixtures_dir)
        assert main(["lint", "lint"]) == 1
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 3
        assert sorted(l.split()[1] for l in lines) == ["W001", "W002", "W003"]

    def test_unreadable_file(self, proj):
        assert main(["lint", "missing.sv"]) == 2

    def test_directory_named_like_source_is_not_read(self, proj, capsys):
        (proj / "rtl" / "ip.sv").mkdir()
        (proj / "rtl" / "sub.svh").mkdir()
        assert main(["lint", "rtl"]) == 0
        assert capsys.readouterr().err == ""

    def test_undecodable_file(self, proj):
        (proj / "bad.sv").write_bytes(b"\xff\xfe\x00module")
        assert main(["lint", str(proj / "bad.sv")]) == 2


class TestRunTest:
    def setup_pipeline(self, proj):
        assert main(["update"]) == 0
        assert main(["generate"]) == 0

    def test_selftest_passes(self, proj, capsys):
        self.setup_pipeline(proj)
        assert main(["run-test", "--script", "gen/demo_selftest.txt"]) == 0
        assert "steps passed" in capsys.readouterr().out

    def test_missing_script(self, proj):
        assert main(["update"]) == 0
        assert main(["run-test", "--script", "nope.txt"]) == 2

    def test_fault_injection_fails_region_test(self, proj, tmp_path, capsys):
        self.setup_pipeline(proj)
        from chipkit.busmodel import gen_region_test
        from chipkit.memmap import load_memory_map
        from chipkit.script import save_script
        memmap = load_memory_map((proj / "soc.map").read_text())
        (proj / "region.txt").write_text(save_script(gen_region_test(memmap, "sram0")))
        assert main(["run-test", "--script", "region.txt"]) == 0
        assert main(["run-test", "--script", "region.txt",
                     "--fault", "mask_address_bit:10:sram0"]) == 1
        out = capsys.readouterr().out
        assert "step" in out

    def test_bad_fault_spec(self, proj):
        self.setup_pipeline(proj)
        assert main(["run-test", "--script", "gen/demo_selftest.txt", "--fault", "zap"]) == 2

    def test_retired_entry_past_the_region_refused(self, proj, capsys):
        self.setup_pipeline(proj)
        _edit(proj, "regs.csv", "0x34,demo_diag_mux,,active", "0x2000,demo_diag_mux,,retired")
        capsys.readouterr()
        assert main(["run-test", "--script", "gen/demo_selftest.txt"]) == 3
        assert capsys.readouterr().err == ("error: entry cfg_diag_sel at offset 0x2000 does not "
                                           "fit region csr0 (size 0x1000)\n")

    def test_selftest_fails_against_other_db(self, proj):
        self.setup_pipeline(proj)
        db = regdb.load_db((proj / "regs.csv").read_text())
        db.entries = [e._replace(reset_value=1) if e.name == "cfg_gain" else e
                      for e in db.entries]
        (proj / "regs.csv").write_text(regdb.save_db(db))
        assert main(["run-test", "--script", "gen/demo_selftest.txt"]) == 1


class TestSim:
    def _sim_session(self, proj, lines):
        from chipkit import uart_host
        from chipkit.cli import _build_model

        cfg = cli._apply(cli.ProjectConfig(), cli._ini_values(str(proj / "chipkit.cfg")))
        soc = _build_model(cfg)
        listener = uart_host.open_listener()
        port = listener.getsockname()[1]
        t = threading.Thread(target=uart_host.serve_tcp, args=(soc, listener), daemon=True)
        t.start()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
            conn.sendall(("".join(l + "\n" for l in lines)).encode())
            conn.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data += chunk
        t.join(timeout=5)
        listener.close()
        return data.decode().splitlines()

    def test_id_read_unmapped_and_quit(self, proj):
        assert main(["update"]) == 0
        db = regdb.load_db((proj / "regs.csv").read_text())
        expected_id = f"0x{regdb.db_hash(db):08x}"
        out = self._sim_session(proj, ["R 0x50000000", "R 0x30000000", "Q"])
        assert out == [expected_id, "ERR UNMAPPED", "OK"]

    def test_stdio_sim(self, proj, monkeypatch, capsys):
        assert main(["update"]) == 0
        import io
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"R 0x50000000\nQ\n")))
        code = main(["sim"])
        assert code == 0
        err = capsys.readouterr().err
        assert "reads" in err


def _bootstrap(proj):
    assert main(["update"]) == 0
    assert main(["generate"]) == 0


def _edit(proj, name, old, new):
    path = proj / name
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def _bad_header(proj):
    _bootstrap(proj)
    _edit(proj, "regs.csv", "name,", "nom,")
    return ["generate"]


def _bad_row(proj):
    _bootstrap(proj)
    _edit(proj, "regs.csv", ",RW,", ",XX,")
    return ["generate"]


def _duplicate_offset(proj):
    _bootstrap(proj)
    _edit(proj, "regs.csv", "0x4,dsp_core", "0x8,dsp_core")
    return ["generate"]


def _misaligned_offset(proj):
    _bootstrap(proj)
    _edit(proj, "regs.csv", "0x4,dsp_core", "0x6,dsp_core")
    return ["generate"]


def _conflict(proj):
    _bootstrap(proj)
    db = regdb.load_db((proj / "regs.csv").read_text())
    db.entries = [e._replace(state=regdb.RETIRED, access="RO") if e.name == "cfg_gain" else e
                  for e in db.entries]
    (proj / "regs.csv").write_text(regdb.save_db(db))
    return ["update"]


def _duplicate_candidate(proj):
    (proj / "rtl" / "twin.sv").write_text(
        "module twin (input logic cfg_gain);\nendmodule\n")
    return ["update"]


def _malformed_sv(proj):
    (proj / "rtl" / "broken.sv").write_text("module oops (input logic a);\n")
    return ["update"]


def _map(text):
    def setup(proj):
        _bootstrap(proj)
        (proj / "soc.map").write_text(text)
        return ["run-test", "--script", "gen/demo_selftest.txt"]
    return setup


def _malformed_pads(proj):
    _bootstrap(proj)
    _edit(proj, "pads.csv", "pad_clk,N,", "pad_clk,Q,")
    return ["generate"]


def _pad_row(row):
    """Replaces the first pad row with row after update and generate have run."""
    def setup(proj):
        _bootstrap(proj)
        _edit(proj, "pads.csv", "pad_clk,N,0,PDIN,clock", row)
        return ["generate"]
    return setup


def _cr_ended_pads(proj):
    _bootstrap(proj)
    pads = proj / "pads.csv"
    pads.write_bytes(pads.read_bytes().replace(b"\n", b"\r"))
    return ["generate"]


def _malformed_script(proj):
    _bootstrap(proj)
    (proj / "bad.txt").write_text("> R 0x50000000\n> R 0x50000004\n")
    return ["run-test", "--script", "bad.txt"]


def _ini(section, key, value, argv=("update",), bootstrap=False):
    """Sets one key of the project's config file, after update and generate
    have run if bootstrap."""
    def setup(proj):
        import configparser
        if bootstrap:
            _bootstrap(proj)
        ini = configparser.ConfigParser()
        ini.read(proj / "chipkit.cfg")
        if not ini.has_section(section):
            ini.add_section(section)
        ini[section][key] = value
        with open(proj / "chipkit.cfg", "w") as handle:
            ini.write(handle)
        return list(argv)
    return setup


def _short_db_row_and_bad_block(proj):
    _bootstrap(proj)
    with open(proj / "regs.csv", "a") as handle:
        handle.write("x,y\n")
    return ["generate", "--block", "x-y"]


def _bare_config(proj):
    (proj / "bare.cfg").write_text("rtl = rtl\n")
    return ["--config", "bare.cfg", "update"]


def _huge_cell(name, old, argv):
    """Widens the cell after old past the csv module's 131,072-character limit."""
    def setup(proj):
        _bootstrap(proj)
        _edit(proj, name, old, old + "x" * 140_000)
        return list(argv)
    return setup


def _args(*argv, bootstrap=True):
    def setup(proj):
        if bootstrap:
            _bootstrap(proj)
        return list(argv)
    return setup


_SELFTEST = ("run-test", "--script", "gen/demo_selftest.txt")

# regs.csv as update wrote it, then edited: every old text is replaced
DB_TEXTS = {
    "canonical": (),
    "extra-column": ((",state,", ",state,owner,"), (",active,", ",active,me,")),
    "reset-wider-than-width": (("cfg_gain,8,RW,0x0,", "cfg_gain,8,RW,0x100,"),),
    "width-0": (("cfg_gain,8,", "cfg_gain,0,"),),
    "width-33": (("cfg_gain,8,", "cfg_gain,33,"),),
    "offset-0x0": (("0x0,0x4,dsp_core", "0x0,0x0,dsp_core"),),
    "misaligned-offset": (("0x0,0x4,dsp_core", "0x0,0x6,dsp_core"),),
    "equal-offsets": (("0x0,0x8,dsp_core", "0x0,0x4,dsp_core"),),
    "descending-offsets": (("cfg_gain,8,RW,0x0,0x4,", "cfg_gain,8,RW,0x0,0x8,"),
                           ("cfg_offset,16,RW,0x0,0x8,", "cfg_offset,16,RW,0x0,0x4,")),
    "names-differing-in-case": (("cfg_offset,16", "CFG_GAIN,16"),),
    "name-ID": (("cfg_gain,8", "ID,8"),),
    "name-Base": (("cfg_gain,8", "Base,8"),),
    "nul-in-description": (("0x4,dsp_core,,", "0x4,dsp_core,a\0b,"),),
    "huge-description": (("0x4,dsp_core,,", "0x4,dsp_core," + "x" * 140_000 + ","),),
    "tap-listed-twice": (("diag_overflow@dsp_core", "diag_fsm_idle@dsp_core"),),
    "tap-on-another-row": (("0x4,dsp_core,,active,", "0x4,dsp_core,,active,diag_x@dsp_core"),),
    "tap-codes-too-wide": (("cfg_diag_sel,4,", "cfg_diag_sel,1,"),),
    "tap-retired": (("diag_tick@timer_unit", "diag_tick@timer_unit:retired"),),
    "entry-past-region": (("0x34,demo_diag_mux,,active", "0x2000,demo_diag_mux,,active"),),
    "retired-past-region": (("0x34,demo_diag_mux,,active", "0x2000,demo_diag_mux,,retired"),),
    "cr-in-description": (("0x4,dsp_core,,", '0x4,dsp_core,"a\rb",'),),
    "cr-in-extra-cell": ((",state,", ",state,owner,"), (",active,", ',active,"m\re",')),
}


def _db_text(proj, name):
    text = (proj / "regs.csv").read_text(encoding="utf-8")
    for old, new in DB_TEXTS[name]:
        assert old in text
        text = text.replace(old, new)
    return text


def _regs(name, argv=_SELFTEST):
    """Writes DB_TEXTS[name] after update and generate have run."""
    def setup(proj):
        _bootstrap(proj)
        (proj / "regs.csv").write_text(_db_text(proj, name), encoding="utf-8")
        return list(argv)
    return setup


_INVALID = "error: database {proj}/regs.csv failed validation\n"

EXIT_CODE_TABLE = [
    # (case, setup returning argv, exit code, stderr with {proj} for the project path)
    ("bad-base", _args("generate", "--base", "zz"), 2,
     "error: bad base address value 'zz'\n"),
    ("unknown-fault", _args(*_SELFTEST, "--fault", "zap"), 2,
     "error: bad fault spec 'zap' (mask_address_bit:<bit>:<region> "
     "or mask_data_bit:<bit>:<region>)\n"),
    ("bad-sram-mode", _args(*_SELFTEST, "--sram-mode", "bogus"), 2,
     "error: bad sram mode 'bogus' (strict_x or random:<seed>)\n"),
    ("missing-rtl-path", _args("update", "--rtl", "no_such_dir", bootstrap=False), 2,
     "error: no such file or directory: no_such_dir\n"),
    ("malformed-sv", _malformed_sv, 2,
     "error: {proj}/rtl/broken.sv:1: module without endmodule\n"),
    ("regs-bad-header", _bad_header, 2, "error: missing required column 'name'\n"),
    ("regs-bad-row", _bad_row, 2, "error: row 2: invalid access token 'XX'\n"),
    ("regs-duplicate-offset", _duplicate_offset, 3,
     "error: duplicate offset 0x8 (rows 2 and 3)\n"),
    ("regs-invalid", _misaligned_offset, 3,
     "error: cfg_gain: offset 0x6 not word-aligned\n"
     "error: database {proj}/regs.csv failed validation\n"),
    ("duplicate-candidate", _duplicate_candidate, 2,
     "error: duplicate candidate name cfg_gain\n"),
    ("conflict", _conflict, 3,
     "error: candidate cfg_gain (RW) collides with a retired RO entry at offset 0x4\n"),
    ("address-space-exhausted",
     _args("update", "--region-size", "0x8", "--targets", "rtl", bootstrap=False), 3,
     "error: no free offset below 0x8 for entry cfg_offset\n"),
    # update checks the region as generate does (it wrote entries past --region-size)
    ("update-region-below-entries", _args("update", "--region-size", "0x20"), 3,
     "error: entry sts_pins at offset 0x20 falls outside the region\n"),
    ("map-mismatch", _args("generate", "--base", "0x70000000"), 3,
     "error: memory map has no csr region matching base 0x70000000 size 0x1000\n"),
    ("bad-block-name", _args("generate", "--block", "9x"), 3,
     "error: block name '9x' is not an identifier\n"),
    ("malformed-map-line", _map("region csr0 csr 0x50000000\n"), 2,
     "error: line 1: expected 'region <name> <kind> <base> <size>'\n"),
    ("map-overlap", _map("region csr0 csr 0x50000000 0x1000\n"
                         "region sram0 sram 0x50000000 0x2000\n"), 3,
     "error: regions csr0 and sram0 overlap\n"),
    ("two-csr-regions", _map("region csr0 csr 0x50000000 0x1000\n"
                             "region csr1 csr 0x51000000 0x1000\n"), 3,
     "error: one database drives one csr region; map declares csr0, csr1\n"),
    ("fault-bit-range", _args(*_SELFTEST, "--fault", "mask_data_bit:40:sram0"), 3,
     "error: fault bit 40 outside [0, 32)\n"),
    # an unmapped value is a bus word (generate wrote 32'h-0000001 into the RTL)
    ("generate-negative-unmapped-value", _args("generate", "--unmapped-value", "-1"), 3,
     "error: unmapped value -0x1 outside 32 bits\n"),
    ("generate-unmapped-value-above-32-bits",
     _args("generate", "--unmapped-value", "0x1ffffffff"), 3,
     "error: unmapped value 0x1ffffffff outside 32 bits\n"),
    ("run-test-unmapped-value-above-32-bits",
     _args(*_SELFTEST, "--unmapped-value", "0x100000000"), 3,
     "error: unmapped value 0x100000000 outside 32 bits\n"),
    # a malformed pad file exits 2 like a malformed regs.csv or map (it exited 3)
    ("malformed-pads", _malformed_pads, 2, "error: pad row 2: side must be one of N/E/S/W\n"),
    ("short-pad-row", _pad_row("pad_clk,N"), 2, "error: pad row 2: expected 5 fields, found 2\n"),
    # a cell past the header is rejected, as in regs.csv (it was dropped)
    ("long-pad-row", _pad_row("pad_clk,N,0,PDIN,clock,stray"), 2,
     "error: pad row 2: expected 5 fields, found 6\n"),
    # a pad cell that braces cannot quote is refused (pads_place.tcl ran it)
    ("pad-cell-open-brace", _pad_row("pad{clk,N,0,PDIN,clock"), 2,
     "error: pad row 2: name holds '{{', which the pad script cannot quote\n"),
    ("pad-cell-close-brace", _pad_row("pad_clk,N,0,PD}IN,clock"), 2,
     "error: pad row 2: cell holds '}}', which the pad script cannot quote\n"),
    ("pad-cell-backslash", _pad_row("pad_clk,N,0,PDIN,clo\\ck"), 2,
     "error: pad row 2: signal holds '\\\\', which the pad script cannot quote\n"),
    ("pad-cell-lf", _pad_row('"pad\nclk",N,0,PDIN,clock'), 2,
     "error: pad row 2: name holds '\\n', which the pad script cannot quote\n"),
    ("pad-cell-tab", _pad_row("pad_clk,N,0,PD\tIN,clock"), 2,
     "error: pad row 2: cell holds '\\t', which the pad script cannot quote\n"),
    ("pad-cell-escape", _pad_row("pad_clk,N\x1b,0,PDIN,clock"), 2,
     "error: pad row 2: side holds '\\x1b', which the pad script cannot quote\n"),
    # pads.csv is read as written (universal newlines made this CR an LF)
    ("pad-cell-cr", _pad_row('pad_clk,N,0,PDIN,"clock\r"'), 2,
     "error: pad row 2: signal holds '\\r', which the pad script cannot quote\n"),
    # and so a lone CR ends no row
    ("pad-rows-ended-by-cr", _cr_ended_pads, 2,
     "error: pad row 1: new-line character seen in unquoted field - "
     "do you need to open the file in universal-newline mode?\n"),
    ("malformed-script", _malformed_script, 2,
     "error: line 2: expected '< <response>' after command\n"),
    # an INI value names its setting as the flag's error does (it named the key)
    ("ini-bad-base", _ini("emit", "base_address", "zz"), 2,
     "error: bad base address value 'zz'\n"),
    ("ini-bad-region-size", _ini("emit", "region_size_bytes", "4k"), 2,
     "error: bad region size value '4k'\n"),
    # the flag's parse error names its setting once (it read "unmapped value value")
    ("ini-bad-unmapped-value", _ini("emit", "unmapped_value", "dead"), 2,
     "error: bad unmapped value 'dead'\n"),
    ("ini-bad-diag-pins", _ini("emit", "diag_pins", "two"), 2,
     "error: bad diag pins value 'two'\n"),
    ("ini-bad-listen-port", _ini("sim", "listen_port", "http"), 2,
     "error: bad listen port value 'http'\n"),
    ("ini-bad-sram-mode", _ini("sim", "sram_mode", "random:x"), 2,
     "error: bad sram seed value 'x'\n"),
    ("ini-bad-match-mode", _ini("naming", "match_mode", "infix"), 3,
     "error: bad match_mode 'infix'\n"),
    ("missing-config", _args("--config", "nope.cfg", "update", bootstrap=False), 2,
     "error: [Errno 2] No such file or directory: 'nope.cfg'\n"),
    # a malformed config file exits 2 (it printed a configparser traceback)
    ("config-without-section", _bare_config, 2,
     "error: File contains no section headers. file: 'bare.cfg', line: 1 'rtl = rtl\\n'\n"),
    # a cell over the csv module's field limit exits 2 (it printed a _csv.Error traceback)
    ("huge-db-cell", _huge_cell("regs.csv", "0x4,dsp_core,", ["update"]), 2,
     "error: row 2: field larger than field limit (131072)\n"),
    ("huge-pad-cell", _huge_cell("pads.csv", "pad_clk,N,0,PDIN,", ["generate"]), 2,
     "error: pad row 2: field larger than field limit (131072)\n"),
    # update checks the emit settings generate checks (it wrote them into regs.csv)
    ("update-zero-diag-pins", _args("update", "--diag-pins", "0", bootstrap=False), 3,
     "error: need at least one diagnostic pin\n"),
    ("update-blank-block", _args("update", "--block", "", bootstrap=False), 3,
     "error: block name '' is not an identifier\n"),
    # every subcommand checks the settings as it reads them: sim and run-test
    # took an invalid [emit] value, and generate read the database before it
    ("sim-bad-emit-ini", _ini("emit", "block_name", "x-y", ("sim",), bootstrap=True), 3,
     "error: block name 'x-y' is not an identifier\n"),
    ("run-test-bad-emit-ini", _ini("emit", "block_name", "x-y", _SELFTEST, bootstrap=True), 3,
     "error: block name 'x-y' is not an identifier\n"),
    ("generate-bad-block-before-db", _short_db_row_and_bad_block, 3,
     "error: block name 'x-y' is not an identifier\n"),
    # run-test reads a canonical regs.csv in one pass, and any other text
    # through csv: one defect in a canonical file gives csv's message
    ("run-test-reset-wider-than-width", _regs("reset-wider-than-width"), 3,
     "error: cfg_gain: reset 0x100 does not fit in 8 bits\n" + _INVALID),
    ("run-test-width-0", _regs("width-0"), 3,
     "error: cfg_gain: width 0 outside [1, 32]\n" + _INVALID),
    ("run-test-width-33", _regs("width-33"), 3,
     "error: cfg_gain: width 33 outside [1, 32]\n" + _INVALID),
    ("run-test-offset-0x0", _regs("offset-0x0"), 3,
     "error: cfg_gain: offset 0x0 is reserved for the ID register\n" + _INVALID),
    ("run-test-misaligned-offset", _regs("misaligned-offset"), 3,
     "error: cfg_gain: offset 0x6 not word-aligned\n" + _INVALID),
    ("run-test-equal-offsets", _regs("equal-offsets"), 3,
     "error: duplicate offset 0x4 (rows 2 and 3)\n"),
    ("run-test-names-differing-in-case", _regs("names-differing-in-case"), 3,
     "error: CFG_GAIN: name differs from cfg_gain only in case\n" + _INVALID),
    ("run-test-name-ID", _regs("name-ID"), 3,
     "error: ID: name reserved for the ID register\n" + _INVALID),
    ("run-test-name-Base", _regs("name-Base"), 3,
     "error: Base: name reserved for the base address\n" + _INVALID),
    ("run-test-huge-description", _regs("huge-description"), 2,
     "error: row 2: field larger than field limit (131072)\n"),
    ("generate-tap-listed-twice", _regs("tap-listed-twice", ("generate",)), 3,
     "error: cfg_diag_sel: diagnostic tap diag_fsm_idle listed twice\n" + _INVALID),
    ("generate-tap-on-another-row", _regs("tap-on-another-row", ("generate",)), 3,
     "error: cfg_gain: diag_taps is set only on cfg_diag_sel\n" + _INVALID),
    ("generate-tap-codes-too-wide", _regs("tap-codes-too-wide", ("generate",)), 3,
     "error: cfg_diag_sel: 2-bit diagnostic select codes do not fit in 1 bits\n" + _INVALID),
    # regs.csv is read as written, and a CR that save_db would write unquoted
    # is refused (update saved this "a\rb" as "a\nb")
    ("update-cr-in-description", _regs("cr-in-description", ("update",)), 2,
     "error: row 2: description holds a CR outside a CRLF\n"),
    ("generate-cr-in-extra-cell", _regs("cr-in-extra-cell", ("generate",)), 2,
     "error: row 2: owner holds a CR outside a CRLF\n"),
    # every usage error is one error line and exit 2 (argparse printed its usage)
    ("no-command", _args(bootstrap=False), 2,
     "error: no command given (update, generate, lint, sim, run-test)\n"),
    ("unknown-command", _args("frobnicate", bootstrap=False), 2,
     "error: unknown command 'frobnicate' (update, generate, lint, sim, run-test)\n"),
    ("flag-of-another-command", _args("update", "--fault", "zap", bootstrap=False), 2,
     "error: no flag --fault for update\n"),
    ("setting-flag-before-the-command", _args("--db", "x.csv", "update", bootstrap=False), 2,
     "error: no flag --db before the command\n"),
    ("config-after-the-command", _args("update", "--config", "chipkit.cfg", bootstrap=False), 2,
     "error: no flag --config for update\n"),
    # a flag is spelled in full (argparse took --reg for --region-size)
    ("abbreviated-flag", _args("update", "--reg", "0x2000", bootstrap=False), 2,
     "error: no flag --reg for update\n"),
    ("missing-value", _args("generate", "--block", bootstrap=False), 2,
     "error: --block needs a value\n"),
    ("rtl-without-a-path", _args("update", "--rtl", "--db", "regs.csv", bootstrap=False), 2,
     "error: --rtl needs a value\n"),
    ("switch-given-a-value", _args(*_SELFTEST, "--stop-on-fail=yes"), 2,
     "error: --stop-on-fail takes no value\n"),
    ("unexpected-operand", _args("update", "rtl", bootstrap=False), 2,
     "error: update takes no operand 'rtl'\n"),
    ("missing-script", _args("run-test", bootstrap=False), 2,
     "error: run-test needs --script FILE\n"),
]


class TestExitCodes:
    """Every error the CLI can raise, with its exit code and exact message."""

    @pytest.mark.parametrize("setup, code, err", [case[1:] for case in EXIT_CODE_TABLE],
                             ids=[case[0] for case in EXIT_CODE_TABLE])
    def test_exit_code_and_message(self, proj, capsys, setup, code, err):
        argv = setup(proj)
        capsys.readouterr()
        assert main(argv) == code
        assert capsys.readouterr().err == err.format(proj=proj)


class TestOnePassEquivalence:
    """A command gives the same exit code, output and files whether regs.csv
    is read in one pass or, as every text the pass declines is, by load_db,
    validate_db and db_hash."""

    @pytest.mark.parametrize("argv", [_SELFTEST, ("generate",), ("update",)],
                             ids=["run-test", "generate", "update"])
    @pytest.mark.parametrize("name", list(DB_TEXTS))
    def test_same_result_as_the_csv_read(self, proj, capsys, monkeypatch, name, argv):
        _bootstrap(proj)
        text = _db_text(proj, name)
        csv_reads = []
        real_load_db = regdb.load_db
        monkeypatch.setattr(regdb, "load_db", lambda t: csv_reads.append(t) or real_load_db(t))
        results, reads = [], []
        # both runs start from the bootstrap tree, so generate leaves alone,
        # and reports unchanged, the same outputs in each
        shutil.copytree(proj / "gen", proj / "gen0")
        for one_pass in (regdb.load_canonical_db, lambda text: None):
            monkeypatch.setattr(regdb, "load_canonical_db", one_pass)
            shutil.rmtree(proj / "gen")
            shutil.copytree(proj / "gen0", proj / "gen")
            (proj / "regs.csv").write_text(text, encoding="utf-8")
            capsys.readouterr()
            code = main(list(argv))
            out, err = capsys.readouterr()
            results.append((code, out, err, tree_digest(proj / "gen"),
                            (proj / "regs.csv").read_bytes()))
            reads.append(len(csv_reads))
        assert results[0] == results[1]
        # the two canonical texts take the one pass; every defect, NUL
        # included, is left to csv
        assert (reads[0] == 0) == (name in ("canonical", "extra-column", "tap-retired",
                                            "entry-past-region", "retired-past-region"))


def _takes(command, flag):
    """Whether the reader takes flag after command, bare or with a value."""
    script = ["--script", "s"] if command == "run-test" else []
    for words in ([flag], [flag, "x"]):
        try:
            cli._read_argv([command, *words, *script])
            return True
        except InputError:
            pass
    return False


def _subcommand_flags():
    """The flags the reader takes after each command, of all that any command
    or the top level takes."""
    flags = sorted({s.flag for s in cli.SETTINGS} | {"--config", "--script"})
    return {command: [f for f in flags if _takes(command, f)] for command in cli._COMMANDS}


# (flag, INI section, INI key, a subcommand that reads it, values to try);
# {dir} is the directory both configurations are read in
EQUIVALENCE_CASES = [
    ("--rtl", "project", "rtl", "update", ["{dir}/rtl"]),
    ("--db", "project", "db", "update", ["{dir}/alt.csv"]),
    ("--out", "project", "out", "generate", ["{dir}/out"]),
    ("--map", "project", "map", "sim", ["{dir}/soc.map"]),
    ("--pads", "project", "pads", "generate", ["{dir}/pads.csv"]),
    ("--control-prefix", "naming", "control_prefix", "update", ["ctl_", "sts_", ""]),
    ("--status-prefix", "naming", "status_prefix", "update", ["st_", "cfg_", ""]),
    ("--diag-prefix", "naming", "diag_prefix", "update", ["dbg_", ""]),
    ("--match-mode", "naming", "match_mode", "update", ["postfix", "prefix", "infix"]),
    ("--block", "emit", "block_name", "update", ["core", ""]),
    ("--base", "emit", "base_address", "generate", ["0x40000000", "1024", "zz", ""]),
    ("--region-size", "emit", "region_size_bytes", "update", ["0x2000", "4k"]),
    ("--targets", "emit", "targets", "update", ["rtl,md", "c, py", ""]),
    ("--unmapped-value", "emit", "unmapped_value", "sim", ["0", "0xffffffff", "dead"]),
    ("--diag-pins", "emit", "diag_pins", "update", ["3", "0x2", "two"]),
    ("--sram-mode", "sim", "sram_mode", "sim",
     ["strict_x", "random:7", "random", "random:x", "bogus", ""]),
    ("--listen", "sim", "listen_port", "sim", ["0", "5000", "0x10", "http", ""]),
]


class TestSettings:
    # the setting flags each subcommand offers: those of the settings it reads
    FLAGS = {
        "update": ["--block", "--control-prefix", "--db", "--diag-pins", "--diag-prefix",
                   "--match-mode", "--region-size", "--rtl", "--status-prefix", "--targets"],
        "generate": ["--base", "--block", "--db", "--diag-pins", "--map", "--out", "--pads",
                     "--region-size", "--targets", "--unmapped-value"],
        "lint": [],
        "sim": ["--db", "--fault", "--listen", "--map", "--prompt", "--sram-mode",
                "--unmapped-value"],
        "run-test": ["--db", "--fault", "--map", "--script", "--sram-mode", "--stop-on-fail",
                     "--unmapped-value"],
    }

    def test_each_subcommand_offers_the_flags_it_reads(self):
        assert _subcommand_flags() == self.FLAGS

    def test_cases_cover_every_setting_with_a_flag_and_a_key(self):
        rows = {(s.flag, *s.ini): s.commands.split() for s in cli.SETTINGS if s.ini}
        cases = {(flag, section, key): command
                 for flag, section, key, command, _ in EQUIVALENCE_CASES}
        assert cases.keys() == rows.keys()
        assert all(command in rows[row] for row, command in cases.items())

    def test_readme_lists_every_setting(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
        rows = [[cell.strip(" `") for cell in line.strip("|").split("|")]
                for line in table.splitlines() if line.startswith("| `")]
        assert [row[:3] for row in rows] == [
            [s.flag, f"[{s.ini[0]}] {s.ini[1]}" if s.ini else "—", ", ".join(s.commands.split())]
            for s in cli.SETTINGS]

    @pytest.mark.parametrize(
        "flag, section, key, command, text",
        [(f, sec, key, cmd, text) for f, sec, key, cmd, texts in EQUIVALENCE_CASES
         for text in texts],
        ids=[f"{f}={text!r}" for f, _, _, _, texts in EQUIVALENCE_CASES for text in texts])
    def test_flag_and_ini_key_agree(self, tmp_path, monkeypatch, capsys,
                                    flag, section, key, command, text):
        """The same text as a flag or as an INI value: an equal config, or
        the same error line and exit code."""
        text = text.format(dir=tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda cfg: seen.append(cfg) or 0)
        (tmp_path / "one.cfg").write_text(f"[{section}]\n{key} = {text}\n")
        outcomes = []
        for argv in (["--config", "one.cfg", command], [command, flag, text]):
            seen.clear()
            code = main(argv)
            outcomes.append((code, capsys.readouterr().err, list(seen)))
        assert outcomes[0] == outcomes[1]


# the words a drawn flag or operand takes: the texts of EQUIVALENCE_CASES,
# empty ones included, one that holds '=', and the words starting with '-'
# that argparse took as values: negative numbers, '-' and one holding a space
_WORDS = st.sampled_from(sorted({text.format(dir="d") for *_, texts in EQUIVALENCE_CASES
                                 for text in texts} | {"x=y", "-1", "-0.5", "-", "-a b"}))


@st.composite
def _flag_words(draw, flag, parse):
    """flag and its value in a drawn form: --flag value (1 to 3 words for
    --rtl) or --flag=value; now and then a switch given a value, or a flag
    without one, which a word after it may give."""
    form = draw(st.integers(0, 9))
    if parse is None:
        return [f"{flag}={draw(_WORDS)}"] if form == 0 else [flag]
    if form == 0:
        return [flag]
    if form < 5:
        return [f"{flag}={draw(_WORDS)}"]
    count = draw(st.integers(1, 3)) if parse is cli._paths else 1
    return [flag, *draw(st.lists(_WORDS, min_size=count, max_size=count))]


@st.composite
def _argvs(draw):
    """[--config FILE] COMMAND [ARG...]: mostly the command's own flags, some
    given twice, and run-test's --script; now and then an operand (lint's
    paths), a flag of another command or of the top level, or no --script."""
    argv = draw(_flag_words("--config", cli._path)) if draw(st.booleans()) else []
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    argv.append(command)
    own = cli._flags(command)
    every = {s.flag: s.parse for s in cli.SETTINGS} | cli._flags(None)
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 19))
        if kind == 0 or (command == "lint" and kind < 15):
            argv.append(draw(_WORDS))
        else:
            flags = own if own and kind > 1 else every
            flag = draw(st.sampled_from(sorted(flags)))
            argv += draw(_flag_words(flag, flags[flag]))
    if command == "run-test" and draw(st.integers(0, 9)):
        at = draw(st.integers(argv.index(command) + 1, len(argv)))
        argv[at:at] = ["--script", draw(_WORDS)]
    return argv


class TestArgv:
    """cli._read_argv against argparse, which it replaced (tests/argv_oracle.py)."""

    @settings(max_examples=1000, deadline=None)
    @given(argv=_argvs())
    def test_reader_agrees_with_argparse(self, argv):
        """Where argparse takes argv the reader gives the same command, config
        file, settings, paths and script; where it refuses argv, an InputError."""
        expected = argv_oracle.read_argv(argv)
        if expected is None:
            with pytest.raises(InputError):
                cli._read_argv(argv)
            return
        command, flags, paths = cli._read_argv(argv)
        own = {flag: value for flag, value in flags.items()
               if flag not in ("--config", "--script")}
        assert (command, flags.get("--config"), own, paths, flags.get("--script")) == expected

    def test_value_keeps_every_equals_sign_after_the_first(self):
        assert cli._read_argv(["update", "--block=a=b", "--targets", "x=y"]) == (
            "update", {"--block": "a=b", "--targets": "x=y"}, [])

    def test_rtl_takes_every_word_up_to_the_next_flag(self):
        assert cli._read_argv(["update", "--rtl", "a", "", "-1", "--db", "d", "--rtl=b"]) == (
            "update", {"--rtl": ["b"], "--db": "d"}, [])
        assert cli._read_argv(["update", "--rtl", "a", "b", "--db", "d"]) == (
            "update", {"--rtl": ["a", "b"], "--db": "d"}, [])

    def test_lint_takes_every_word_after_a_double_dash_as_a_path(self):
        assert cli._read_argv(["lint", "a", "--", "-b", "--", "-h"]) == (
            "lint", {}, ["a", "-b", "--", "-h"])
        with pytest.raises(InputError, match="no flag -- for update"):
            cli._read_argv(["update", "--", "x"])

    def test_help_lists_every_command(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        listed = out.split("\ncommands:\n", 1)[1].split("\n\n", 1)[0].splitlines()
        assert [line.split()[0] for line in listed] == list(cli._COMMANDS)
        assert all(line.split(None, 1)[1] == cli._COMMANDS[line.split()[0]][0]
                   for line in listed)

    @pytest.mark.parametrize("command", list(TestSettings.FLAGS))
    @pytest.mark.parametrize("spelling", ["-h", "--help"])
    def test_command_help_lists_its_flags(self, capsys, command, spelling):
        """After a command, -h ends the reading: the words after it are not read."""
        assert main([command, "--db", "x", spelling, "--bogus"]
                    if "--db" in TestSettings.FLAGS[command] else [command, spelling]) == 0
        out = capsys.readouterr().out
        assert sorted(re.findall(r"^  (--[a-z-]+)", out, re.M)) == TestSettings.FLAGS[command]


class TestDuplicatePaths:
    """A file reached through two paths is scanned once, in first-seen order."""

    def test_update_with_a_file_inside_a_listed_directory(self, proj, capsys):
        assert main(["update", "--rtl", "rtl", "rtl/dsp_core.sv"]) == 0
        report = capsys.readouterr().out
        assert hashlib.sha256(report.encode()).hexdigest() == TestGolden.REPORT_SHA256
        assert hashlib.sha256((proj / "regs.csv").read_bytes()).hexdigest() == \
            TestGolden.REGS_SHA256

    def test_update_with_one_directory_spelled_twice(self, proj, capsys):
        assert main(["update", "--rtl", "rtl", "./rtl"]) == 0
        report = capsys.readouterr().out
        assert hashlib.sha256(report.encode()).hexdigest() == TestGolden.REPORT_SHA256
        assert main(["generate"]) == 0
        assert tree_digest(proj / "gen") == TestGolden.TREE_SHA256

    def test_lint_reports_each_violation_once(self, proj, fixtures_dir, capsys):
        for name in ("w001_wire.sv", "w002_reg.sv"):
            (proj / name).write_text((fixtures_dir / "lint" / name).read_text())
        assert main(["lint", "w002_reg.sv", "w001_wire.sv"]) == 1
        once = capsys.readouterr().out
        assert main(["lint", "w002_reg.sv", "w001_wire.sv", "./w002_reg.sv",
                     str(proj / "w001_wire.sv")]) == 1
        assert capsys.readouterr().out == once
        assert once.index("w002_reg.sv") < once.index("w001_wire.sv")

    def test_first_spelling_and_order_kept(self, proj):
        assert cli._rtl_files(["rtl/timer_unit.sv", "rtl", "./rtl/dsp_core.sv"]) == [
            Path("rtl/timer_unit.sv"), Path("rtl/dsp_core.sv"), Path("rtl/io_ctrl.sv")]

    def test_walk_lists_what_rglob_listed(self, tmp_path, monkeypatch):
        """The directory walk against the rglob walk it replaced, verbatim below,
        on every kind of entry the two could treat differently."""
        def rglob_rtl_files(paths):
            files = {}
            for p in paths:
                path = Path(p)
                if path.is_dir():
                    found = sorted(q for q in path.rglob("*")
                                   if q.suffix in (".sv", ".svh") and q.is_file())
                elif path.exists():
                    found = [path]
                else:
                    raise cli.InputError(f"no such file or directory: {p}")
                for q in found:
                    files.setdefault(q.resolve(), q)
            return list(files.values())

        monkeypatch.chdir(tmp_path)
        rtl, other = tmp_path / "rtl", tmp_path / "other"
        for name in ("a/b.sv", "a-b.sv", ".h.sv", "..sv", ".sv", ".svh", "x.svh", "x.svx",
                     "x.sv.bak", "top.v", ".hidden/c.sv", "a/deep/e.svh", "d.sv/f.sv"):
            (rtl / name).parent.mkdir(parents=True, exist_ok=True)
            (rtl / name).write_text("")
        (other / "g.sv").parent.mkdir()
        (other / "g.sv").write_text("")
        (other / "plain.txt").write_text("")
        (rtl / "link.sv").symlink_to(other / "g.sv")            # a link to a file: kept
        (rtl / "alias.sv").symlink_to(rtl / "a-b.sv")           # the same file twice
        (rtl / "txt.sv").symlink_to(other / "plain.txt")        # named by the link
        (rtl / "linked").symlink_to(other, target_is_directory=True)  # not descended
        (rtl / "dir.sv").symlink_to(other, target_is_directory=True)  # not a file
        (rtl / "dangling.sv").symlink_to(tmp_path / "missing.sv")
        (rtl / "loop.sv").symlink_to(rtl / "loop.sv")
        cases = [["rtl"], ["./rtl/"], [str(rtl)], ["rtl", "rtl/a"], ["rtl/a", "rtl"],
                 ["other/g.sv", "rtl"], ["rtl", "other"], ["rtl/link.sv", "rtl/txt.sv"],
                 ["rtl/linked", "rtl"], ["rtl/dir.sv"], [".", "rtl"]]
        for paths in cases:
            assert cli._rtl_files(paths) == rglob_rtl_files(paths), paths
        assert cli._rtl_files(["rtl"]) == [Path("rtl", name) for name in (
            "..sv", ".h.sv", ".hidden/c.sv", "a/b.sv", "a/deep/e.svh", "a-b.sv",
            "d.sv/f.sv", "link.sv", "txt.sv", "x.svh")]
        with pytest.raises(cli.InputError, match="no such file or directory: rtl/dangling.sv"):
            cli._rtl_files(["rtl/dangling.sv"])


def _loaded_modules(proj, argv, stdin="", err=""):
    """Exit code, stdout lines and the modules that running chipkit argv
    loads; chipkit must print err, nothing by default, to stderr."""
    probe = ("import runpy, sys\n"
             "before = set(sys.modules)\n"
             f"sys.argv = ['chipkit', *{argv!r}]\n"
             "try:\n"
             "    runpy.run_module('chipkit', run_name='__main__', alter_sys=True)\n"
             "except SystemExit as exc:\n"
             "    print('exit', exc.code)\n"
             "print(' '.join(sorted(set(sys.modules) - before)))\n")
    result = subprocess.run([sys.executable, "-c", probe], input=stdin, capture_output=True,
                            text=True, cwd=proj)
    assert result.stderr == err
    *out, code, loaded = result.stdout.splitlines()
    return code, out, set(loaded.split())


# the record decorators' module and what it loads cost a command ~25 ms to
# start, and argparse with the gettext and locale it loads ~4 ms
_START_UP = {"dataclasses", "inspect", "argparse", "gettext", "locale"}


class TestConfigPlumbing:
    def test_env_var_config(self, proj):
        # proj fixture sets CHIPKIT_CONFIG; bare main() calls above rely on it
        assert main(["update"]) == 0

    def test_explicit_config_flag(self, proj, monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV)
        assert main(["--config", "chipkit.cfg", "update"]) == 0

    def test_no_config_no_rtl(self, proj, monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV)
        assert main(["update"]) == 2

    def test_flag_overrides_an_invalid_config_value(self, proj):
        """The settings in effect are checked: the file's, with the flags over them."""
        _ini("emit", "block_name", "x-y")(proj)
        assert main(["update", "--block", "demo"]) == 0
        assert main(["update"]) == 3

    def test_usage_error_exit_2(self, proj):
        assert main(["frobnicate"]) == 2
        assert main(["run-test"]) == 2  # --script required

    def test_run_test_loads_no_scanner_or_emitter(self, proj):
        _bootstrap(proj)
        code, (report,), loaded = _loaded_modules(
            proj, ["run-test", "--script", "gen/demo_selftest.txt"])
        assert code == "exit 0" and report.endswith("steps passed")
        assert "chipkit.uart_host" in loaded
        assert not {"chipkit.sv_scan", "chipkit.emit", "socket", "selectors"} & loaded
        assert not _START_UP & loaded

    def test_stdio_sim_loads_no_scanner_emitter_or_socket(self, proj):
        assert main(["update"]) == 0
        db = regdb.load_db((proj / "regs.csv").read_text())
        code, out, loaded = _loaded_modules(
            proj, ["sim"], stdin="R 0x50000000\nQ\n",
            err="session: 2 lines, 2 responses; bus: 1 reads, 0 writes, 0 errors\n")
        assert code == "exit 0" and out == [f"0x{regdb.db_hash(db):08x}", "OK"]
        assert "chipkit.uart_host" in loaded
        assert not {"chipkit.sv_scan", "chipkit.emit", "socket", "selectors"} & loaded
        assert not _START_UP & loaded

    @pytest.mark.parametrize("command", ["lint", "update", "generate"])
    def test_regen_commands_load_no_model(self, proj, command):
        if command == "generate":
            assert main(["update"]) == 0
        code, _, loaded = _loaded_modules(proj, [command])
        assert code == "exit 0"
        # generate renders from the database alone
        assert ("chipkit.sv_scan" in loaded) == (command != "generate")
        assert not {"chipkit.busmodel", "chipkit.uart_host"} & loaded
        assert not _START_UP & loaded
        # only generate renders, so lint and update load no emitter or script
        rendering = {"chipkit.emit", "chipkit.script"}
        assert rendering & loaded == (rendering if command == "generate" else set())

    def test_module_entry_point(self, proj):
        result = subprocess.run(
            [sys.executable, "-m", "chipkit", "lint", "rtl"],
            capture_output=True, text=True, cwd=proj)
        assert result.returncode == 0


def _lint_violations(proj):
    (proj / "lint").mkdir()
    for path in (Path(__file__).parent / "fixtures" / "lint").iterdir():
        (proj / "lint" / path.name).write_text(path.read_text())
    return ["lint", "lint"]


def _failing_step(proj):
    _bootstrap(proj)
    db = regdb.load_db((proj / "regs.csv").read_text())
    db.entries = [e._replace(reset_value=1) if e.name == "cfg_gain" else e for e in db.entries]
    (proj / "regs.csv").write_text(regdb.save_db(db))
    return list(_SELFTEST)


# (case, setup returning argv, exit code): each code a process can end with
ENTRY_CASES = [
    ("clean-lint", _args("lint", "rtl", bootstrap=False), 0),
    ("lint-violations", _lint_violations, 1),
    ("failing-step", _failing_step, 1),
    ("missing-file", _args("lint", "missing.sv", bootstrap=False), 2),
    ("validation-error", _duplicate_offset, 3),
]


class TestProcessEntry:
    """cli.run is the one process entry; main stays a plain library call."""

    @pytest.mark.parametrize("module", ["chipkit", "chipkit.cli"])
    @pytest.mark.parametrize("setup, code", [case[1:] for case in ENTRY_CASES],
                             ids=[case[0] for case in ENTRY_CASES])
    def test_process_exits_as_main_returns(self, proj, capsys, module, setup, code):
        argv = setup(proj)
        capsys.readouterr()
        assert main(argv) == code
        out, err = capsys.readouterr()
        # stdout block-buffered, as on any pipe by default, so an exit that
        # skipped its flush would lose the output
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        result = subprocess.run([sys.executable, "-m", module, *argv],
                                capture_output=True, text=True, cwd=proj, env=env)
        assert (result.returncode, result.stdout, result.stderr) == (code, out, err)

    def test_main_leaves_nothing_frozen(self, proj):
        _bootstrap(proj)
        assert main(["run-test", "--script", "gen/demo_selftest.txt"]) == 0
        assert main(["lint", "missing.sv"]) == 2
        assert gc.get_freeze_count() == 0

    def test_run_freezes_then_exits_with_mains_code(self, proj):
        probe = ("import gc, sys\n"
                 "from chipkit import cli\n"
                 "sys.argv = ['chipkit', 'lint', 'missing.sv']\n"
                 "try:\n"
                 "    cli.run()\n"
                 "except SystemExit as exc:\n"
                 "    print(exc.code, gc.get_freeze_count() > 0)\n")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, cwd=proj)
        assert result.stdout == "2 True\n"
        assert result.stderr == "error: no such file or directory: missing.sv\n"

    def test_exception_escaping_main_freezes_nothing(self, monkeypatch):
        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "main", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.run()
        assert gc.get_freeze_count() == 0

    def test_installed_command_is_run(self):
        text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        assert 'chipkit = "chipkit.cli:run"' in text

import csv
import hashlib
import io
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from chipkit import cli, regdb, sv_scan
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
    alters any of them changes what users get, not only how fast."""

    TREE_SHA256 = "3c5fd8846afe76c664e321f2f2ca03405fee047357e38028d9486a5b24f5ed01"
    REGS_SHA256 = "9260fb8812d8c075144c3e4d1c0296cc2e1c292b5caad728d9425d3fc2eb5c98"
    REPORT_SHA256 = "819a3cce546a4d59a59614ad1ca803b31a84745f55c778af15cf1c8ecbf94d37"

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

    def test_conflict_leaves_db_untouched(self, proj):
        assert main(["update"]) == 0
        db = regdb.load_db((proj / "regs.csv").read_text())
        entry = db.entry("cfg_gain")
        entry.state = regdb.RETIRED
        entry.access = "RO"  # retired with opposite access -> conflict on rescan
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

    def test_flags_override_config(self, proj):
        assert main(["update", "--db", "alt.csv", "--targets", "rtl"]) == 0
        db = regdb.load_db((proj / "alt.csv").read_text())
        assert db.entry("cfg_diag_sel") is None  # diag target disabled
        assert len(db.entries) == 12


class TestCandidateExtraction:
    """generate renders the diag mux from the diag taps alone; only update
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

    def test_invalid_db_exit_3_nothing_written(self, proj):
        assert main(["update"]) == 0
        text = (proj / "regs.csv").read_text()
        (proj / "regs.csv").write_text(text.replace("0x4,dsp_core", "0x8,dsp_core", 1))
        before = tree_digest(proj / "gen") if (proj / "gen").exists() else None
        assert main(["generate"]) == 3
        after = tree_digest(proj / "gen") if (proj / "gen").exists() else None
        assert before == after

    def test_deterministic_tree(self, proj):
        assert main(["update"]) == 0
        assert main(["generate", "--out", "gen1"]) == 0
        assert main(["generate", "--out", "gen2"]) == 0
        assert tree_digest(proj / "gen1") == tree_digest(proj / "gen2")

    def test_map_mismatch_rejected(self, proj):
        assert main(["update"]) == 0
        assert main(["generate", "--base", "0x70000000"]) == 3

    def test_generated_rtl_lints_clean(self, proj):
        assert main(["update"]) == 0
        assert main(["generate"]) == 0
        assert main(["lint", str(proj / "gen" / "demo_csr.sv"),
                     str(proj / "gen" / "demo_diag_mux.sv")]) == 0


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

    def test_selftest_fails_against_other_db(self, proj):
        self.setup_pipeline(proj)
        db = regdb.load_db((proj / "regs.csv").read_text())
        db.entry("cfg_gain").reset_value = 1
        (proj / "regs.csv").write_text(regdb.save_db(db))
        assert main(["run-test", "--script", "gen/demo_selftest.txt"]) == 1


class TestSim:
    def _sim_session(self, proj, lines):
        from chipkit import uart_host
        from chipkit.cli import _build_model

        cfg = cli.load_config_file(str(proj / "chipkit.cfg"))
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
    entry = db.entry("cfg_gain")
    entry.state, entry.access = regdb.RETIRED, "RO"
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


def _malformed_script(proj):
    _bootstrap(proj)
    (proj / "bad.txt").write_text("> R 0x50000000\n> R 0x50000004\n")
    return ["run-test", "--script", "bad.txt"]


def _args(*argv, bootstrap=True):
    def setup(proj):
        if bootstrap:
            _bootstrap(proj)
        return list(argv)
    return setup


_SELFTEST = ("run-test", "--script", "gen/demo_selftest.txt")

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
    ("malformed-script", _malformed_script, 2,
     "error: line 2: expected '< <response>' after command\n"),
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

    def test_usage_error_exit_2(self, proj):
        assert main(["frobnicate"]) == 2
        assert main(["run-test"]) == 2  # --script required

    def test_module_entry_point(self, proj):
        result = subprocess.run(
            [sys.executable, "-m", "chipkit", "lint", "rtl"],
            capture_output=True, text=True, cwd=proj)
        assert result.returncode == 0

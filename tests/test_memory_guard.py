"""Memory the bring-up and generate paths allocate, as tracemalloc counts it:
every Python allocation, the backtracking state of re included, and nothing
that depends on timing. A scan that keeps a list of steps, matches a whole
text with a repeated group, or a self-test built as records or lines, fails
here."""

import tracemalloc
import zlib

from chipkit import busmodel, cli, emit, script, uart_host
from chipkit.emit import Pad
from chipkit.memmap import MemoryMap, Region
from chipkit.regdb import (EmitConfig, RegDb, RegEntry, db_hash, diag_select_bits,
                           load_canonical_db, load_db, save_db)
from chipkit.sv_scan import DiagCandidate

# peak traced bytes of load_script + run_script on SCRIPT_TEXT when load_script
# built a ScriptStep per step (Python 3.11.7); the model's own words count too
LINE_LOOP_PEAK = 6_620_834
# peak traced bytes of render_targets with all nine targets on _render_inputs()
# when the self-test was a list of ScriptStep records saved through a list of
# lines (Python 3.11.7)
RECORD_SELFTEST_PEAK = 11_815_195
# peak traced bytes of cli.cmd_generate on _write_project() when it rendered
# every artifact before it wrote any (Python 3.11.7)
RENDER_ALL_PEAK = 6_446_294

MAP = MemoryMap([Region("sram0", "sram", 0x60000000, 0x10000)])


def _script_text(n_steps: int = 20000, comments: bool = True) -> str:
    """A passing self-check: each word written, then read back."""
    lines = []
    for i in range(n_steps // 2):
        if comments and i % 32 == 0:
            lines.append(f"# block {i // 32}")
        addr = 0x60000000 + 4 * (i * 7 % 0x4000)
        data = i * 0x9E3779B1 & 0xFFFFFFFF
        lines += [f"> W 0x{addr:08x} 0x{data:08x}", "< OK",
                  f"> R 0x{addr:08x}", f"< 0x{data:08x}"]
    return "\n".join(lines) + "\n"


def _peak(fn, *args):
    """fn's result and the peak traced bytes while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_script_replay_holds_no_steps():
    text = _script_text()
    soc = busmodel.build_soc(MAP, [])
    report, peak = _peak(lambda: uart_host.run_script(soc, script.load_script(text)))
    assert report.total == report.passed == 20000
    assert peak < LINE_LOOP_PEAK
    _, peak = _peak(script.load_script, text)
    assert peak < 64 << 10


def test_script_check_of_uncommented_steps_holds_little_state():
    """A run of steps taken per match: with no comment to end a run, an
    unbounded repeat would hold re's state for every step of the script."""
    text = _script_text(comments=False)
    checked, peak = _peak(script.load_script, text)
    assert checked is text
    assert peak < 64 << 10


def test_one_pass_over_4000_rows_peaks_no_higher_than_load_db():
    db = RegDb([RegEntry(f"r{i:04d}", 1 + i % 32, "RW" if i % 3 else "RO", i % 2,
                         4 + 4 * i, f"blk_{i // 40:03d}",
                         ["", "gain stage", 'the "fast" path', "a, b"][i % 4])
                for i in range(4000)])
    text = save_db(db)
    expected, csv_peak = _peak(load_db, text)
    loaded, peak = _peak(load_canonical_db, text)
    assert loaded == (expected, zlib.crc32(text.encode("utf-8")))
    assert peak <= csv_peak


def _render_inputs():
    """4,000 registers, some retired, in a 64 KiB region, with the diag mux's
    select register, 100 taps and 40 pads: every target renders."""
    entries = [RegEntry(f"{'cfg' if i % 3 else 'sts'}_r{i:04d}", 1 + i % 32,
                        "RW" if i % 3 else "RO", i % 2, 4 + 4 * i, f"blk_{i // 40:03d}",
                        ["", "gain stage", "a | b"][i % 3], "retired" if i % 50 == 0 else "active")
               for i in range(4000)]
    entries.append(RegEntry("cfg_diag_sel", 2 * diag_select_bits(100), "RW", 0,
                            4 + 4 * 4000, "blk_diag_mux"))
    db = RegDb(entries)
    cfg = EmitConfig(block_name="blk", base_address=0x70000000, csr_region_size_bytes=0x10000)
    memmap = MemoryMap([Region("csr0", "csr", 0x70000000, 0x10000),
                        Region("sram0", "sram", 0x60000000, 0x100000)])
    diags = [DiagCandidate(f"diag_{i:03d}", f"blk_{i:03d}") for i in range(100)]
    pads = tuple(Pad(f"p{i}", "NESW"[i % 4], i // 4, "PADCELL", f"sig{i}") for i in range(40))
    return db, cfg, memmap, diags, pads


def test_generate_renders_the_selftest_straight_to_text():
    db, cfg, memmap, diags, pads = _render_inputs()
    hash32 = db_hash(db)
    out, peak = _peak(lambda: emit.render_targets(emit.prepare(db, cfg, hash32),
                                                  memmap, diags, pads))
    assert len(out) == 9
    assert peak < 0.7 * RECORD_SELFTEST_PEAK
    # the text, and the blocks it is joined from, one per register; one join
    # of a string per step peaks at 3x
    text, peak = _peak(emit.emit_selftest, emit.prepare(db, cfg, hash32))
    assert text == out["blk_selftest.txt"]
    assert peak < 2.5 * len(text)


def _write_project(root):
    """_render_inputs() as a project on disk: the database, map and pad files,
    and one RTL module with the 100 taps; every target renders."""
    db, emit_cfg, memmap, diags, pads = _render_inputs()
    (root / "regs.csv").write_text(save_db(db), encoding="utf-8")
    (root / "soc.map").write_text("".join(f"region {r.name} {r.kind} {r.base:#x} {r.size_bytes:#x}\n"
                                          for r in memmap.regions))
    (root / "pads.csv").write_text("name,side,order,cell,signal\n" + "".join(
        f"{p.name},{p.side},{p.order_index},{p.cell_type},{p.signal}\n" for p in pads))
    (root / "taps.sv").write_text("module blk_taps (\n" + ",\n".join(
        f"  output logic {d.name}" for d in diags) + "\n);\nendmodule\n")
    cfg = cli.ProjectConfig()
    cfg.rtl_paths = [str(root / "taps.sv")]
    cfg.db_path, cfg.out_dir = str(root / "regs.csv"), str(root / "gen")
    cfg.map_path, cfg.pads_path = str(root / "soc.map"), str(root / "pads.csv")
    cfg.emit = emit_cfg
    return cfg


def test_generate_holds_one_rendered_artifact_at_a_time(tmp_path):
    """The peak grows with the largest output, not with the sum of all nine."""
    cfg = _write_project(tmp_path)
    assert cli.cmd_generate(cfg) == 0  # a warm run: the outputs exist, as in an edit loop
    code, peak = _peak(cli.cmd_generate, cfg)
    assert code == 0
    assert len(list((tmp_path / "gen").iterdir())) == 9
    assert peak <= 0.85 * RENDER_ALL_PEAK

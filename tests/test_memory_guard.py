"""Memory the bring-up and generate paths allocate, as tracemalloc counts it:
every Python allocation, the backtracking state of re included, and nothing
that depends on timing. A scan that keeps a list of steps, matches a whole
text with a repeated group, or a self-test built as records or lines, fails
here."""

import tracemalloc
import zlib

from chipkit import busmodel, emit, script, uart_host
from chipkit.emit import Pad, PadDb
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
    pads = PadDb(tuple(Pad(f"p{i}", "NESW"[i % 4], i // 4, "PADCELL", f"sig{i}")
                       for i in range(40)))
    return db, cfg, memmap, diags, pads


def test_generate_renders_the_selftest_straight_to_text():
    db, cfg, memmap, diags, pads = _render_inputs()
    hash32 = db_hash(db)
    out, peak = _peak(emit.render_targets, db, cfg, hash32, memmap, diags, pads)
    assert len(out) == 9
    assert peak < 0.7 * RECORD_SELFTEST_PEAK
    # the text, and the joined runs of steps it is joined from; one join of a
    # string per step peaks at 3x
    text, peak = _peak(emit.emit_selftest, db, cfg, hash32)
    assert text == out["blk_selftest.txt"]
    assert peak < 2.5 * len(text)

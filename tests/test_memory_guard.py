"""Memory the bring-up path allocates, as tracemalloc counts it: every Python
allocation, the backtracking state of re included, and nothing that depends on
timing. A scan that keeps a list of steps, or matches a whole text with a
repeated group, fails here."""

import tracemalloc
import zlib

from chipkit import busmodel, script, uart_host
from chipkit.memmap import MemoryMap, Region
from chipkit.regdb import RegDb, RegEntry, load_canonical_db, load_db, save_db

# peak traced bytes of load_script + run_script on SCRIPT_TEXT when load_script
# built a ScriptStep per step (Python 3.11.7); the model's own words count too
LINE_LOOP_PEAK = 6_620_834

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

"""The benchmark harness stays runnable: its own self-test (reference model,
generator determinism, metric names against BENCHMARK.json) must pass. It
starts no chipkit process and checks no timings."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    result = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                            capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr

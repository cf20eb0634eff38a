#!/usr/bin/env python3
"""Run the mutation catalogue in tests/mutants.py.

Copies src/, tests/ and pyproject.toml to a temp directory, then, one row at
a time and in order, applies the row's mutant there, runs

  python -m pytest -x -q -p no:cacheprovider <the row's node ids>

and puts the file back. A row is killed when pytest reports a failed test,
survived when every test passes, and stale when its old text does not occur
exactly once or pytest ends any other way (a node id not found, or a
collection error). A row whose pytest runs past ROW_SECONDS is a timeout:
pytest and every process it started are killed. Prints one line per row and
the total time, removes the temp directory, and exits 1 unless every row is
killed.

Usage:
  python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import runpy
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROW_SECONDS = 120  # a row whose tests run longer is a timeout


def run_row(work: Path, row, env: dict) -> str:
    """The verdict on one row, with the mutant applied in work only while it runs."""
    target = work / row.path
    text = target.read_text(encoding="utf-8")
    if text.count(row.old) != 1:
        return "stale"
    target.write_text(text.replace(row.old, row.new), encoding="utf-8")
    # a session of its own, so that a timeout kills pytest with every process it started
    pytest = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *row.kills],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        code = pytest.wait(timeout=ROW_SECONDS)
    except subprocess.TimeoutExpired:
        os.killpg(pytest.pid, signal.SIGKILL)
        pytest.wait()
        return "timeout"
    finally:
        target.write_text(text, encoding="utf-8")
        # no failing example that Hypothesis saved for this row is replayed for the next
        shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    return {0: "survived", 1: "killed"}.get(code, "stale")


def main() -> int:
    rows = runpy.run_path(str(ROOT / "tests" / "mutants.py"))["MUTANTS"]
    start = time.perf_counter()
    verdicts = []
    with tempfile.TemporaryDirectory(prefix="chipkit-mutants-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        # no bytecode, so that no cached module of one mutant outlives its row
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        for row in rows:
            row_start = time.perf_counter()
            verdicts.append(run_row(work, row, env))
            print(f"{verdicts[-1]:<8} {row.id} ({time.perf_counter() - row_start:.1f} s)",
                  flush=True)
    killed = verdicts.count("killed")
    print(f"{killed}/{len(rows)} killed in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())

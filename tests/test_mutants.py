"""The mutation catalogue stays runnable. Runs no mutant: each row's old text
occurs exactly once in its file under src/, and every node id a row names is
collected. scripts/mutants.py runs the rows themselves; its time limit is
checked on a row of its own."""

import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent


def test_row_ids_are_unique():
    assert len({row.id for row in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("row", MUTANTS, ids=[row.id for row in MUTANTS])
def test_old_text_occurs_once(row):
    assert row.path.startswith("src/") and row.old != row.new and row.kills
    assert (ROOT / row.path).read_text(encoding="utf-8").count(row.old) == 1


def test_every_node_id_is_collected():
    ids = sorted({node for row in MUTANTS for node in row.kills})
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert set(ids) <= set(result.stdout.splitlines())


def test_a_row_past_its_time_limit_is_a_timeout(tmp_path, monkeypatch):
    """The row's pytest is killed when the limit runs out, the verdict is
    timeout, not killed, and the mutated file is put back."""
    spec = importlib.util.spec_from_file_location("run_mutants", ROOT / "scripts" / "mutants.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    monkeypatch.setattr(runner, "ROW_SECONDS", 2)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "slow.py").write_text("SECONDS = 0\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_slow.py").write_text(
        "import time\nimport slow\n\ndef test_slow():\n    time.sleep(slow.SECONDS)\n")
    row = Mutant("sleeps", "src/slow.py", "SECONDS = 0", "SECONDS = 60",
                 ("tests/test_slow.py::test_slow",))
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    assert runner.run_row(tmp_path, row, env) == "timeout"
    assert time.perf_counter() - start < 30
    assert (tmp_path / "src" / "slow.py").read_text() == "SECONDS = 0\n"
    assert runner.run_row(tmp_path, row._replace(new="SECONDS = 0.0"), env) == "survived"

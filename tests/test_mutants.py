"""The mutation catalogue stays runnable. Runs no mutant: each row's old text
occurs exactly once in its file under src/, and every node id a row names is
collected. scripts/mutants.py runs the rows themselves."""

import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

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

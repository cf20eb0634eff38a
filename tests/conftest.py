import os
import shutil
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

# child processes (python -m chipkit, scripts) may run from a temporary
# project directory, where a relative PYTHONPATH entry would not resolve
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def project_dir(tmp_path: Path) -> Path:
    """Scratch copy of the demo project (3 RTL modules, map, pads, config)."""
    shutil.copytree(FIXTURES / "rtl", tmp_path / "rtl")
    for name in ("soc.map", "pads.csv", "chipkit.cfg"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path

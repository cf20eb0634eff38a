"""The helper scripts build models by hand and drive run_script directly;
run each as users do so an API change that breaks them fails here."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_helper(name, *args, cwd):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=120)


def test_fault_sweep_detects_every_injected_fault(tmp_path):
    result = run_helper("fault_sweep.py", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "detected 46/46 injected faults" in result.stdout


def test_demo_project_runs_end_to_end(tmp_path):
    result = run_helper("demo_project.py", "--workdir", str(tmp_path / "demo"), cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr

"""The helper scripts build models by hand and drive run_script directly;
run each as users do so an API change that breaks them fails here."""

import hashlib
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_helper(name, *args, cwd):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=120)


# sha256 of the sweep's whole default output: its step count, the fault-free
# run, each of the 46 faults with the step and comment that caught it, and the
# total (49 lines)
FAULT_SWEEP_SHA256 = "9ca8fecfc17fee5f5069441a871d8269b7a02fe5301e340a8a22bbf1e3eecaf4"


def test_fault_sweep_detects_every_injected_fault(tmp_path):
    result = run_helper("fault_sweep.py", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("detected 46/46 injected faults\n")
    assert len(result.stdout.splitlines()) == 49
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == FAULT_SWEEP_SHA256


def test_demo_project_runs_end_to_end(tmp_path):
    result = run_helper("demo_project.py", "--workdir", str(tmp_path / "demo"), cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr

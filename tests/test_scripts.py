"""The helper scripts build models by hand and drive run_script directly;
run each as users do so an API change that breaks them fails here."""

import hashlib
import os
import re
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


def test_fault_sweep_stops_quietly_when_its_reader_leaves(tmp_path):
    """As under `| head -5`: five lines read, then the pipe closed while the
    sweep still has faults to print. Unbuffered, so each line is written as it
    is printed and the first write after the close fails."""
    proc = subprocess.Popen([sys.executable, "-u", str(SCRIPTS / "fault_sweep.py")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path)
    lines = [proc.stdout.readline() for _ in range(5)]
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    proc.wait(timeout=120)
    assert lines[-1].startswith(b"  mask_address_bit")
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


def test_demo_project_runs_end_to_end(tmp_path):
    result = run_helper("demo_project.py", "--workdir", str(tmp_path / "demo"), cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr


def test_regen_digest_is_a_function_of_the_seed(tmp_path):
    """Two runs on one seed print one digest, another seed another, and no
    run leaves a file behind, in its temp directory or elsewhere. The three
    run side by side."""
    src = str(SCRIPTS.parent / "src")
    (tmp_path / "temp").mkdir()
    env = dict(os.environ, TMPDIR=str(tmp_path / "temp"))
    runs = [subprocess.Popen([sys.executable, str(SCRIPTS / "regen_digest.py"), "--src", src,
                              "--seed", seed, "--modules", "5"], cwd=tmp_path, env=env,
                             text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for seed in ("5", "5", "6")]
    outs = [run.communicate(timeout=120) for run in runs]
    assert [run.returncode for run in runs] == [0, 0, 0], [err for _, err in outs]
    digests = [out for out, _ in outs]
    assert re.fullmatch(r"[0-9a-f]{64}\n", digests[0])
    assert digests[0] == digests[1] != digests[2]
    assert [p.name for p in tmp_path.rglob("*")] == ["temp"]

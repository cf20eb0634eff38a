#!/usr/bin/env python3
"""One sha256 over everything the benchmark's regen edit loop makes.

Builds the regen inputs for a seed with bench/gen.py, then runs chipkit from
the source directory DIR the way the loop does: update and generate on
revision A, then lint, update and generate after each flip to B, A, B and A.
The digest covers every command's exit code, stdout and stderr (with the
paths into the temp project made relative), and regs.csv and the gen/ tree
after each command. Two source trees that give one digest for a seed made
the same bytes everywhere the loop looks.

Usage:
  python3 scripts/regen_digest.py --src DIR --seed N [--modules M]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # bench/ is read, never written
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402

FLIPS = "BABA"


def _write(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def regen_digest(src: Path, seed: int, modules: int) -> str:
    corpus = gen.corpus(random.Random(seed), n_modules=modules)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="regen_digest.") as tmp:
        work = Path(tmp)
        env = {name: value for name, value in os.environ.items()
               if name not in ("PYTHONSTARTUP", "PYTHONHOME", "CHIPKIT_CONFIG")}
        env.update(PYTHONPATH=str(src.resolve()), PYTHONHASHSEED="0",
                   PYTHONPYCACHEPREFIX=str(work / "pycache"))
        project = work / "project"
        _write(project, {"chipkit.cfg": gen.project_config(),
                         "soc.map": gen.map_text(gen.soc_regions()),
                         "pads.csv": gen.pads_csv(), **corpus.files("A")})
        steps = [("A", ("update", "generate"))]
        steps += [(rev, ("lint", "update", "generate")) for rev in FLIPS]
        for rev, commands in steps:
            _write(project, corpus.files(rev, changed_only=True))
            for command in commands:
                done = subprocess.run([sys.executable, "-m", "chipkit", "--config", "chipkit.cfg",
                                       command], cwd=project, env=env, capture_output=True)
                digest.update(f"{rev} {command} exit {done.returncode}\n".encode())
                for stream in (done.stdout, done.stderr):  # paths named as from the project
                    digest.update(stream.replace(bytes(project) + b"/", b"") + b"\0")
                gen_dir = project / "gen"
                outputs = sorted(gen_dir.iterdir()) if gen_dir.is_dir() else []
                for path in [project / "regs.csv", *outputs]:
                    if path.is_file():
                        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", required=True, type=Path,
                        help="the directory that holds the chipkit package, put on PYTHONPATH")
    parser.add_argument("--seed", required=True, type=int, help="the inputs' random seed")
    parser.add_argument("--modules", type=int, default=100,
                        help="modules in the corpus (default 100, the benchmark's)")
    args = parser.parse_args()
    if not (args.src / "chipkit").is_dir():
        parser.error(f"--src {args.src}: no chipkit package there")
    print(regen_digest(args.src, args.seed, args.modules))
    return 0


if __name__ == "__main__":
    sys.exit(main())

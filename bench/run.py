"""chipkit benchmark: one workload, run the way users run chipkit.

Usage (from the repository root):
  python3 bench/run.py --workload {regen,bringup,session} --seed N --seconds S --trace {0,1}

Inputs are generated from the seed into a fresh work directory under
``.bench_work/``; chipkit receives only those files and lines. Every output
is checked against the benchmark's own reference. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
The lines before it print the same figures, and more, for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import spans
from harness import Chipkit, git_sha
from workloads import WORKLOADS, Context

ROOT = Path(__file__).resolve().parent.parent

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "latency_p50_ms": "ms"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "chipkit" / "cli.py").is_file():
        print(f"error: no chipkit sources under {src}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    ck = None
    try:
        ck = Chipkit(src, work)
        ctx = Context(args.seed, args.seconds, bool(args.trace), ck)
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        if ck is not None:
            ck.close()
        shutil.rmtree(work, ignore_errors=True)

    tally = ctx.tally
    units = {m: u for m, u, _b in spans.PER_LAYER} if args.trace else E2E_UNITS
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    rows = outcome.table or [(m, v, units[m], "") for m, v in outcome.metrics.items()]
    for name, value, unit, samples in rows:
        print(f"  {name:<48} {value:>16.6g} {unit:<6} {samples}")
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    env = {"git_sha": git_sha(ROOT), "python": platform.python_version(),
           "nproc": os.cpu_count(), "sizes": outcome.sizes}
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": outcome.metrics[m], "unit": units[m]} for m in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

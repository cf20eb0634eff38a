#!/usr/bin/env python3
"""Measure the detection power of the generated memory region test.

Sweeps every single address-bit and data-bit masking fault over an SRAM
region and reports whether the generated bit-toggle test catches it, plus the
step at which each detection fires.

Usage:
  python3 scripts/fault_sweep.py [--size-kb 64]
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chipkit import uart_host  # noqa: E402
from chipkit.busmodel import FaultConfig, build_soc, gen_region_test  # noqa: E402
from chipkit.memmap import MemoryMap, Region  # noqa: E402
from chipkit.script import save_script  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size-kb", type=int, default=64, help="SRAM region size in KiB")
    args = parser.parse_args()

    size = args.size_kb * 1024
    memmap = MemoryMap([Region("sram0", "sram", 0x60000000, size)])
    rows = gen_region_test(memmap, "sram0")
    script = save_script(rows)
    print(f"region: {args.size_kb} KiB at 0x60000000, test script: {len(rows)} steps")

    baseline = uart_host.run_script(build_soc(memmap, []), script)
    print(f"fault-free run: {'PASS' if baseline.ok else 'FAIL'} "
          f"({baseline.passed}/{baseline.total})")

    addr_bits = [k for k in range(2, 32) if (1 << k) < size]
    faults = [FaultConfig("mask_address_bit", k, "sram0") for k in addr_bits]
    faults += [FaultConfig("mask_data_bit", j, "sram0") for j in range(32)]

    detected = 0
    for fault in faults:
        soc = build_soc(memmap, [], fault=fault)
        report = uart_host.run_script(soc, script, stop_on_fail=True)
        caught = not report.ok
        detected += caught
        where = "MISSED"
        if caught:  # the step's comment names what it checked
            index = report.failures[0].index
            where = f"step {index}: {rows[index][2]}"
        print(f"  {fault.kind}({fault.bit:2d}) -> {'detected' if caught else 'missed':9} {where}")

    print(f"detected {detected}/{len(faults)} injected faults")
    return 0 if baseline.ok and detected == len(faults) else 1


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early, as `| head` does: stop quietly, and point
        # stdout at the null device so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)

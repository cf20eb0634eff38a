"""Fixed work in a fresh interpreter, timed to gauge the host's current speed.

On a host shared with other tenants, chipkit's timings drift with the load
of the machine by up to 2x over minutes. The benchmark times this script
next to every unit of work and scales its timings by REFERENCE_S over the
run's median, so that they read as if the host were at one fixed speed.

The work resembles the start of a chipkit process without running chipkit,
so a change to chipkit cannot move it: start an interpreter, import the
standard-library modules chipkit imports, and parse a 4,000-row CSV text.
"""

import argparse  # noqa: F401
import bisect  # noqa: F401
import configparser  # noqa: F401
import copy  # noqa: F401
import csv
import dataclasses  # noqa: F401
import io
import pathlib  # noqa: F401
import random  # noqa: F401
import re  # noqa: F401
import selectors  # noqa: F401
import socket  # noqa: F401
import tempfile  # noqa: F401
import zlib  # noqa: F401

# the wall time of this script, spawn included, at the speed the benchmark reports in
REFERENCE_S = 0.1

if __name__ == "__main__":
    rows = "".join(f"r{i:04d},{i % 32 + 1},RW,0x0,0x{4 * i + 4:x},blk_{i // 40:03d},,active\n"
                   for i in range(4000))
    list(csv.reader(io.StringIO(rows)))

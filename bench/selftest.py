"""Smallest-size self-test of the benchmark; no timings, no chipkit process.

Run: python3 bench/selftest.py

Checks the reference model against hand-written request/response pairs,
that the generators are deterministic per seed, and that BENCHMARK.json
names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from refmodel import Reg, Region, RefSoc  # noqa: E402

REGS_TEXT = (
    "name,width,access,reset,offset,origin_module,description,state\n"
    "ctl,8,RW,0x5,0x4,blk,,active\n"
    "sts,16,RO,0x1234,0x8,blk,,active\n"
    "old,4,RW,0x0,0xc,blk,,retired\n"
)
REGS = [Reg("ctl", 8, "RW", 0x5, 0x4, "active"), Reg("sts", 16, "RO", 0x1234, 0x8, "active"),
        Reg("old", 4, "RW", 0x0, 0xC, "retired")]
REGIONS = [Region("csr0", "csr", 0x50000000, 0x1000), Region("ram", "sram", 0x60000000, 0x100),
           Region("per", "peripheral", 0x70000000, 0x100)]

# in order; each write changes what later reads return
STRICT_PAIRS = [
    ("R 0x50000000", "0x38d35034"),  # ID register: CRC-32 of REGS_TEXT
    ("R 0x50000004", "0x00000005"),  # reset value
    ("W 0x50000004 0xffffffff", "OK"),
    ("R 0x50000004", "0x000000ff"),  # masked to 8 bits
    ("W 0x50000008 0xa5a5a5a5", "OK"),
    ("R 0x50000008", "0x00001234"),  # RO write ignored
    ("W 0x5000000c 0x00000001", "OK"),
    ("R 0x5000000c", "0xdeadbeef"),  # retired: reads like a hole
    ("R 0x50000ffc", "0xdeadbeef"),
    ("W 0x50000000 0x00000000", "OK"),
    ("R 0x50000000", "0x38d35034"),  # the ID register ignores writes
    ("R 0x60000000", "ERR XREAD"),
    ("W 0x60000000 0x12345678", "OK"),
    ("R 0x60000000", "0x12345678"),
    ("R 0x60000002", "ERR MISALIGNED"),
    ("W 0x70000001 0x00000001", "ERR MISALIGNED"),
    ("R 0x600000fc", "ERR XREAD"),
    ("R 0x60000100", "ERR UNMAPPED"),  # one past the SRAM
    ("W 0x80000000 0x00000001", "ERR UNMAPPED"),
    ("R 0x70000010", "ERR XREAD"),
]


class ReferenceModel(unittest.TestCase):
    def test_strict_pairs(self):
        ref = RefSoc(REGIONS, REGS, REGS_TEXT)
        for line, expected in STRICT_PAIRS:
            self.assertEqual(ref.respond(line), expected, line)

    def test_random_fill_must_repeat(self):
        ref = RefSoc(REGIONS, REGS, REGS_TEXT, random_fill=True)
        self.assertIsNone(ref.respond("R 0x60000010"))
        self.assertFalse(ref.check("R 0x60000010", "ERR XREAD"))
        self.assertTrue(ref.check("R 0x60000010", "0x0badf00d"))
        self.assertTrue(ref.check("R 0x60000010", "0x0badf00d"))
        self.assertFalse(ref.check("R 0x60000010", "0x00000000"))
        self.assertTrue(ref.check("W 0x60000010 0x00000007", "OK"))
        self.assertTrue(ref.check("R 0x60000010", "0x00000007"))
        self.assertTrue(ref.check("R 0x50000004", "0x00000005"))


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        def inputs(seed):
            rng = random.Random(seed)
            db = gen.soc_database(rng, n_regs=50)
            script, _n = gen.bringup_script(rng, gen.soc_regions(), db, 200)
            corpus = gen.corpus(rng, n_modules=3, n_ports=6, changed_frac=0.5)
            stream = gen.session_lines(random.Random(seed), gen.soc_regions(), db)
            return (db.text, script, corpus.files("A"), corpus.files("B"),
                    [next(stream) for _ in range(100)])

        self.assertEqual(inputs(7), inputs(7))
        self.assertNotEqual(inputs(7), inputs(8))

    def test_expected_rows_of_a_tiny_corpus(self):
        corpus = gen.Corpus([gen.Module("blk_000", [gen.Port("cfg_a", 3), gen.Port("sts_b", 8)],
                                        [gen.Port("cfg_a", 5), gen.Port("cfg_c", 1)])])
        self.assertEqual(corpus.expected_rows("A", seen_b=False), {
            ("cfg_a", 3, "RW", 0x4, "active"), ("sts_b", 8, "RO", 0x8, "active"),
            ("cfg_diag_sel", 1, "RW", 0xC, "active")})
        self.assertEqual(corpus.expected_rows("A"), {
            ("cfg_a", 3, "RW", 0x4, "active"), ("sts_b", 8, "RO", 0x8, "active"),
            ("cfg_diag_sel", 1, "RW", 0xC, "active"), ("cfg_c", 1, "RW", 0x10, "retired")})
        self.assertEqual(corpus.expected_rows("B"), {
            ("cfg_a", 5, "RW", 0x4, "active"), ("sts_b", 8, "RO", 0x8, "retired"),
            ("cfg_diag_sel", 1, "RW", 0xC, "active"), ("cfg_c", 1, "RW", 0x10, "active")})


class Definition(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(spans.PER_LAYER))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

"""The benchmark's three workloads, each a closed loop with at most one
chipkit process alive at a time.

* regen: the designer's edit loop. Each cycle flips the corpus between two
  revisions and runs ``lint``, ``update`` and ``generate``, each in a fresh
  process. Nearly all work is in sv_scan, regdb and emit; the bus model and
  the protocol host never run.
* bringup: ``run-test`` of one generated strict-X self-check script per unit,
  in a fresh process. Work is in script, uart_host, memmap and busmodel;
  regdb runs only while the model is built, sv_scan and emit never.
* session: ``sim --listen 0`` in random SRAM mode, one server per unit,
  driven by one client with one line outstanding. Every line crosses the
  socket and serve_tcp, and SRAM reads mostly hit the random power-up fill.

Units repeat until the measuring window closes. An untraced run takes a
set-up sample and a calibration sample (see calibrate.py) with each unit,
so that set-up, work and host speed are sampled under the same load on a
shared host, and reports end-to-end metrics. A traced run
alternates plain and traced units of the same fixed size, so that counts per
unit repeat exactly and the trace overhead is measured in the same run, and
reports per-layer metrics.
"""

from __future__ import annotations

import csv
import hashlib
import random
import re
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import gen
import spans
from harness import Chipkit, LineClient, Server, Tally, percentile
from refmodel import RefSoc, word

BRINGUP_STEPS = 20000
SESSION_LINES = 20000

_STEPS_RE = re.compile(r"^(\d+)/(\d+) steps passed", re.M)
_BUS_STATS_RE = re.compile(r"bus: (\d+) reads, (\d+) writes, (\d+) errors")


@dataclass
class Context:
    seed: int
    seconds: float
    traced: bool
    ck: Chipkit
    tally: Tally = field(default_factory=Tally)

    @property
    def work(self) -> Path:
        return self.ck.cwd

    def write(self, files: dict[str, str]) -> None:
        for name, text in files.items():
            path = self.work / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


@dataclass
class Outcome:
    metrics: dict  # the end-to-end metrics, or the per-layer ones when traced
    table: list = field(default_factory=list)  # (name, value, unit, samples) for people
    sizes: dict = field(default_factory=dict)


def _measure(ctx: Context, unit, setup_once=None) -> tuple[list, list, list, list]:
    """Run units until the window closes, at least once.

    Untraced: plain units, each followed by a set-up sample and a
    calibration sample. Traced: plain/traced pairs, the order swapped every
    pair. A first, discarded set-up and calibration fill the run's bytecode
    cache. Returns plain results, traced results, set-up samples and
    calibration samples.
    """
    plain, traced, setup, cal = [], [], [], []
    if setup_once:
        setup_once()
    ctx.ck.calibration_s()
    deadline = time.perf_counter() + ctx.seconds
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        if ctx.traced:
            for flag in ((False, True) if pair % 2 == 0 else (True, False)):
                (traced if flag else plain).append(unit(flag))
        else:
            plain.append(unit(False))
            if setup_once:
                setup.append(setup_once())
            cal.append(ctx.ck.calibration_s())
        pair += 1
    return plain, traced, setup, cal


def _layers(traced: list, plain_walls: list) -> dict:
    """Per-layer medians over the traced units, given as (wall, metrics)."""
    metrics = spans.median_metrics([m for _w, m in traced])
    metrics["trace.overhead_frac"] = (statistics.median(w for w, _m in traced)
                                      / statistics.median(plain_walls) - 1)
    return metrics


def _result(ctx: Context, setup: list, cal: list, latency_s: float, samples: int,
            rows: list, sizes: dict) -> Outcome:
    """End-to-end metrics, and a table of them with per-workload detail.

    Timings are scaled by calibrate.REFERENCE_S over the run's median
    calibration time, so that they read as if the host ran at the speed at
    which calibrate.py takes REFERENCE_S. The table also gives them as
    measured, as ``*_wall``. rows are (name, value as measured, unit, samples).
    """
    scale = calibrate.REFERENCE_S / statistics.median(cal)
    t = ctx.tally
    metrics = {"setup_s": statistics.median(setup) * scale,
               "peak_rss_mb": ctx.ck.peak_rss_kb / 1024,
               "latency_p50_ms": latency_s * 1e3 * scale}
    table = [("setup_s", metrics["setup_s"], "s", len(setup)),
             ("peak_rss_mb", metrics["peak_rss_mb"], "MiB", 1),
             ("latency_p50_ms", metrics["latency_p50_ms"], "ms", samples)]
    table += [(name, value / scale if unit == "1/s" else value * scale, unit, n)
              for name, value, unit, n in rows]
    table += [("failed_frac", t.failed / max(1, t.attempted), "ratio", t.attempted),
              ("calibration_wall_s", statistics.median(cal), "s", len(cal)),
              ("setup_wall_s", statistics.median(setup), "s", len(setup)),
              ("latency_p50_wall_ms", latency_s * 1e3, "ms", samples)]
    return Outcome(metrics, table, sizes)


# ---------------------------------------------------------------------------
# regen

_HASHED_ARTIFACTS = ("bench_csr.sv", "bench_csr_inst.sv", "bench_regs.md", "bench_regs.h",
                     "bench_regs.py", "bench_selftest.txt", "bench_diag_mux.sv")
_ALL_ARTIFACTS = _HASHED_ARTIFACTS + ("soc_memmap.svh", "pads_place.tcl")


class _EditLoop:
    """The corpus on disk and the checks of each command's outputs."""

    def __init__(self, ctx: Context, corpus: gen.Corpus):
        self.ctx = ctx
        self.corpus = corpus
        self.rev = "A"
        self.seen_b = False
        self.trees: dict[str, str] = {}
        self.checks = {"lint": self._check_lint, "update": self._check_update,
                       "generate": self._check_generate}

    def flip(self) -> None:
        self.rev = "B" if self.rev == "A" else "A"
        self.seen_b = self.seen_b or self.rev == "B"
        self.ctx.write(self.corpus.files(self.rev, changed_only=True))

    def command(self, name: str, traced: bool = False) -> float:
        r = self.ctx.ck.run(["--config", "chipkit.cfg", name], traced)
        ok = r.code == 0 and self.checks[name](r)
        self.ctx.tally.record(ok, f"{name} on revision {self.rev}: exit {r.code} {r.err[-300:]}")
        return r.wall_s

    def _check_lint(self, r) -> bool:
        return r.out == ""

    def _check_update(self, r) -> bool:
        with open(self.ctx.work / "regs.csv", newline="", encoding="utf-8") as handle:
            rows = {(row["name"], int(row["width"]), row["access"], int(row["offset"], 16),
                     row["state"]) for row in csv.DictReader(handle)}
        return rows == self.corpus.expected_rows(self.rev, self.seen_b)

    def _check_generate(self, r) -> bool:
        out = self.ctx.work / "gen"
        crc = word(zlib.crc32((self.ctx.work / "regs.csv").read_bytes()))
        if sorted(p.name for p in out.iterdir()) != sorted(_ALL_ARTIFACTS):
            return False
        if any(crc not in (out / name).read_text(encoding="utf-8") for name in _HASHED_ARTIFACTS):
            return False
        if not self.seen_b:  # the bootstrap tree is not a steady-state tree
            return True
        digest = hashlib.sha256()
        for name in sorted(_ALL_ARTIFACTS):
            digest.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
        return self.trees.setdefault(self.rev, digest.hexdigest()) == digest.hexdigest()

    def cycle(self, traced: bool = False) -> tuple[float, float, float]:
        self.flip()
        return (self.command("lint", traced), self.command("update", traced),
                self.command("generate", traced))


def regen(ctx: Context) -> Outcome:
    corpus = gen.corpus(random.Random(ctx.seed))
    files = corpus.files("A")
    ctx.write({"chipkit.cfg": gen.project_config(), "soc.map": gen.map_text(gen.soc_regions()),
               "pads.csv": gen.pads_csv(), "setup/empty.sv": "", **files})
    sizes = {"modules": len(corpus.modules), "rtl_bytes": sum(len(t) for t in files.values()),
             "registers": len(corpus.ports("A")),
             "changed_modules": sum(m.ports_b is not None for m in corpus.modules)}

    def lint_empty() -> float:
        r = ctx.ck.run(["lint", "setup/empty.sv"])
        ctx.tally.record(r.code == 0 and r.out == "", f"lint of an empty file: exit {r.code}")
        return r.wall_s

    loop = _EditLoop(ctx, corpus)
    loop.command("update")  # bootstrap regs.csv from revision A
    loop.command("generate")
    loop.cycle()  # warm-up: first scan of B, then back to A; from here on
    loop.cycle()  # each revision's database and tree repeat exactly

    def unit(traced: bool):
        times = loop.cycle(traced)
        if not traced:
            return times
        return sum(times), spans.unit_metrics(*spans.read_totals(ctx.ck.take_span_files()))

    plain, traced, setup, cal = _measure(ctx, unit, lint_empty)
    cycles = [sum(t) for t in plain]
    if ctx.traced:
        return Outcome(_layers(traced, cycles), sizes=sizes)
    n = len(plain)
    return _result(ctx, setup, cal, statistics.median(cycles), n, [
        ("lint_s", statistics.median(t[0] for t in plain), "s", n),
        ("update_s", statistics.median(t[1] for t in plain), "s", n),
        ("generate_s", statistics.median(t[2] for t in plain), "s", n)], sizes)


# ---------------------------------------------------------------------------
# bringup

def bringup(ctx: Context) -> Outcome:
    rng = random.Random(ctx.seed)
    regions = gen.soc_regions()
    db = gen.soc_database(rng)
    script, n_steps = gen.bringup_script(rng, regions, db, BRINGUP_STEPS)
    ctx.write({"soc.map": gen.map_text(regions), "regs.csv": db.text,
               "selftest.txt": script, "empty.txt": ""})
    sizes = {"regions": len(regions), "registers": len(db.regs), "script_steps": n_steps,
             "script_bytes": len(script)}
    args = ["run-test", "--map", "soc.map", "--db", "regs.csv", "--sram-mode", "strict_x",
            "--script"]

    def run_test(path: str, steps: int, traced: bool = False) -> float:
        """One run-test; its ops are the script steps (one for the empty script)."""
        r = ctx.ck.run(args + [path], traced)
        m = _STEPS_RE.search(r.out)
        ok = r.code == 0 and m is not None and m.group(1) == m.group(2) == str(steps)
        passed = int(m.group(1)) if r.code == 1 and m and int(m.group(2)) == steps else 0
        ops = max(1, steps)
        ctx.tally.record(ok, f"run-test {path}: exit {r.code} {r.out[-300:]}",
                         count=ops, failed=0 if ok else max(1, ops - passed))
        return r.wall_s

    def unit(traced: bool):
        wall = run_test("selftest.txt", n_steps, traced)
        if not traced:
            return wall
        return wall, spans.unit_metrics(*spans.read_totals(ctx.ck.take_span_files()))

    plain, traced, setup, cal = _measure(ctx, unit, lambda: run_test("empty.txt", 0))
    if ctx.traced:
        return Outcome(_layers(traced, plain), sizes=sizes)
    wall = statistics.median(plain)
    return _result(ctx, setup, cal, wall, len(plain), [
        ("steps_per_s", n_steps / (wall - statistics.median(setup)), "1/s", len(plain))], sizes)


# ---------------------------------------------------------------------------
# session

def _session(ctx: Context, args: list[str], regions, db, lines: int, traced: bool = False):
    """One server and one client session of `lines` lines, then ``Q``.

    Checks every response with the reference model, and the server's exit
    ``bus:`` line against the traffic sent. A lost session fails the
    unanswered line and every line not sent. Returns (server, round trips in ns).
    """
    ref = RefSoc(regions, db.regs, db.text, random_fill=True)
    server = Server(ctx.ck, args, traced)
    counts = {"R": 0, "W": 0, "ERR": 0}
    rtts: list[int] = []
    client = resp = None
    try:
        if server.port is not None:
            client = LineClient(server.port)
            stream = gen.session_lines(random.Random(f"{ctx.seed}:session"), regions, db)
            for _ in range(lines):
                line = next(stream)
                resp, rtt = client.request(line)
                counts[line[0]] += 1
                if resp is None:
                    break
                ok = ref.check(line, resp)
                if ok and resp.startswith("ERR"):
                    counts["ERR"] += 1
                ctx.tally.record(ok, f"{line} -> {resp}")
                rtts.append(rtt)
            if len(rtts) == lines:
                resp = client.request("Q")[0]
    except OSError as exc:
        ctx.tally.record(False, f"session: {exc}")
    finally:
        if client is not None:
            client.close()
        if resp != "OK":
            server.kill()
        code, err = server.finish()
    ctx.tally.record(len(rtts) == lines, "session lost", count=lines - len(rtts))
    ctx.tally.record(resp == "OK", f"Q -> {resp}")
    m = _BUS_STATS_RE.search(err)
    stats = tuple(map(int, m.groups())) if m else None
    expected = (counts["R"], counts["W"], counts["ERR"])
    ctx.tally.record(code == 0 and stats == expected,
                     f"server exit {code}, stats {stats}, sent {expected}")
    return server, rtts


def session(ctx: Context) -> Outcome:
    regions = gen.soc_regions()
    db = gen.soc_database(random.Random(ctx.seed))
    ctx.write({"soc.map": gen.map_text(regions), "regs.csv": db.text})
    args = ["--map", "soc.map", "--db", "regs.csv", "--sram-mode", f"random:{ctx.seed}"]
    sizes = {"regions": len(regions), "registers": len(db.regs), "lines_per_unit": SESSION_LINES}
    setup: list[float] = []  # each unit's server start is a set-up sample

    def unit(traced: bool):
        server, rtts = _session(ctx, args, regions, db, SESSION_LINES, traced)
        if not traced:
            setup.append(server.ready_s)
            return rtts
        totals, import_ns = spans.read_totals(ctx.ck.take_span_files())
        metrics = spans.unit_metrics(totals, import_ns)
        server_ns = totals["uart_host.parse_command"].incl_ns + totals["uart_host.execute"].incl_ns
        metrics["uart_host.serve_tcp.overhead_us_per_line"] = \
            (sum(rtts) - server_ns) / max(1, len(rtts)) / 1e3
        return sum(rtts), metrics

    _session(ctx, args, regions, db, 0)  # fills the run's bytecode cache
    plain, traced, _setup, cal = _measure(ctx, unit)
    if ctx.traced:
        return Outcome(_layers(traced, [sum(r) for r in plain]), sizes=sizes)
    rtts = [rtt for unit_rtts in plain for rtt in unit_rtts]
    return _result(ctx, setup, cal, percentile(rtts, 50) / 1e9, len(rtts), [
        ("rtt_p50_us", percentile(rtts, 50) / 1e3, "us", len(rtts)),
        ("rtt_p99_us", percentile(rtts, 99) / 1e3, "us", len(rtts))], sizes)


WORKLOADS = {"regen": regen, "bringup": bringup, "session": session}

"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import hashlib
import random
import re
import socket
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strategies as dbst
from chipkit import DataError, busmodel, cli, emit, regdb, sv_scan, uart_host
from chipkit.busmodel import BusError, FaultConfig, build_soc, bus_read, bus_write, gen_region_test
from chipkit.cli import main
from chipkit.memmap import MemoryMap, Region, load_memory_map
from chipkit.regdb import RegDb, db_hash, load_db, save_db, update_db
from chipkit.script import load_script, save_script
from chipkit.sv_scan import CsrCandidate, SourceFile, lint, parse_modules


def _report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture
def proj(project_dir, monkeypatch):
    monkeypatch.chdir(project_dir)
    monkeypatch.setenv(cli.CONFIG_ENV, str(project_dir / "chipkit.cfg"))
    return project_dir


def test_criterion_1_end_to_end_pipeline(proj, capsys):
    start = time.perf_counter()

    # corpus sanity: 3 modules, 12 candidates (8 RW / 4 RO), 3 diag signals
    conv = sv_scan.NamingConvention()
    mods = []
    for path in sorted((proj / "rtl").glob("*.sv")):
        mods.extend(parse_modules(SourceFile.from_path(path)))
    cands = [c for m in mods for c in sv_scan.extract_csr_candidates(m, conv)]
    diags = [d for m in mods for d in sv_scan.extract_diag_candidates(m, conv)]
    corpus_ok = (len(mods) == 3 and len(cands) == 12 and len(diags) == 3
                 and sum(c.access == "RW" for c in cands) == 8
                 and sum(c.access == "RO" for c in cands) == 4)

    update_ok = main(["update"]) == 0
    generate_ok = main(["generate"]) == 0
    run_ok = main(["run-test", "--script", "gen/demo_selftest.txt"]) == 0
    out = capsys.readouterr().out
    m = re.search(r"(\d+)/(\d+) steps passed", out)
    all_steps = m is not None and m.group(1) == m.group(2) and int(m.group(2)) > 0

    # a live sim session answers the ID read with the database hash
    soc = cli._build_model(cli._apply(cli.ProjectConfig(), cli._ini_values(str(proj / "chipkit.cfg"))))
    listener = uart_host.open_listener()
    port = listener.getsockname()[1]
    thread = threading.Thread(target=uart_host.serve_tcp, args=(soc, listener), daemon=True)
    thread.start()
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall(b"R 0x50000000\nQ\n")
        conn.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = conn.recv(4096)
            if not chunk:
                break
            data += chunk
    thread.join(timeout=5)
    listener.close()
    db = load_db((proj / "regs.csv").read_text())
    sim_ok = data.decode().splitlines() == [f"0x{regdb.db_hash(db):08x}", "OK"]

    elapsed = time.perf_counter() - start
    _report(1, "end-to-end pipeline",
            corpus_ok and update_ok and generate_ok and run_ok and all_steps
            and sim_ok and elapsed < 5.0,
            f"{m.group(0) if m else 'no report'}, {elapsed:.2f}s")


def test_criterion_2_code_volume():
    db, _ = update_db(RegDb(), [CsrCandidate(f"cfg_r{i:03d}", 8, "RW", "blk")
                                for i in range(100)])
    cfg = emit.EmitConfig(block_name="blk", base_address=0x50000000,
                          csr_region_size_bytes=0x1000)
    start = time.perf_counter()
    rtl = emit.emit_csr_rtl(db, cfg, db_hash(db))
    elapsed = time.perf_counter() - start
    lines = rtl.count("\n")
    _report(2, "hundred registers exceed a thousand RTL lines",
            lines > 1000 and elapsed < 1.0, f"{lines} lines in {elapsed * 1000:.0f}ms")


def test_criterion_3_lint_fidelity(fixtures_dir):
    counter_clean = lint(SourceFile.from_path(fixtures_dir / "my_counter.sv")) == []
    per_rule_ok = True
    details = []
    for name, rule in (("w001_wire.sv", "W001"), ("w002_reg.sv", "W002"),
                       ("w003_always.sv", "W003")):
        found = [v.rule_id for v in lint(SourceFile.from_path(fixtures_dir / "lint" / name))]
        per_rule_ok &= found == [rule]
        details.append(f"{rule}:{'ok' if found == [rule] else found}")
    _report(3, "lint fidelity", counter_clean and per_rule_ok,
            f"counter clean={counter_clean}, " + ", ".join(details))


def test_criterion_4_default_slave_totality():
    memmap = MemoryMap([
        Region("uart0", "peripheral", 0x40000000, 0x100),
        Region("csr0", "csr", 0x50000000, 0x1000),
        Region("sram0", "sram", 0x60000000, 0x10000),
    ])
    db, _ = update_db(RegDb(), [CsrCandidate("cfg_a", 8, "RW", "m")])
    soc = build_soc(memmap, [("csr0", db, db_hash(db))], sram_mode="random", seed=1)

    def oracle_mapped(addr):
        # independent interval arithmetic over the raw region list
        return any(r.base <= addr < r.base + r.size_bytes for r in memmap.regions)

    rng = random.Random(0xC0FFEE)
    mismatches = 0
    for _ in range(10_000):
        addr = rng.randrange(0, 1 << 32) & ~0x3
        result = bus_read(soc, addr)
        model_mapped = not (isinstance(result, BusError) and result.kind == busmodel.ERR_UNMAPPED)
        mismatches += model_mapped != oracle_mapped(addr)
    _report(4, "default-slave totality", mismatches == 0,
            f"{10_000 - mismatches}/10000 verdicts match oracle")


def test_criterion_5_bit_toggle_fault_detection():
    memmap = MemoryMap([
        Region("csr0", "csr", 0x50000000, 0x1000),
        Region("sram0", "sram", 0x60000000, 0x10000),  # 64 KB
    ])
    db, _ = update_db(RegDb(), [CsrCandidate("cfg_a", 8, "RW", "m")])
    script = save_script(gen_region_test(memmap, "sram0"))

    clean = uart_host.run_script(build_soc(memmap, [("csr0", db, db_hash(db))]), script)
    faults = [FaultConfig("mask_address_bit", k, "sram0") for k in range(2, 16)]
    faults += [FaultConfig("mask_data_bit", j, "sram0") for j in range(32)]
    detected = 0
    for fault in faults:
        soc = build_soc(memmap, [("csr0", db, db_hash(db))], fault=fault)
        if not uart_host.run_script(soc, script).ok:
            detected += 1
    # the stated fault sets enumerate 14 address bits + 32 data bits = 46 faults
    _report(5, "bit-toggle fault detection",
            clean.ok and detected == len(faults),
            f"fault-free ok={clean.ok}, {detected}/{len(faults)} faults detected")


def test_criterion_6_strict_x_semantics():
    memmap = MemoryMap([Region("sram0", "sram", 0x60000000, 0x1000)])
    rng = random.Random(0x5EED)
    false_positive = false_negative = wrong_value = 0
    for _ in range(1000):
        soc = build_soc(memmap, [], sram_mode="strict_x")
        written = {}
        for _ in range(rng.randrange(2, 12)):
            word = rng.randrange(0, 0x1000 // 4)
            addr = 0x60000000 + word * 4
            if rng.random() < 0.5:
                value = rng.randrange(0, 1 << 32)
                bus_write(soc, addr, value)
                written[word] = value
            else:
                result = bus_read(soc, addr)
                if word in written:
                    if isinstance(result, BusError):
                        false_positive += 1
                    elif result != written[word]:
                        wrong_value += 1
                elif not (isinstance(result, BusError)
                          and result.kind == busmodel.ERR_XREAD):
                    false_negative += 1
    _report(6, "strict-X semantics",
            false_positive == false_negative == wrong_value == 0,
            f"fp={false_positive} fn={false_negative} wrong={wrong_value} over 1000 orderings")


def test_criterion_7_database_laws():
    cases = {}
    law_settings = settings(max_examples=1000, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])

    @law_settings
    @given(db=dbst.reg_dbs())
    def round_trip(db):
        assert load_db(save_db(db)) == db
        cases["round_trip"] = cases.get("round_trip", 0) + 1

    @law_settings
    @given(db=dbst.reg_dbs(), rounds=st.lists(dbst.candidate_lists(), min_size=1, max_size=3))
    def update_laws(db, rounds):
        """The three laws of update_db on one draw: the first merge is
        idempotent and keeps every offset, and no merge gives an offset to a
        second name."""
        owner = {e.offset_bytes: e.name for e in db.entries}
        for i, cands in enumerate(rounds):
            try:
                new, _ = update_db(db, cands)
            except DataError as exc:
                if "collides with a retired" not in str(exc):
                    raise
                continue
            if i == 0:
                assert all(new.entry(e.name).offset_bytes == e.offset_bytes
                           for e in db.entries), "offset_stability"
                cases["stability"] = cases.get("stability", 0) + 1
                again, report = update_db(new, cands)
                assert again == new and report.empty, "idempotent"
                cases["idempotent"] = cases.get("idempotent", 0) + 1
            for e in new.entries:
                assert owner.setdefault(e.offset_bytes, e.name) == e.name, "no_offset_reuse"
            db = new  # noqa: PLW2901
        cases["no_reuse"] = cases.get("no_reuse", 0) + 1

    failures = []
    for law in (round_trip, update_laws):
        try:
            law()
        except AssertionError as exc:
            failures.append(f"{law.__name__}: {exc}")
    _report(7, "database laws", not failures,
            "; ".join(failures) if failures else
            f"4 laws x >=1000 generated cases, 0 counterexamples")


def test_criterion_8_generate_determinism(proj):
    def tree_hash(root: Path) -> str:
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*")):
            if path.is_file():
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()

    ok = main(["update"]) == 0
    ok &= main(["generate", "--out", "gen_a"]) == 0
    ok &= main(["generate", "--out", "gen_b"]) == 0
    ha, hb = tree_hash(proj / "gen_a"), tree_hash(proj / "gen_b")
    _report(8, "byte-identical regeneration", ok and ha == hb, f"sha256 {ha[:16]}.. == {hb[:16]}..")


def test_criterion_9_protocol_conformance():
    memmap = MemoryMap([
        Region("csr0", "csr", 0x50000000, 0x1000),
        Region("sram0", "sram", 0x60000000, 0x10000),
    ])
    db, _ = update_db(RegDb(), [CsrCandidate("cfg_a", 16, "RW", "m"),
                                CsrCandidate("sts_b", 8, "RO", "m")])

    rng = random.Random(0xFACE)
    commands = []
    for _ in range(1000):
        roll = rng.random()
        addr = rng.choice([
            0x50000000 + 4 * rng.randrange(0, 8),
            0x60000000 + 4 * rng.randrange(0, 64),
            rng.randrange(0, 1 << 32) & ~0x3,   # often unmapped
            rng.randrange(0, 1 << 32),          # possibly misaligned
        ])
        if roll < 0.45:
            commands.append(f"R 0x{addr:08x}")
        elif roll < 0.9:
            commands.append(f"W 0x{addr:08x} 0x{rng.randrange(0, 1 << 32):08x}")
        elif roll < 0.95:
            commands.append("?")
        else:
            commands.append(f"R 0x{rng.randrange(1 << 33):x}")  # may overflow 32 bits

    import io
    soc_a = build_soc(memmap, [("csr0", db, db_hash(db))])
    rfile = io.BytesIO(("".join(c + "\n" for c in commands)).encode())
    wfile = io.BytesIO()
    uart_host.serve(soc_a, rfile, wfile)
    responses = wfile.getvalue().decode().splitlines()

    count_ok = len(responses) == 1000
    read_format_ok = all(
        re.fullmatch(r"0x[0-9a-f]{8}", resp) or resp.startswith("ERR ")
        for cmd, resp in zip(commands, responses) if cmd.upper().startswith("R"))

    soc_b = build_soc(memmap, [("csr0", db, db_hash(db))])
    script = load_script(save_script((cmd, resp, "") for cmd, resp in zip(commands, responses)))
    replay = uart_host.run_script(soc_b, script)
    _report(9, "protocol conformance",
            count_ok and read_format_ok and replay.ok,
            f"{len(responses)} responses, replay {replay.passed}/{replay.total}")

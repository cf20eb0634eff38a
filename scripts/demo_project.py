#!/usr/bin/env python3
"""End-to-end walkthrough on a scratch project.

Creates a small two-module RTL corpus in a work directory, then drives the
full flow: update -> generate -> run-test, and finally replays the generated
self-test over a live protocol session.

Usage:
  python3 scripts/demo_project.py [--workdir DIR] [--keep]
"""

from __future__ import annotations

import argparse
import shutil
import socket
import sys
import tempfile
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chipkit import cli, uart_host  # noqa: E402
from chipkit.cli import main as chipkit_main  # noqa: E402

SENSOR_RTL = """\
`include "RTL.svh"

module sensor_hub (
  input  logic        clock,
  input  logic        reset_n,
  input  logic [11:0] cfg_threshold,
  input  logic        cfg_arm,
  output logic        sts_triggered,
  output logic [15:0] sts_peak,
  output logic        diag_armed,
  input  logic [11:0] level
);

logic [15:0] peak;
logic [15:0] peak_next;
always_comb peak_next = ({4'd0, level} > peak) ? {4'd0, level} : peak;
`FF(peak_next, peak, clock, cfg_arm, reset_n, '0);

always_comb sts_peak = peak;
always_comb sts_triggered = cfg_arm & (level > cfg_threshold);
always_comb diag_armed = cfg_arm;

endmodule  // sensor_hub
"""

PUMP_RTL = """\
`include "RTL.svh"

module pump_ctrl (
  input  logic       clock,
  input  logic       reset_n,
  input  logic [7:0] cfg_duty,
  output logic [7:0] sts_actual,
  output logic       diag_pwm,
  output logic       pwm_out
);

logic [7:0] phase;
logic [7:0] phase_next;
always_comb phase_next = phase + 8'd1;
`FF(phase_next, phase, clock, 1'b1, reset_n, '0);

always_comb pwm_out = (phase < cfg_duty);
always_comb sts_actual = cfg_duty;
always_comb diag_pwm = pwm_out;

endmodule  // pump_ctrl
"""

MAP_TEXT = """\
region csr0  csr  0x50000000 0x1000
region sram0 sram 0x60000000 0x8000
"""

CONFIG_TEXT = """\
[project]
rtl = rtl
db = regs.csv
out = gen
map = soc.map

[emit]
block_name = demo
base_address = 0x50000000
region_size_bytes = 0x1000
targets = rtl,inst,md,c,py,test,memmap,diag
diag_pins = 2
"""


def run(argv: list[str], workdir: Path) -> None:
    print(f"$ chipkit {' '.join(argv)}")
    code = chipkit_main(["--config", str(workdir / "chipkit.cfg")] + argv)
    if code != 0:
        sys.exit(f"demo failed: chipkit {' '.join(argv)} exited {code}")


def live_session(workdir: Path) -> None:
    cfg = cli._apply(cli.ProjectConfig(), cli._ini_values(str(workdir / "chipkit.cfg")))
    soc = cli._build_model(cfg)
    listener = uart_host.open_listener()
    port = listener.getsockname()[1]
    thread = threading.Thread(target=uart_host.serve_tcp, args=(soc, listener), daemon=True)
    thread.start()
    script = (workdir / "gen" / "demo_selftest.txt").read_text()
    commands = [l[2:] for l in script.splitlines() if l.startswith("> ")]
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        payload = "".join(c + "\n" for c in commands) + "Q\n"
        conn.sendall(payload.encode())
        conn.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = conn.recv(4096)
            if not chunk:
                break
            data += chunk
    thread.join(timeout=5)
    listener.close()
    responses = data.decode().splitlines()
    print(f"live session: {len(commands)} self-test commands replayed, "
          f"{len(responses)} responses, last={responses[-1]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", help="project directory (default: temp)")
    parser.add_argument("--keep", action="store_true", help="do not delete the temp dir")
    args = parser.parse_args()

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="chipkit_demo_"))
    (workdir / "rtl").mkdir(parents=True, exist_ok=True)
    (workdir / "rtl" / "sensor_hub.sv").write_text(SENSOR_RTL)
    (workdir / "rtl" / "pump_ctrl.sv").write_text(PUMP_RTL)
    (workdir / "soc.map").write_text(MAP_TEXT)
    (workdir / "chipkit.cfg").write_text(CONFIG_TEXT)
    print(f"project in {workdir}")

    rtl = str(workdir / "rtl")
    db = str(workdir / "regs.csv")
    run(["lint", rtl], workdir)
    run(["update", "--rtl", rtl, "--db", db], workdir)
    run(["generate", "--db", db, "--out", str(workdir / "gen"), "--map", str(workdir / "soc.map")],
        workdir)
    run(["run-test", "--script", str(workdir / "gen" / "demo_selftest.txt"),
         "--db", db, "--map", str(workdir / "soc.map")], workdir)
    live_session(workdir)

    print("generated artifacts:")
    for path in sorted((workdir / "gen").iterdir()):
        print(f"  {path.name:24} {path.stat().st_size:6} bytes")
    if not args.workdir and not args.keep:
        shutil.rmtree(workdir)
        print("(scratch directory removed; pass --keep to inspect it)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

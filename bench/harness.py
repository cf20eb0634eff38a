"""Running chipkit as users do, with a timeout on every process and socket read."""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
SPAWNER = Path(__file__).resolve().parent / "spawner.py"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"

COMMAND_TIMEOUT_S = 60.0
SOCKET_TIMEOUT_S = 10.0
RUN_LIMIT_S = 170.0  # a whole run ends within 180 s, even if chipkit hangs

_LISTENING_RE = re.compile(rb"listening on 127\.0\.0\.1:(\d+)")


@dataclass
class Tally:
    """Operations attempted and failed; an op is a CLI command, a script
    step or a protocol line."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ok: bool, what: str = "", count: int = 1, failed: int | None = None) -> None:
        self.attempted += count
        bad = (0 if ok else count) if failed is None else failed
        self.failed += bad
        if bad and len(self.problems) < 20:
            self.problems.append(what)


@dataclass
class Result:
    code: int | None  # None: killed at the timeout
    out: str
    err: str
    wall_s: float


class Chipkit:
    """Starts ``python -m chipkit`` (or the traced launcher) in a work dir,
    through spawner.py, with the absolute ``src`` on PYTHONPATH and nothing
    else inherited that could change what runs: no config from the
    environment, and a bytecode cache of the run's own. Close it to stop the
    spawner."""

    def __init__(self, src: Path, workdir: Path):
        self.cwd = workdir
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        env = dict(os.environ)
        for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "PYTHONHOME", "CHIPKIT_CONFIG"):
            env.pop(name, None)
        env["PYTHONPATH"] = str(src.resolve())
        env["PYTHONPYCACHEPREFIX"] = str(workdir / "pycache")
        env["PYTHONHASHSEED"] = "0"
        self.span_files: list[Path] = []
        self.peak_rss_kb = 0  # largest max-RSS of any chipkit process so far
        self._spawner = subprocess.Popen([sys.executable, "-S", str(SPAWNER)], cwd=workdir,
                                         env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._replies = b""
        self._running: int | None = None  # pid of the started, not yet reaped process

    def close(self) -> None:
        """Stop the spawner, and first any process it still waits for."""
        if self._running is not None:
            _kill(self._running)
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()
        self._spawner.stdout.close()

    def timeout(self) -> float:
        return max(1.0, min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter()))

    def argv(self, args: list[str], traced: bool) -> list[str]:
        if not traced:
            return [sys.executable, "-m", "chipkit", *args]
        spans = self.cwd / "spans" / f"{len(self.span_files)}.bin"
        spans.parent.mkdir(exist_ok=True)
        self.span_files.append(spans)
        return [sys.executable, str(LAUNCHER), str(spans), *args]

    def _reply(self, timeout: float | None) -> dict | None:
        """The spawner's next reply, or None at the timeout."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        fd = self._spawner.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._replies:
                left = None if deadline is None else deadline - time.perf_counter()
                if left is not None and (left <= 0 or not sel.select(left)):
                    return None
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError("spawner exited")
                self._replies += chunk
        line, self._replies = self._replies.split(b"\n", 1)
        return json.loads(line)

    def start(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float]:
        """Start a process; returns its pid and start time."""
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr)}
        self._spawner.stdin.write(json.dumps(request).encode() + b"\n")
        self._spawner.stdin.flush()
        reply = self._reply(None)
        if "error" in reply:
            raise RuntimeError(f"cannot start {argv}: {reply['error']}")
        self._running = reply["pid"]
        return reply["pid"], reply["start"]

    def wait(self, pid: int, chipkit: bool = True) -> tuple[int | None, float]:
        """Wait for the started process, killing it at the timeout, and keep
        its max RSS if it is chipkit. Returns its exit code (None if killed
        at the timeout) and its end time."""
        reply = self._reply(self.timeout())
        killed = reply is None
        if killed:
            _kill(pid)
            reply = self._reply(None)
        self._running = None
        if chipkit:
            self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
        code = os.waitstatus_to_exitcode(reply["status"])
        return (None if killed else code), reply["end"]

    def run(self, args: list[str], traced: bool = False) -> Result:
        out, err = self.cwd / "cmd.out", self.cwd / "cmd.err"
        pid, start = self.start(self.argv(args, traced), out, err)
        code, end = self.wait(pid)
        return Result(code, out.read_text("utf-8", "replace"), err.read_text("utf-8", "replace"),
                      end - start)

    def calibration_s(self) -> float:
        """Wall time of calibrate.py in a fresh interpreter; raises if it fails."""
        out = self.cwd / "calibrate.out"
        pid, start = self.start([sys.executable, str(CALIBRATE)], out, out)
        code, end = self.wait(pid, chipkit=False)
        if code != 0:
            raise RuntimeError(f"{CALIBRATE} failed: {out.read_text('utf-8', 'replace')}")
        return end - start

    def take_span_files(self) -> list[Path]:
        files, self.span_files = self.span_files, []
        return files


class Server:
    """One ``chipkit sim --listen 0`` process; ``ready_s`` is the time from
    spawn to its ``listening on`` line, ``port`` None if it never came."""

    def __init__(self, ck: Chipkit, args: list[str], traced: bool = False):
        self.ck = ck
        self.err = ck.cwd / "sim.err"
        fifo = ck.cwd / "sim.out"
        if not fifo.exists():
            os.mkfifo(fifo)
        # open the read end first: the server's open of the write end waits for it
        self.out = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        self.pid = None
        self.port = None
        try:
            self.pid, start = ck.start(ck.argv(["sim", "--listen", "0", *args], traced),
                                       fifo, self.err)
            self._wait_listening(start + ck.timeout())
        except BaseException:
            if self.pid is not None:
                self.kill()
                self.finish()
            else:
                os.close(self.out)
            raise
        self.ready_s = time.perf_counter() - start

    def _wait_listening(self, deadline: float) -> None:
        seen = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.out, selectors.EVENT_READ)
            while self.port is None and time.perf_counter() < deadline:
                if not sel.select(timeout=deadline - time.perf_counter()):
                    break
                chunk = os.read(self.out, 4096)
                if not chunk:
                    break
                seen += chunk
                m = _LISTENING_RE.search(seen)
                if m and seen.endswith(b"\n"):
                    self.port = int(m.group(1))

    def kill(self) -> None:
        _kill(self.pid)

    def finish(self) -> tuple[int | None, str]:
        """Wait for the server to exit, killing it at the timeout; returns
        its exit code (None if killed at the timeout) and its stderr."""
        try:
            code, _end = self.ck.wait(self.pid)
        finally:
            os.close(self.out)
        return code, self.err.read_text("utf-8", "replace")


class LineClient:
    """One protocol session over TCP with TCP_NODELAY and one line outstanding."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def request(self, line: str) -> tuple[str | None, int]:
        """Response line and round trip in ns; None if the server closed,
        reset or timed out."""
        start = time.perf_counter_ns()
        try:
            self.sock.sendall(line.encode() + b"\n")
            while b"\n" not in self.buffer:
                chunk = self.sock.recv(4096)
                if not chunk:
                    return None, time.perf_counter_ns() - start
                self.buffer += chunk
        except OSError:
            return None, time.perf_counter_ns() - start
        rtt = time.perf_counter_ns() - start
        raw, self.buffer = self.buffer.split(b"\n", 1)
        return raw.decode("utf-8", "replace"), rtt

    def close(self) -> None:
        self.sock.close()


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # already gone
        pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from its own .git, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"

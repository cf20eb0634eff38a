"""Text bus-master protocol: one command line in, exactly one response line out.

Grammar: ``R <addr>``, ``W <addr> <data>``, ``?``, ``Q``; verbs are
case-insensitive, numbers are hex with or without a 0x prefix. Responses are
fixed strings (``0x`` + 8 hex digits, ``OK``, ``ERR <KIND>``) so scripted
sessions are portable across hosts. A blank line gets no response. A line
longer than MAX_LINE characters is answered ``ERR PARSE`` naming its first 16
characters and ``...``; the rest of it, up to its LF, is skipped. With a
prompt, ``> `` is sent when a session starts and after every line but ``Q``.

execute_line answers every line; run_script, serve and serve_tcp only read,
write and count. The serving loop is the sole owner of the model for a
session; a second concurrent connection is refused busy.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import Record, busmodel
from .busmodel import BusError, SocModel
from .script import RESP_OK, TestScript

HELP_LINE = "R <addr> | W <addr> <data> | ? (help) | Q (quit)"
BUSY_LINE = "ERR BUSY"

MAX_LINE = 1024  # characters, not counting the LF
# a UTF-8 character is at most 4 bytes, so a server that holds this many bytes
# of a line holds more than MAX_LINE characters of it
_MAX_LINE_BYTES = 4 * MAX_LINE

_DRAIN_S = 1.0  # how long a server that answered Q reads what the client still sends

_ERR_LINE = {
    busmodel.ERR_UNMAPPED: "ERR UNMAPPED",
    busmodel.ERR_MISALIGNED: "ERR MISALIGNED",
    busmodel.ERR_XREAD: "ERR XREAD",
}

_HEX_RE = re.compile(r"^(0[xX])?[0-9a-fA-F]+$")
# a word is hex with at most 8 digits after leading zeros; the newline that
# may end a W address is the one ``$`` in _HEX_RE has always allowed there
_WORD = r"(?:0[xX])?0*([0-9a-fA-F]{1,8})"
_COMMAND_RE = re.compile(
    rf"[Rr][ \t]+{_WORD}|[Ww][ \t]+{_WORD}\n?[ \t]+{_WORD}|([?Qq])")
_ARITY = {"R": 2, "W": 3, "?": 1, "Q": 1}


class ParseError(Exception):
    def __init__(self, token: str):
        super().__init__(token)
        self.token = token


class Command(NamedTuple):
    """Names the fields of the bare (op, addr, data) tuple parse_command returns."""
    op: str  # R | W | ? | Q
    addr: int | None = None
    data: int | None = None


def _offending_token(text: str) -> str:
    """The token to name in ERR PARSE for a line _COMMAND_RE rejected."""
    parts = re.split(r"[ \t]+", text)
    arity = _ARITY.get(parts[0].upper())
    if arity is None:
        return parts[0]
    if len(parts) < arity:
        return text
    if len(parts) > arity:
        return parts[arity]
    for token in parts[1:]:
        if not _HEX_RE.match(token) or int(token, 16) > 0xFFFFFFFF:
            return token
    raise AssertionError(f"valid command rejected: {text!r}")


def parse_command(line: str):
    """(op, addr, data) for a line, equal to its Command, or None for a blank
    line. Raises ParseError."""
    text = line.strip()
    if not text:
        return None
    m = _COMMAND_RE.fullmatch(text)
    if m is None:
        raise ParseError(_offending_token(text))
    read_addr, addr, data, verb = m.groups()
    if read_addr is not None:
        return "R", int(read_addr, 16), None
    if addr is not None:
        return "W", int(addr, 16), int(data, 16)
    return verb.upper(), None, None


def execute(soc: SocModel, cmd: Command) -> str:
    """One response line per command, a Command or its bare tuple; never raises."""
    op, addr, data = cmd
    if op == "R":
        result = busmodel.bus_read(soc, addr)
        if result.__class__ is BusError:
            return _ERR_LINE[result.kind]
        return f"0x{result:08x}"  # format_word without its mask: bus words are 32-bit
    if op == "W":
        result = busmodel.bus_write(soc, addr, data)
        return RESP_OK if result is None else _ERR_LINE[result.kind]
    if op == "?":
        return HELP_LINE
    return RESP_OK  # Q


def execute_line(soc: SocModel, line: str) -> tuple[str | None, bool]:
    """The response to one raw line (None for a blank line) and whether the
    line was Q; never raises."""
    if len(line) > MAX_LINE:
        return f"ERR PARSE {line[:16]}...", False
    try:
        cmd = parse_command(line)
    except ParseError as exc:
        return f"ERR PARSE {exc.token}", False
    if cmd is None:
        return None, False
    return execute(soc, cmd), cmd[0] == "Q"


# ---------------------------------------------------------------------------
# scripted runs

class StepFailure(NamedTuple):
    index: int
    command: str
    expected: str
    actual: str


class TestReport(NamedTuple):
    __test__ = False  # keep pytest from collecting this as a test class

    total: int
    passed: int
    failures: list[StepFailure]

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def run_script(soc: SocModel, script: TestScript, stop_on_fail: bool = False) -> TestReport:
    failures = []
    i = -1
    for i, step in enumerate(script.steps):
        actual = execute_line(soc, step.command)[0] or ""
        if actual != step.expected:
            failures.append(StepFailure(i, step.command, step.expected, actual))
            if stop_on_fail:
                break
    return TestReport(i + 1, i + 1 - len(failures), failures)


def format_report(report: TestReport) -> str:
    lines = [f"{report.passed}/{report.total} steps passed"]
    for f in report.failures:
        lines.append(f"step {f.index}: {f.command} -> expected {f.expected!r}, got {f.actual!r}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# interactive serving

class SessionSummary(Record):
    __slots__ = ("lines", "responses", "sessions", "quit_seen")

    def __init__(self, sessions: int = 0):
        self.lines = 0
        self.responses = 0
        self.sessions = sessions
        self.quit_seen = False


def _reply(soc: SocModel, raw: bytes, summary: SessionSummary, prompt: bool) -> bytes:
    """What a server sends back for one line read without its LF: the
    response, if any, then the prompt unless the line was Q."""
    summary.lines += 1
    response, summary.quit_seen = execute_line(soc, raw.decode("utf-8", errors="replace"))
    out = b""
    if response is not None:
        summary.responses += 1
        out = response.encode("utf-8") + b"\n"
    if prompt and not summary.quit_seen:
        out += b"> "
    return out


def serve(soc: SocModel, rfile, wfile, prompt: bool = False) -> SessionSummary:
    """Line loop over byte streams; ends on Q, EOF, or stream failure."""
    summary = SessionSummary(sessions=1)
    try:
        if prompt:
            wfile.write(b"> ")
            wfile.flush()
        while not summary.quit_seen:
            raw = rfile.readline(_MAX_LINE_BYTES + 1)
            if not raw:
                break
            wfile.write(_reply(soc, raw.removesuffix(b"\n"), summary, prompt))
            wfile.flush()
            while len(raw) > _MAX_LINE_BYTES and not raw.endswith(b"\n"):
                raw = rfile.readline(_MAX_LINE_BYTES + 1)  # the rest of an overlong line
    except OSError:
        pass
    return summary


def open_listener(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    import socket  # imported here, so run-test and a stdio sim never load it
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(4)
    return listener


def _drain_and_close(conn) -> None:
    """End a session after Q: half-close, read until the client closes or _DRAIN_S
    pass, then close. Closing with input unread resets the connection and loses answers."""
    import socket
    import time
    deadline = time.monotonic() + _DRAIN_S
    with conn:
        try:
            conn.shutdown(socket.SHUT_WR)
            while (left := deadline - time.monotonic()) > 0:
                conn.settimeout(left)
                if not conn.recv(65536):
                    break
        except OSError:
            pass  # a timeout, or the client is gone


def serve_tcp(soc: SocModel, listener: socket.socket, prompt: bool = False) -> SessionSummary:
    """Serve sessions one at a time until a client quits.

    EOF, a reset or a failed send ends a session but keeps the server alive
    (model state persists); connections arriving while a session is active
    are refused with a busy line, which keeps transaction ordering trivially
    serial.
    """
    import selectors  # like socket, loaded only to serve TCP
    summary = SessionSummary()
    sel = selectors.DefaultSelector()
    sel.register(listener, selectors.EVENT_READ)
    active: socket.socket | None = None
    buffer = b""  # the start of a line whose LF has not arrived
    skipping = False  # the rest of an answered overlong line is still arriving
    try:
        while True:
            events = sel.select()
            # handle session traffic (including EOFs) before new connects, so a
            # client that disconnected and immediately reconnected is not
            # refused against its own dead session
            events.sort(key=lambda item: 1 if item[0].fileobj is listener else 0)
            for key, _ in events:
                if key.fileobj is listener:
                    conn, _addr = listener.accept()
                    if active is not None:
                        try:
                            conn.sendall(BUSY_LINE.encode() + b"\n")
                        except OSError:
                            pass  # the refused client is gone already
                        finally:
                            conn.close()
                        continue
                    active = conn
                    buffer, skipping = b"", False
                    summary.sessions += 1
                    sel.register(conn, selectors.EVENT_READ)
                    if prompt:
                        try:
                            conn.sendall(b"> ")
                        except OSError:
                            pass  # its next recv ends the session
                    continue
                conn = key.fileobj
                try:
                    chunk = conn.recv(4096)
                    lines = (buffer + chunk).split(b"\n")
                    buffer = lines.pop()
                    if skipping and lines:
                        del lines[0]
                        skipping = False
                    if skipping:
                        buffer = b""
                    elif len(buffer) > _MAX_LINE_BYTES:
                        lines.append(buffer)
                        buffer, skipping = b"", True
                    for raw in lines:
                        out = _reply(soc, raw, summary, prompt)
                        if out:
                            conn.sendall(out)
                        if summary.quit_seen:
                            sel.unregister(conn)
                            _drain_and_close(conn)
                            return summary
                except OSError:
                    chunk = b""  # reset or broken pipe: the session is over
                if not chunk:
                    sel.unregister(conn)
                    conn.close()
                    active = None
    finally:
        sel.close()

import io
import re
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from chipkit import busmodel, emit, uart_host
from chipkit.memmap import MemoryMap, Region
from chipkit.regdb import RegDb, db_hash, update_db
from chipkit.script import load_script, save_script, scan_script
from chipkit.sv_scan import CsrCandidate
from chipkit.uart_host import (
    MAX_LINE,
    ParseError,
    StepFailure,
    TestReport,
    execute,
    execute_line,
    open_listener,
    parse_command,
    run_script,
    serve,
    serve_tcp,
)

MAP = MemoryMap([
    Region("csr0", "csr", 0x50000000, 0x1000),
    Region("sram0", "sram", 0x60000000, 0x10000),
])


def make_db(reset=0xF):
    db, _ = update_db(RegDb(), [CsrCandidate("cfg_a", 4, "RW", "m1")])
    db.entries[0] = db.entries[0]._replace(reset_value=reset)  # cfg_a, the only entry
    return db


def make_soc(db=None):
    db = db or make_db()
    return busmodel.build_soc(MAP, [("csr0", db, db_hash(db))])


class TestParse:
    def test_read_verbatim(self):
        assert parse_command("R 0x70000000") == ("R", 0x70000000, None)

    def test_write(self):
        assert parse_command("W 0x50000004 0xdead0001") == \
            ("W", 0x50000004, 0xDEAD0001)

    def test_bad_token_reported(self):
        with pytest.raises(ParseError) as err:
            parse_command("R 0xZZ")
        assert err.value.token == "0xZZ"

    def test_empty_line_is_noop(self):
        assert parse_command("") is None
        assert parse_command("   \t ") is None

    def test_case_insensitive_verbs(self):
        assert parse_command("r 10") == ("R", 0x10, None)
        assert parse_command("w 10 2") == ("W", 0x10, 2)

    def test_bare_hex(self):
        assert parse_command("R 70000000") == ("R", 0x70000000, None)

    def test_tabs_and_padding(self):
        assert parse_command("  R\t0x4  ") == ("R", 4, None)

    def test_crlf_tolerated(self):
        assert parse_command("R 0x4\r") == ("R", 4, None)

    def test_value_too_wide(self):
        with pytest.raises(ParseError):
            parse_command("R 0x100000000")

    def test_arity_errors(self):
        with pytest.raises(ParseError):
            parse_command("R")
        with pytest.raises(ParseError):
            parse_command("W 0x4")
        with pytest.raises(ParseError) as err:
            parse_command("R 0x4 junk")
        assert err.value.token == "junk"

    def test_unknown_verb(self):
        with pytest.raises(ParseError) as err:
            parse_command("X 0x4")
        assert err.value.token == "X"

    def test_help_and_quit(self):
        assert parse_command("?") == ("?", None, None)
        assert parse_command("q") == ("Q", None, None)


class TestExecute:
    def test_read_format(self):
        soc = make_soc()
        assert execute(soc, ("R", 0x50000004, None)) == "0x0000000f"

    def test_unmapped_read(self):
        assert execute(make_soc(), ("R", 0x10, None)) == "ERR UNMAPPED"

    def test_misaligned(self):
        assert execute(make_soc(), ("R", 0x50000001, None)) == "ERR MISALIGNED"

    def test_xread(self):
        assert execute(make_soc(), ("R", 0x60000000, None)) == "ERR XREAD"

    def test_write_ok(self):
        assert execute(make_soc(), ("W", 0x60000000, 1)) == "OK"

    def test_help_single_line(self):
        text = execute(make_soc(), ("?", None, None))
        assert "\n" not in text and "R <addr>" in text

    def test_parse_error_line(self):
        assert execute_line(make_soc(), "R 0xZZ") == ("ERR PARSE 0xZZ", False)
        assert execute_line(make_soc(), "") == (None, False)

    def test_quit_line(self):
        assert execute_line(make_soc(), " q ") == ("OK", True)
        assert execute_line(make_soc(), "W 0x60000000 0x1") == ("OK", False)


class TestRunScript:
    def test_generated_selftest_passes(self):
        db = make_db()
        cfg = emit.EmitConfig(block_name="b", base_address=0x50000000)
        report = run_script(make_soc(db), emit.emit_selftest(emit.prepare(db, cfg, db_hash(db))))
        assert report.ok and report.total == report.passed > 0

    def test_different_db_fails_id_step(self):
        db = make_db()
        other = make_db(reset=0x3)
        cfg = emit.EmitConfig(block_name="b", base_address=0x50000000)
        report = run_script(make_soc(other), emit.emit_selftest(emit.prepare(db, cfg, db_hash(db))))
        assert not report.ok
        assert report.failures[0].index == 0  # ID step

    def test_single_wrong_expectation(self):
        sc = save_script([
            ("W 0x60000000 0x1", "OK", ""),
            ("R 0x60000000", "0x00000002", ""),
            ("R 0x60000000", "0x00000001", ""),
        ])
        report = run_script(make_soc(), sc)
        assert report.total == 3 and report.passed == 2
        assert [f.index for f in report.failures] == [1]

    def test_stop_on_fail(self):
        sc = save_script([("R 0x0", "0x0", ""), ("W 0x60000000 0x1", "OK", "")])
        report = run_script(make_soc(), sc, stop_on_fail=True)
        assert report.total == 1 and not report.ok

    def test_invariant_passed_plus_failures(self):
        sc = save_script([("R 0x0", "nope", ""), ("W 0x60000000 0x1", "OK", "")])
        report = run_script(make_soc(), sc)
        assert report.passed + len(report.failures) == report.total == 2


class TestScriptFile:
    def test_round_trip(self):
        """A saved script holds the steps of the rows it was saved from, and
        replays them, decoded or not."""
        rows = [("R 0x4", "0x00000000", "first"),
                ("W 0x4 0x1", "OK", ""),
                ("W 0x60000000 0x00000001", "OK", "a decoded step"),
                ("R 0x60000000", "0x00000002", "")]
        text = save_script(rows)
        assert load_script(text) == text
        assert [step[:2] for step in scan_script(text)] == [row[:2] for row in rows]
        assert run_script(make_soc(), load_script(text)) == TestReport(4, 1, [
            StepFailure(0, "R 0x4", "0x00000000", "ERR UNMAPPED"),
            StepFailure(1, "W 0x4 0x1", "OK", "ERR UNMAPPED"),
            StepFailure(3, "R 0x60000000", "0x00000002", "0x00000001")])

    def test_comments_and_blanks(self):
        text = "# leading note\n\n> R 0x4\n< OK\n"
        assert list(scan_script(text)) == [("R 0x4", "OK", None)]
        assert list(scan_script("# note\n> R 0x00000004\n< OK\n")) == \
            [("R 0x00000004", "OK", ("R", 4, None))]

    def test_malformed(self):
        with pytest.raises(Exception):
            load_script("> R 0x4\n> R 0x8\n")
        with pytest.raises(Exception):
            load_script("< OK\n")
        with pytest.raises(Exception):
            load_script("> R 0x4\n")


def run_session(soc, lines, prompt=False):
    rfile = io.BytesIO(("".join(line + "\n" for line in lines)).encode())
    wfile = io.BytesIO()
    summary = serve(soc, rfile, wfile, prompt=prompt)
    return summary, wfile.getvalue().decode()


class TestServe:
    def test_bad_line_then_continues(self):
        soc = make_soc()
        summary, out = run_session(soc, ["R", "R 0x50000004"])
        assert out.splitlines() == ["ERR PARSE R", "0x0000000f"]
        assert summary.responses == 2

    def test_quit_ends_and_state_persists(self):
        soc = make_soc()
        _, out = run_session(soc, ["W 0x60000000 0x7", "Q", "R 0x60000000"])
        assert out.splitlines() == ["OK", "OK"]  # third line never processed
        # model retains the write across sessions
        _, out2 = run_session(soc, ["R 0x60000000"])
        assert out2.splitlines() == ["0x00000007"]

    def test_response_bijection(self):
        lines = ["R 0x50000000", "garbage", "W 0x50000004 0x1", "?", "R 0xZZ"] * 20
        summary, out = run_session(make_soc(), lines)
        assert len(out.splitlines()) == len(lines) == summary.responses

    def test_blank_lines_are_noops(self):
        _, out = run_session(make_soc(), ["", "R 0x50000004", ""])
        assert out.splitlines() == ["0x0000000f"]

    def test_prompt_mode(self):
        _, out = run_session(make_soc(), ["R 0x50000004"], prompt=True)
        assert out.startswith("> ")

    def test_read_format_law(self):
        lines = [f"R 0x{0x50000000 + 4 * i:08x}" for i in range(32)]
        _, out = run_session(make_soc(), lines)
        for line in out.splitlines():
            assert re.fullmatch(r"0x[0-9a-f]{8}|ERR \w+( .*)?", line)

    def test_script_serve_equivalence(self):
        db = make_db()
        cfg = emit.EmitConfig(block_name="b", base_address=0x50000000)
        text = emit.emit_selftest(emit.prepare(db, cfg, db_hash(db)))
        steps = list(scan_script(text))
        _, out = run_session(make_soc(db), [command for command, _, _ in steps])
        via_serve = out.splitlines()
        report = run_script(make_soc(db), text)
        assert report.ok
        assert via_serve == [expected for _, expected, _ in steps]

    def test_stats_conservation(self):
        soc = make_soc()
        lines = ["R 0x50000000", "W 0x60000000 0x1", "?", "", "R 0xZZ", "R 0x60000000"]
        run_session(soc, lines)
        transactions = soc.stats.reads + soc.stats.writes
        assert transactions == 3  # two reads + one write; ?, blank, parse error excluded


def _client(port, lines):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall(("".join(l + "\n" for l in lines)).encode())
        conn.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = conn.recv(4096)
            if not chunk:
                return data.decode()
            data += chunk


class TestServeTcp:
    def test_session_busy_reject_and_quit(self):
        soc = make_soc()
        listener = open_listener()
        port = listener.getsockname()[1]
        result = {}

        def server():
            result["summary"] = serve_tcp(soc, listener)

        t = threading.Thread(target=server, daemon=True)
        t.start()
        try:
            first = socket.create_connection(("127.0.0.1", port), timeout=5)
            ffile = first.makefile("rwb")
            ffile.write(b"R 0x50000004\n")
            ffile.flush()
            assert ffile.readline() == b"0x0000000f\n"

            # second connection while the first is active: refused busy
            second = socket.create_connection(("127.0.0.1", port), timeout=5)
            assert second.makefile("rb").readline() == b"ERR BUSY\n"
            second.close()

            # first session still works, EOF keeps the server alive
            ffile.write(b"W 0x60000000 0x2a\n")
            ffile.flush()
            assert ffile.readline() == b"OK\n"
            ffile.close()  # makefile holds a reference; close both to send FIN
            first.close()

            # third session sees persisted state and shuts the server down
            out = _client(port, ["R 0x60000000", "Q"])
            assert out.splitlines() == ["0x0000002a", "OK"]
        finally:
            t.join(timeout=5)
            listener.close()
        assert not t.is_alive()
        assert result["summary"].sessions == 2
        assert result["summary"].quit_seen

    def test_ordered_batch(self):
        soc = make_soc()
        listener = open_listener()
        port = listener.getsockname()[1]
        t = threading.Thread(target=serve_tcp, args=(soc, listener), daemon=True)
        t.start()
        try:
            lines = [f"W 0x{0x60000000 + 4 * i:08x} 0x{i:x}" for i in range(100)]
            lines += [f"R 0x{0x60000000 + 4 * i:08x}" for i in range(100)]
            lines.append("Q")
            out = _client(port, lines).splitlines()
            assert len(out) == 201
            assert out[:100] == ["OK"] * 100
            assert out[100:200] == [f"0x{i:08x}" for i in range(100)]
        finally:
            t.join(timeout=5)
            listener.close()


    def test_reset_client_ends_only_its_session(self):
        soc = make_soc()
        listener = open_listener()
        port = listener.getsockname()[1]
        result = {}

        def server():
            result["summary"] = serve_tcp(soc, listener)

        t = threading.Thread(target=server, daemon=True)
        t.start()
        try:
            first = socket.create_connection(("127.0.0.1", port), timeout=5)
            ffile = first.makefile("rwb")
            ffile.write(b"W 0x60000000 0x2a\n")
            ffile.flush()
            assert ffile.readline() == b"OK\n"
            ffile.close()
            # queue lines whose replies are never read, then reset the
            # connection, so the server's sends fail with the session mid-batch
            try:
                first.sendall(b"R 0x60000000\n" * 20000)
            except OSError:
                pass
            first.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            first.close()

            # the server may still be busy with the dead session for a moment
            deadline = time.monotonic() + 5
            while True:
                out = _client(port, ["R 0x60000000", "Q"])
                if out != "ERR BUSY\n" or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert out.splitlines() == ["0x0000002a", "OK"]
        finally:
            t.join(timeout=5)
            listener.close()
        assert not t.is_alive()
        assert result["summary"].sessions == 2
        assert result["summary"].quit_seen


class TestResponseProperties:
    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(
        ["R 0x50000000", "W 0x50000004 0x3", "R 0x123", "junk", "?", "R 0x60000010"]),
        min_size=1, max_size=30))
    def test_one_response_per_command(self, lines):
        summary, out = run_session(make_soc(), lines)
        assert len(out.splitlines()) == len(lines)


def _read_to_eof(conn) -> bytes:
    out = b""
    while chunk := conn.recv(65536):
        out += chunk
    return out


def _tcp_session(soc, data: bytes, prompt: bool = False, quit_after: bool = False):
    """Serve one TCP session that sends data and half-closes, and with
    quit_after a second that sends Q; returns what the first client received
    and the server's summary."""
    listener = open_listener()
    result = {}
    t = threading.Thread(
        target=lambda: result.update(summary=serve_tcp(soc, listener, prompt)), daemon=True)
    t.start()
    try:
        with socket.create_connection(listener.getsockname(), timeout=10) as conn:
            conn.sendall(data)
            conn.shutdown(socket.SHUT_WR)
            out = _read_to_eof(conn)
        if quit_after:
            assert _client(listener.getsockname()[1], ["Q"]) == "OK\n"
    finally:
        t.join(timeout=10)
        listener.close()
    assert not t.is_alive()
    return out, result["summary"]


class TestPipelinedTcp:
    """A client that keeps several lines in flight gets each batch of replies
    at once: without TCP_NODELAY on the session's socket, every reply but a
    batch's first waited for the client's delayed acknowledgement, and 200
    reads took 4.4 s two at a time and 1.7 s five at a time."""

    @pytest.mark.parametrize("in_flight", [2, 5])
    def test_200_reads_in_under_a_second(self, in_flight):
        listener = open_listener()
        t = threading.Thread(target=serve_tcp, args=(make_soc(), listener), daemon=True)
        t.start()
        try:
            with socket.create_connection(listener.getsockname(), timeout=10) as conn:
                batch, replies = b"R 0x50000004\n" * in_flight, b"0x0000000f\n" * in_flight
                start = time.monotonic()
                for _ in range(200 // in_flight):
                    conn.sendall(batch)
                    out = b""
                    while len(out) < len(replies):
                        chunk = conn.recv(4096)
                        assert chunk, "server closed the session"
                        out += chunk
                    assert out == replies
                elapsed = time.monotonic() - start
                conn.sendall(b"Q\n")
                assert _read_to_eof(conn) == b"OK\n"
        finally:
            t.join(timeout=10)
            listener.close()
        assert not t.is_alive()
        assert elapsed < 1.0, f"200 reads, {in_flight} in flight, took {elapsed:.2f} s"


class TestQuitWithUnreadInput:
    def test_no_answer_lost_after_q(self):
        # closing on Q with this client's input unread made the kernel reset
        # the connection, and the client lost answers already sent
        lines = [f"W 0x{0x60000000 + 4 * i:08x} 0x{i:x}" for i in range(50)] + ["Q"] \
            + ["R 0x60000000"] * 20000
        out, summary = _tcp_session(make_soc(), "".join(l + "\n" for l in lines).encode())
        assert out == b"OK\n" * 51
        assert (summary.lines, summary.responses, summary.quit_seen) == (51, 51, True)


class TestUnendedLastLine:
    """A line still open at EOF is answered over stdio and TCP alike, unless
    it is the rest of an overlong line already answered."""

    @pytest.mark.parametrize("data, expected", [
        pytest.param(b"W 0x60000000 0x5\nR 0x60000000", b"OK\n0x00000005\n", id="read"),
        pytest.param(b"R 0x50000004\r", b"0x0000000f\n", id="only-line-CR"),
        # an open blank line is a line with no response
        pytest.param(b"W 0x60000000 0x5\n \t", b"OK\n", id="blank"),
        # answered once, when it overflows the hold
        pytest.param(b"x" * 5000, b"ERR PARSE xxxxxxxxxxxxxxxx...\n", id="overlong"),
    ])
    def test_stdio_and_tcp_alike(self, data, expected):
        soc_stdio, soc_tcp = make_soc(), make_soc()
        wfile = io.BytesIO()
        stdio = serve(soc_stdio, io.BytesIO(data), wfile)
        tcp_out, tcp = _tcp_session(soc_tcp, data, quit_after=True)
        assert wfile.getvalue() == tcp_out == expected
        lines, responses = data.count(b"\n") + 1, expected.count(b"\n")
        # the TCP summary also counts the second client's Q
        assert (stdio.lines, stdio.responses) == (tcp.lines - 1, tcp.responses - 1) == \
            (lines, responses)
        assert soc_stdio.stats == soc_tcp.stats


class _Chunks:
    """An rfile whose read1 returns data cut at the given offsets, and every
    4,096 bytes after a cut, in order, then b"" for EOF."""

    def __init__(self, data: bytes, cuts):
        self.chunks = []
        start = 0
        for end in [*sorted(set(cuts) & set(range(1, len(data)))), len(data)]:
            self.chunks += [data[i:min(i + 4096, end)] for i in range(start, end, 4096)]
            start = end

    def read1(self, size: int) -> bytes:
        chunk = self.chunks.pop(0) if self.chunks else b""
        assert len(chunk) <= size
        return chunk


class TestLineCap:
    """A line longer than MAX_LINE gets one bounded ERR PARSE, and reading
    resumes at the next line, on both servers."""

    STREAM = b"x" * (1 << 20) + b"\nR 0x50000004\nQ\n"  # 1 MiB with no LF, then two lines
    EXPECTED = b"ERR PARSE xxxxxxxxxxxxxxxx...\n0x0000000f\nOK\n"

    def test_stdio(self):
        wfile = io.BytesIO()
        summary = serve(make_soc(), io.BytesIO(self.STREAM), wfile)
        assert wfile.getvalue() == self.EXPECTED
        assert (summary.lines, summary.responses, summary.quit_seen) == (3, 3, True)

    @pytest.mark.parametrize("line", [
        pytest.param("x" * 4096, id="4096"),
        pytest.param("x" * 4097, id="4097"),
        # its first 1,024 characters fill the 4,096-byte hold without being
        # over the cap, so answering a full hold would name all of them
        pytest.param("\U0001d54f" * (MAX_LINE + 1), id="1025-four-byte-chars"),
    ])
    @pytest.mark.parametrize("cuts", [
        pytest.param(lambda n: range(1 << 13), id="1-byte"),
        pytest.param(lambda n: (), id="4096-byte"),
        pytest.param(lambda n: (n,), id="LF-in-the-next-chunk"),
        pytest.param(lambda n: (n - 1,), id="LF-in-the-same-chunk"),
    ])
    def test_stdio_chunks_around_the_hold(self, line, cuts):
        # a line of up to 4,096 bytes is held whole, a longer one answered as
        # it overflows the hold; each gets the same one ERR PARSE
        raw = line.encode()
        wfile = io.BytesIO()
        summary = serve(make_soc(), _Chunks(raw + self.STREAM[1 << 20:], cuts(len(raw))), wfile)
        assert wfile.getvalue() == f"ERR PARSE {line[:16]}...\n0x0000000f\nOK\n".encode()
        assert (summary.lines, summary.responses, summary.quit_seen) == (3, 3, True)

    def test_tcp(self):
        out, summary = _tcp_session(make_soc(), self.STREAM)
        assert out == self.EXPECTED
        assert (summary.lines, summary.responses, summary.quit_seen) == (3, 3, True)

    def test_cap_boundary(self):
        soc = make_soc()
        at_cap = "R " + "0" * (MAX_LINE - 2)  # a zero-padded address of 0
        assert execute_line(soc, at_cap) == ("ERR UNMAPPED", False)
        assert execute_line(soc, at_cap + "0") == ("ERR PARSE R 00000000000000...", False)
        junk = "j" * MAX_LINE
        assert execute_line(soc, junk) == (f"ERR PARSE {junk}", False)

    def test_multibyte_line_over_the_cap_in_characters(self):
        # 1,500 two-byte characters fit one read but exceed the cap; 3,000
        # exceed one read and are cut mid-character
        for count in (1500, 3000):
            data = ("é" * count + "\nR 0x50000004\nQ\n").encode()
            wfile = io.BytesIO()
            serve(make_soc(), io.BytesIO(data), wfile)
            tcp_out, _ = _tcp_session(make_soc(), data)
            expected = ("ERR PARSE " + "é" * 16 + "...\n0x0000000f\nOK\n").encode()
            assert wfile.getvalue() == tcp_out == expected

    def test_prompt_rule_is_shared(self):
        data = b"R 0x50000004\n\n  \nQ\nR 0x50000004\n"
        wfile = io.BytesIO()
        serve(make_soc(), io.BytesIO(data), wfile, prompt=True)
        assert wfile.getvalue() == b"> 0x0000000f\n> > > OK\n"
        out, _ = _tcp_session(make_soc(), data, prompt=True)
        assert out == wfile.getvalue()


_PIECES = ["R", "r", "W", "w", "?", " ", "  ", "\t", "\r", "0x50000004", "0x60000000",
           "60000010", "0x123", "0x" + "f" * 9, "0" * 12 + "1", "junk", "0xZZ", "é"]
_lines = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=6).map("".join),
    st.sampled_from(["", "x" * 5000, "é" * 1500]),  # blank and overlong lines
)


class TestTransportEquivalence:
    """execute_line line by line, serve over byte streams and serve_tcp answer
    the same lines alike and leave the model alike."""

    @settings(max_examples=40, deadline=None)
    @given(before=st.lists(_lines, max_size=12), quit_line=st.sampled_from(["Q", " q\r", "\tQ"]),
           after=st.lists(_lines, max_size=3))
    def test_same_responses_summaries_and_stats(self, before, quit_line, after):
        served = before + [quit_line]
        # each line on its own, as run_script answers a step it does not
        # decode; a script's text cannot hold a CR or an overlong line
        soc_lines = make_soc()
        via_lines = [response for response in (execute_line(soc_lines, l)[0] for l in served)
                     if response is not None]

        soc_stdio = make_soc()
        wfile = io.BytesIO()
        stdio = serve(soc_stdio, io.BytesIO("".join(l + "\n" for l in served + after).encode()),
                      wfile)
        soc_tcp = make_soc()
        tcp_out, tcp = _tcp_session(soc_tcp, "".join(l + "\n" for l in served + after).encode())

        via_stdio = wfile.getvalue().decode().split("\n")
        assert via_stdio.pop() == ""
        assert via_lines == via_stdio == tcp_out.decode().split("\n")[:-1]
        assert (stdio.lines, stdio.responses, stdio.quit_seen) == \
            (tcp.lines, tcp.responses, tcp.quit_seen) == (len(served), len(via_lines), True)
        assert soc_lines.stats == soc_stdio.stats == soc_tcp.stats


_ADDRS = ["0x60000000", "0x60000004", "0x60000008"]
_session_lines = st.one_of(
    st.sampled_from(_ADDRS).map("R {}".format),
    st.tuples(st.sampled_from(_ADDRS), st.integers(0, 0xFFFFFFFF)).map(
        lambda pair: f"W {pair[0]} 0x{pair[1]:x}"),
    st.lists(st.sampled_from(["R", "W", "?", " ", "\t", "\r", "0x6000000", "0x50000004",
                              "junk", "é"]), max_size=4).map("".join),
)


class SessionMachine(RuleBasedStateMachine):
    """serve_tcp, in prompt mode, against a line-level model of its sessions.

    Every rule but connect first connects if no session is open. The model
    answers each line the client completes with execute_line on a shadow
    model that sees exactly those lines, and an overlong line once: at its LF,
    or as soon as more of it was sent than the 4 * MAX_LINE bytes a server
    holds of a line. Every rule waits for the answers it expects, whose
    prompts show that the server has read what was sent. A quit ends the
    server, and a new one serves the same model, so state has to persist
    across sessions and servers for the shadow's reads to agree.
    """

    def __init__(self):
        super().__init__()
        self.soc, self.shadow = make_soc(), make_soc()
        self.client = None
        self._start_server()

    def _start_server(self):
        self.listener = open_listener()
        self.result = {}
        self.server = threading.Thread(target=lambda: self.result.update(
            summary=serve_tcp(self.soc, self.listener, prompt=True)), daemon=True)
        self.server.start()
        self.summary = uart_host.SessionSummary()  # what the server must report

    def _answer(self, raw: bytes) -> bytes:
        self.summary.lines += 1
        response, self.summary.quit_seen = execute_line(
            self.shadow, raw.decode("utf-8", errors="replace"))
        out = b""
        if response is not None:
            self.summary.responses += 1
            out = response.encode() + b"\n"
        return out if self.summary.quit_seen else out + b"> "

    def _send(self, data: bytes) -> None:
        expected = b""
        *ended, rest = data.split(b"\n")
        for piece in ended:
            line, self.open_line = self.open_line + piece, b""
            if not self.answered:
                expected += self._answer(line)
            self.answered = False
        self.open_line += rest
        if len(self.open_line) > 4 * MAX_LINE and not self.answered:
            expected += self._answer(self.open_line)
            self.answered = True
        self.client.sendall(data)
        got = b""
        while len(got) < len(expected) and (chunk := self.client.recv(65536)):
            got += chunk
        assert got == expected

    def _open(self):
        if self.client is None:
            self.connect()

    def _drop_client(self):
        self.client.close()
        self.client = None

    @precondition(lambda self: self.client is None)
    @rule()
    def connect(self):
        deadline = time.monotonic() + 5
        while True:
            client = socket.create_connection(self.listener.getsockname(), timeout=5)
            greeting = client.recv(2)
            if greeting == b">":
                greeting += client.recv(1)
            if greeting == b"> ":
                break
            # the server is still ending the session of a client that reset
            assert greeting + _read_to_eof(client) == b"ERR BUSY\n"
            client.close()
            assert time.monotonic() < deadline
            time.sleep(0.01)
        self.client = client
        self.summary.sessions += 1
        self.open_line, self.answered = b"", False

    @rule(lines=st.lists(_session_lines, min_size=1, max_size=4), cut=st.integers(min_value=0))
    def send_split(self, lines, cut):
        self._open()
        data = "".join(line + "\n" for line in lines).encode()
        cut %= len(data) + 1
        self._send(data[:cut])
        self._send(data[cut:])

    @rule(line=_session_lines, cut=st.integers(min_value=0))
    def half_line(self, line, cut):
        self._open()
        data = line.encode()
        self._send(data[:cut % (len(data) + 1)])

    @rule(char=st.sampled_from(["x", "é", "\U0001d54f"]),
          count=st.sampled_from([MAX_LINE + 1, 2 * MAX_LINE + 1, 5 * MAX_LINE]),
          ended=st.booleans())
    def overlong_line(self, char, count, ended):
        self._open()
        self._send((char * count).encode() + b"\n" * ended)

    @rule()
    def close(self):
        self._open()
        expected = self._answer(self.open_line) if self.open_line and not self.answered else b""
        self.client.shutdown(socket.SHUT_WR)
        assert _read_to_eof(self.client) == expected
        self._drop_client()

    @rule()
    def reset(self):
        self._open()
        self.client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        self._drop_client()

    @rule()
    def busy_client(self):
        self._open()
        with socket.create_connection(self.listener.getsockname(), timeout=5) as other:
            assert _read_to_eof(other) == b"ERR BUSY\n"

    def _quit(self):
        self._open()
        self._send(b"\nQ\n" if self.open_line else b"Q\n")
        self.client.shutdown(socket.SHUT_WR)
        assert _read_to_eof(self.client) == b""
        self._drop_client()
        self.server.join(timeout=10)
        assert not self.server.is_alive()
        self.listener.close()
        assert self.result["summary"] == self.summary

    @rule()
    def quit(self):
        self._quit()
        self._start_server()

    @invariant()
    def server_is_up(self):
        assert self.server.is_alive()

    @invariant()
    def bus_counts_equal_the_traffic_sent(self):
        assert self.soc.stats == self.shadow.stats

    def teardown(self):
        try:
            # a failed step leaves the session in no known state; an example
            # that ran out of data ends with a BaseException, not an Exception
            if not isinstance(sys.exc_info()[1], Exception):
                self._quit()
        finally:
            self.listener.close()


SessionMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=15, deadline=None)
TestSessionMachine = SessionMachine.TestCase

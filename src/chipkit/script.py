"""Self-checking test scripts: host command lines paired with expected replies.

File format, one step per ``>``/``<`` pair::

    # optional comment attached to the next step
    > R 0x50000000
    < 0xdeadbeef

Scripts are both a generator output and a simulator input, so formatting
helpers for the wire format live here rather than in the protocol host.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from . import InputError, Record

RESP_OK = "OK"

_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # the line breaks of str.splitlines
# a step as save_script writes an R or W of format_word words, with a response
# of printable ASCII words; else any one line
_SCAN_RE = re.compile(
    r"> (R 0x([0-9a-f]{8})|W 0x([0-9a-f]{8}) 0x([0-9a-f]{8}))\n< ([!-~]+(?: [!-~]+)*)\n"
    rf"|(?P<line>[^{_BREAKS}]*)(?:\r\n|[{_BREAKS}])?")


class ScriptStep(Record):
    __slots__ = ("command", "expected", "comment")

    def __init__(self, command: str, expected: str, comment: str = ""):
        self.command = command
        self.expected = expected
        self.comment = comment


class TestScript(Record):
    __test__ = False  # keep pytest from collecting this as a test class
    __slots__ = ("steps",)

    def __init__(self, steps: list[ScriptStep] | None = None):
        self.steps = [] if steps is None else steps


def format_word(value: int) -> str:
    return f"0x{value & 0xffffffff:08x}"


def scan_script(text: str, decode: bool = True) -> Iterator[tuple]:
    """Each step of script text as (command, expected, words): words is the
    (op, addr, data) of an R or W step that _SCAN_RE matched whole, else None.
    Raises InputError at the first malformed line, numbered as str.splitlines
    counts. Without decode, yields only the steps it did not decode."""
    command = None  # read, and its response not yet
    for m in _SCAN_RE.finditer(text):
        if m.lastgroup != "line":
            if command is not None:
                problem = "expected '< <response>' after command"
                break
            if decode:
                step, r_addr, w_addr, w_data, expected, _ = m.groups()
                yield step, expected, (("R", int(r_addr, 16), None) if w_addr is None
                                       else ("W", int(w_addr, 16), int(w_data, 16)))
            continue
        line = m["line"].strip()
        if not line:
            continue
        tag = line[0]
        if tag == "<":
            if command is None:
                problem = "response without a command"
                break
            yield command, line[1:].strip(), None
            command = None
        elif tag != ">" and tag != "#":
            problem = f"unrecognized line {line!r}"
            break
        elif command is not None:
            problem = "expected '< <response>' after command"
            break
        elif tag == ">":
            command = line[1:].strip()
    else:
        if command is not None:
            raise InputError("trailing command without a response")
        return
    raise InputError(f"line {len(text[:m.start()].splitlines()) + 1}: {problem}")


def load_script(text: str) -> str:
    """The text of a script, once every line of it is checked; run_script
    replays it, scanning it again rather than holding its steps."""
    for _ in scan_script(text, decode=False):
        pass
    return text


def save_script(script: TestScript) -> str:
    lines: list[str] = []
    for step in script.steps:
        if step.comment:
            if lines:
                lines.append("")
            lines.append(f"# {step.comment}")
        lines.append(f"> {step.command}")
        lines.append(f"< {step.expected}")
    return "\n".join(lines) + "\n"

"""Self-checking test scripts: host command lines paired with expected replies.

File format, one step per ``>``/``<`` pair::

    # optional comment attached to the next step
    > R 0x50000000
    < 0xdeadbeef

Scripts are both a generator output and a simulator input, so formatting
helpers for the wire format live here rather than in the protocol host.
"""

from __future__ import annotations

from . import InputError, Record

RESP_OK = "OK"


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


def load_script(text: str) -> TestScript:
    steps: list[ScriptStep] = []
    pending_comment: list[str] = []
    pending_command: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        tag = line[0]
        if tag == "<":
            if pending_command is None:
                raise InputError(f"line {lineno}: response without a command")
            steps.append(ScriptStep(pending_command, line[1:].strip(), " ".join(pending_comment)))
            pending_command = None
            pending_comment = []
        elif tag == ">" or tag == "#":
            if pending_command is not None:
                raise InputError(f"line {lineno}: expected '< <response>' after command")
            if tag == ">":
                pending_command = line[1:].strip()
            else:
                pending_comment.append(line[1:].strip())
        else:
            raise InputError(f"line {lineno}: unrecognized line {line!r}")
    if pending_command is not None:
        raise InputError("trailing command without a response")
    return TestScript(steps)


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

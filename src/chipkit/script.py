"""Self-checking test scripts: host command lines paired with expected replies.

File format, one step per ``>``/``<`` pair::

    # optional comment attached to the next step
    > R 0x50000000
    < 0xdeadbeef

Scripts are both a generator output and a simulator input, so formatting
helpers for the wire format live here rather than in the protocol host.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import InputError

RESP_OK = "OK"


@dataclass(slots=True)
class ScriptStep:
    command: str
    expected: str
    comment: str = ""


@dataclass
class TestScript:
    __test__ = False  # keep pytest from collecting this as a test class

    steps: list[ScriptStep] = field(default_factory=list)

    def add(self, command: str, expected: str, comment: str = "") -> None:
        self.steps.append(ScriptStep(command, expected, comment))


def format_word(value: int) -> str:
    return f"0x{value & 0xffffffff:08x}"


def read_command(addr: int) -> str:
    return f"R {format_word(addr)}"


def write_command(addr: int, data: int) -> str:
    return f"W {format_word(addr)} {format_word(data)}"


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

"""Self-checking test scripts: host command lines paired with expected replies.

File format, one step per ``>``/``<`` pair::

    # optional comment attached to the next step
    > R 0x50000000
    < 0xdeadbeef

Scripts are both a generator output and a simulator input, and travel
between them as text only: save_script writes it from (command, expected,
comment) rows and load_script checks it. So the wire-format helpers live here
rather than in the protocol host.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from itertools import islice

from . import InputError

RESP_OK = "OK"

_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # the line breaks of str.splitlines
_LINE = rf"|(?P<line>[^{_BREAKS}]*)(?:\r\n|[{_BREAKS}])?"
# a step as save_script writes an R or W of format_word words, with a response
# of printable ASCII words; {g} opens each of its groups
_STEP = (r"> {g}R 0x{g}[0-9a-f]{{8}})|W 0x{g}[0-9a-f]{{8}}) 0x{g}[0-9a-f]{{8}}))\n"
         r"< {g}[!-~]+(?: [!-~]+)*)\n")
# a step decoded to its groups, else any one line
_SCAN_RE = re.compile(_STEP.format(g="(") + _LINE)
# a run of steps taken whole, bounded so that re holds little state, else any
# one line
_CHECK_RE = re.compile("(?:" + _STEP.format(g="(?:") + "){1,16}" + _LINE)


def format_word(value: int) -> str:
    return f"0x{value & 0xffffffff:08x}"


def scan_script(text: str, decode: bool = True) -> Iterator[tuple]:
    """Each step of script text as (command, expected, words): words is the
    (op, addr, data) of an R or W step that _SCAN_RE matched whole, else None.
    Raises InputError at the first malformed line, numbered as str.splitlines
    counts. Without decode, yields only the steps it would not decode, and
    takes a run of the others per match."""
    command = None  # read, and its response not yet
    for m in (_SCAN_RE if decode else _CHECK_RE).finditer(text):
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


def save_script(rows: Iterable[tuple[str, str, str]]) -> str:
    """Script text of (command, expected, comment) rows, each comment on the
    line before its step, after a blank line unless it opens the script; no
    rows give one empty line. Joins 256 steps at a time, so it holds about the
    text twice over, never a string for every step."""
    texts = (f"\n# {comment}\n> {command}\n< {expected}\n" if comment
             else f"> {command}\n< {expected}\n" for command, expected, comment in rows)
    chunks = []
    while chunk := "".join(islice(texts, 256)):
        chunks.append(chunk)
    if chunks and chunks[0][0] == "\n":  # the script opens with a comment
        chunks[0] = chunks[0][1:]
    return "".join(chunks) or "\n"

"""Token-by-token reference versions of the bring-up host's per-step helpers.

These are the implementations that the precompiled command grammar, the
first-character script reader and the stored decode index replaced. They are
kept only as oracles for the differential property tests and are never
imported by chipkit.
"""

from __future__ import annotations

import bisect
import re

from chipkit import InputError
from chipkit.memmap import MemoryMap, Region
from chipkit.script import TestScript
from chipkit.uart_host import Command, ParseError

_HEX_RE = re.compile(r"^(0[xX])?[0-9a-fA-F]+$")


def _parse_word(token: str) -> int:
    if not _HEX_RE.match(token):
        raise ParseError(token)
    value = int(token, 16)
    if value > 0xFFFFFFFF:
        raise ParseError(token)
    return value


def parse_command(line: str):
    """Command for a line, or None for a blank line. Raises ParseError."""
    text = line.strip()
    if not text:
        return None
    parts = re.split(r"[ \t]+", text)
    verb = parts[0].upper()
    if verb == "R":
        if len(parts) < 2:
            raise ParseError(text)
        if len(parts) > 2:
            raise ParseError(parts[2])
        return Command("R", addr=_parse_word(parts[1]))
    if verb == "W":
        if len(parts) < 3:
            raise ParseError(text)
        if len(parts) > 3:
            raise ParseError(parts[3])
        return Command("W", addr=_parse_word(parts[1]), data=_parse_word(parts[2]))
    if verb == "?":
        if len(parts) > 1:
            raise ParseError(parts[1])
        return Command("?")
    if verb == "Q":
        if len(parts) > 1:
            raise ParseError(parts[1])
        return Command("Q")
    raise ParseError(parts[0])


def load_script(text: str) -> TestScript:
    script = TestScript()
    pending_comment: list[str] = []
    pending_command: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if pending_command is not None:
                raise InputError(f"line {lineno}: expected '< <response>' after command")
            pending_comment.append(line[1:].strip())
            continue
        if line.startswith(">"):
            if pending_command is not None:
                raise InputError(f"line {lineno}: expected '< <response>' after command")
            pending_command = line[1:].strip()
            continue
        if line.startswith("<"):
            if pending_command is None:
                raise InputError(f"line {lineno}: response without a command")
            script.add(pending_command, line[1:].strip(), " ".join(pending_comment))
            pending_command = None
            pending_comment = []
            continue
        raise InputError(f"line {lineno}: unrecognized line {line!r}")
    if pending_command is not None:
        raise InputError("trailing command without a response")
    return script


def region_at(memmap: MemoryMap, addr: int) -> Region | None:
    """Decode an address to its region, or None for the default slave.

    Correct only for regions listed in base order, which the old
    ``load_memory_map`` guaranteed and a hand-built map did not.
    """
    bases = [r.base for r in memmap.regions]
    i = bisect.bisect_right(bases, addr) - 1
    if i >= 0 and memmap.regions[i].contains(addr):
        return memmap.regions[i]
    return None

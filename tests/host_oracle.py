"""Token-by-token reference versions of the bring-up host's per-step helpers.

These are the implementations that the precompiled command grammar, the
one-pass script scanner and replay, the stored decode index and the
direct-decode bus path replaced, with the ScriptStep and TestScript records
that the script reader built before scripts travelled as text only. They are
kept only as oracles for the differential property tests and are never
imported by chipkit.
"""

from __future__ import annotations

import bisect
import re

from chipkit import InputError, Record
from chipkit.busmodel import (
    ERR_MISALIGNED, ERR_UNMAPPED, ERR_XREAD, FAULT_ADDRESS_BIT, FAULT_DATA_BIT, SRAM_STRICT_X,
    WORD_MASK, BusError, SocModel, SramStore)
from chipkit.memmap import MemoryMap, Region
from chipkit.uart_host import ParseError, StepFailure, TestReport, execute_line

_HEX_RE = re.compile(r"^(0[xX])?[0-9a-fA-F]+$")


def _parse_word(token: str) -> int:
    if not _HEX_RE.match(token):
        raise ParseError(token)
    value = int(token, 16)
    if value > 0xFFFFFFFF:
        raise ParseError(token)
    return value


def parse_command(line: str):
    """(op, addr, data) for a line, or None for a blank line. Raises ParseError."""
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
        return "R", _parse_word(parts[1]), None
    if verb == "W":
        if len(parts) < 3:
            raise ParseError(text)
        if len(parts) > 3:
            raise ParseError(parts[3])
        return "W", _parse_word(parts[1]), _parse_word(parts[2])
    if verb == "?":
        if len(parts) > 1:
            raise ParseError(parts[1])
        return "?", None, None
    if verb == "Q":
        if len(parts) > 1:
            raise ParseError(parts[1])
        return "Q", None, None
    raise ParseError(parts[0])


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


class _Script(TestScript):
    """TestScript with the add method it had when this reader was replaced."""

    def add(self, command: str, expected: str, comment: str = "") -> None:
        self.steps.append(ScriptStep(command, expected, comment))


def load_script(text: str) -> TestScript:
    script = _Script()
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


def run_script(soc: SocModel, script: TestScript, stop_on_fail: bool = False) -> TestReport:
    """The replay that answered each step's command through execute_line."""
    failures = []
    i = -1
    for i, step in enumerate(script.steps):
        actual = execute_line(soc, step.command)[0] or ""
        if actual != step.expected:
            failures.append(StepFailure(i, step.command, step.expected, actual))
            if stop_on_fail:
                break
    return TestReport(i + 1, i + 1 - len(failures), failures)


def region_at(memmap: MemoryMap, addr: int) -> Region | None:
    """Decode an address to its region, or None for the default slave.

    Correct only for regions listed in base order, which the old
    ``load_memory_map`` guaranteed and a hand-built map did not.
    """
    bases = [r.base for r in memmap.regions]
    i = bisect.bisect_right(bases, addr) - 1
    if i >= 0 and memmap.regions[i].base <= addr < memmap.regions[i].end:
        return memmap.regions[i]
    return None


# ---------------------------------------------------------------------------
# the bus path that looked each access's store up by region name and tested
# the fault config on every SRAM access. It works on a SocModel's own csr
# blocks, word dicts and fault, and ignores the stores' fault masks; fill is
# the power-up value of a never-written word in random mode.

def _error(soc: SocModel, kind: str, addr: int) -> BusError:
    soc.stats.errors += 1
    return BusError(kind, addr)


def _sram_index(soc: SocModel, store: SramStore, offset: int) -> int:
    fault = soc.fault
    if fault is not None and fault.kind == FAULT_ADDRESS_BIT \
            and fault.target_region == store.region.name:
        offset &= ~(1 << fault.bit)
    return offset // 4


def bus_read(soc: SocModel, addr: int, fill=SramStore.fill_word):
    soc.stats.reads += 1
    addr &= WORD_MASK
    if addr % 4:
        return _error(soc, ERR_MISALIGNED, addr)
    region = region_at(soc.memmap, addr)
    if region is None:
        return _error(soc, ERR_UNMAPPED, addr)
    if region.kind == "csr":
        return soc.csr_blocks[region.name].read(addr - region.base)
    store = soc.srams[region.name]
    index = _sram_index(soc, store, addr - region.base)
    if index in store.words:
        return store.words[index]
    if store.mode == SRAM_STRICT_X:
        return _error(soc, ERR_XREAD, addr)
    return fill(store, index)


def bus_write(soc: SocModel, addr: int, data: int):
    soc.stats.writes += 1
    addr &= WORD_MASK
    data &= WORD_MASK
    if addr % 4:
        return _error(soc, ERR_MISALIGNED, addr)
    region = region_at(soc.memmap, addr)
    if region is None:
        return _error(soc, ERR_UNMAPPED, addr)
    if region.kind == "csr":
        soc.csr_blocks[region.name].write(addr - region.base, data)
        return None
    store = soc.srams[region.name]
    fault = soc.fault
    if fault is not None and fault.kind == FAULT_DATA_BIT \
            and fault.target_region == region.name:
        data &= ~(1 << fault.bit)
    store.words[_sram_index(soc, store, addr - region.base)] = data & WORD_MASK
    return None

"""Reference model of the SoC behind chipkit's host protocol.

Written from the protocol and file-format rules in the project README, not
from chipkit's code, so the benchmark can check chipkit's answers against an
independent oracle:

* an address that is not word aligned answers ``ERR MISALIGNED``;
* an address outside every region answers ``ERR UNMAPPED``;
* in a csr region, offset 0x0 is the ID register, the CRC-32 of the
  canonical ``regs.csv`` text; an active register reads its value, masked to
  its width on write; writes to RO registers and to offsets with no active
  register are ignored; those offsets read ``0xdeadbeef``;
* sram and peripheral regions read back what was written; a never-written
  word answers ``ERR XREAD`` in strict-X mode, and in random mode reads some
  word that must stay the same until it is overwritten.
"""

from __future__ import annotations

import bisect
import re
import zlib
from typing import NamedTuple

WORD_MASK = 0xFFFFFFFF
UNMAPPED_VALUE = 0xDEADBEEF

_WORD_RE = re.compile(r"0x[0-9a-f]{8}")


class Region(NamedTuple):
    name: str
    kind: str  # csr | sram | peripheral
    base: int
    size: int


class Reg(NamedTuple):
    name: str
    width: int
    access: str  # RW | RO
    reset: int
    offset: int
    state: str  # active | retired


def word(value: int) -> str:
    return f"0x{value & WORD_MASK:08x}"


def read_line(addr: int) -> str:
    return f"R {word(addr)}"


def write_line(addr: int, data: int) -> str:
    return f"W {word(addr)} {word(data)}"


class RefSoc:
    """Expected responses for ``R``/``W`` lines, tracking the model state."""

    def __init__(self, regions, regs, regs_text: str, random_fill: bool = False):
        self.regions = sorted(regions, key=lambda r: r.base)
        self._bases = [r.base for r in self.regions]
        self.regs = {r.offset: r for r in regs if r.state == "active"}
        self.values = {r.offset: r.reset & ((1 << r.width) - 1) for r in self.regs.values()}
        self.id_value = zlib.crc32(regs_text.encode("utf-8")) & WORD_MASK
        self.random_fill = random_fill
        self.mem: dict[int, int] = {}  # word address -> written or observed value

    def decode(self, addr: int) -> Region | None:
        i = bisect.bisect_right(self._bases, addr) - 1
        if i >= 0 and addr < self.regions[i].base + self.regions[i].size:
            return self.regions[i]
        return None

    def respond(self, line: str) -> str | None:
        """Expected response; None where a random power-up fill may answer
        any word. A write changes the model state."""
        op, *args = line.split()
        addr = int(args[0], 16)
        if addr % 4:
            return "ERR MISALIGNED"
        region = self.decode(addr)
        if region is None:
            return "ERR UNMAPPED"
        if op == "W":
            data = int(args[1], 16)
            if region.kind != "csr":
                self.mem[addr] = data
            else:
                reg = self.regs.get(addr - region.base)
                if reg is not None and reg.access == "RW":
                    self.values[reg.offset] = data & ((1 << reg.width) - 1)
            return "OK"
        if region.kind == "csr":
            offset = addr - region.base
            if offset == 0:
                return word(self.id_value)
            return word(self.values.get(offset, UNMAPPED_VALUE))
        if addr in self.mem:
            return word(self.mem[addr])
        return None if self.random_fill else "ERR XREAD"

    def check(self, line: str, actual: str) -> bool:
        """Whether actual is a correct response to line; records a random
        fill the first time it is read, so a re-read must match it."""
        expected = self.respond(line)
        if expected is not None:
            return actual == expected
        if not _WORD_RE.fullmatch(actual):
            return False
        self.mem[int(line.split()[1], 16)] = int(actual, 16)
        return True

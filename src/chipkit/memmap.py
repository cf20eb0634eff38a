"""SoC memory map: named, non-overlapping address regions over a 32-bit space.

The map is both a generator input (interconnect header emission) and the
decode table for the transaction-level model. File format is one region per
line: ``region <name> <kind> <base-hex> <size-hex>``.
"""

from __future__ import annotations

import bisect
import re
from typing import NamedTuple

from . import Checked, DataError, InputError

REGION_KINDS = ("csr", "sram", "peripheral")

ADDR_SPACE = 1 << 32

_NOT_ALNUM_RE = re.compile(r"[^0-9A-Za-z]")


def macro_name(text: str) -> str:
    """text upper-cased, with an underscore for each character but a letter or digit."""
    return _NOT_ALNUM_RE.sub("_", text).upper()


class Region(NamedTuple):
    name: str
    kind: str
    base: int
    size_bytes: int

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size_bytes


class _MapFields(NamedTuple):
    regions: tuple[Region, ...]
    bases: tuple[int, ...]  # each region's base, for region_at to bisect


class MemoryMap(Checked, _MapFields):
    """Regions in base order, and their bases. An invalid map cannot be
    built: every problem found is in one DataError."""

    __slots__ = ()

    def __new__(cls, regions=(), bases=None):  # bases is derived, and taken only from _make
        regions = tuple(sorted(regions, key=lambda r: r.base))
        problems = []
        stems = {}  # <stem> of SOC_<stem>_BASE, which the map header declares -> region name
        for r in regions:
            if r.kind not in REGION_KINDS:
                problems.append(f"region {r.name}: unknown kind {r.kind!r}")
            if r.size_bytes <= 0 or r.size_bytes & (r.size_bytes - 1):
                problems.append(f"region {r.name}: size 0x{r.size_bytes:x} not a power of two")
            elif r.base % r.size_bytes:
                problems.append(f"region {r.name}: base 0x{r.base:08x} not aligned to size")
            if r.base < 0 or r.end > ADDR_SPACE:
                problems.append(f"region {r.name}: exceeds 32-bit address space")
            stem = macro_name(r.name)
            if stem in stems:
                problems.append(f"duplicate region name {r.name}" if stems[stem] == r.name else
                                f"regions {stems[stem]} and {r.name} both declare SOC_{stem}_BASE")
            stems.setdefault(stem, r.name)
        for lo, hi in zip(regions, regions[1:]):
            if lo.end > hi.base:
                problems.append(f"regions {lo.name} and {hi.name} overlap")
        if problems:
            raise DataError("; ".join(problems))
        return super().__new__(cls, regions, tuple(r.base for r in regions))

    def region(self, name: str) -> Region:
        for r in self.regions:
            if r.name == name:
                return r
        raise KeyError(name)

    def region_at(self, addr: int) -> Region | None:
        """Decode an address to its region, or None for the default slave."""
        i = bisect.bisect_right(self.bases, addr) - 1
        if i >= 0:
            region = self.regions[i]
            if addr < region.base + region.size_bytes:  # bisect gave base <= addr
                return region
        return None


def load_memory_map(text: str) -> MemoryMap:
    """Parse map text into a MemoryMap, which sorts and checks the regions.
    Raises InputError on syntax."""
    regions = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 5 or fields[0] != "region":
            raise InputError(f"line {lineno}: expected 'region <name> <kind> <base> <size>'")
        _, name, kind, base_s, size_s = fields
        try:
            base = int(base_s, 16)
            size = int(size_s, 16)
        except ValueError:
            raise InputError(f"line {lineno}: bad hex number") from None
        regions.append(Region(name=name, kind=kind, base=base, size_bytes=size))
    return MemoryMap(regions=regions)

"""SoC memory map: named, non-overlapping address regions over a 32-bit space.

The map is both a generator input (interconnect header emission) and the
decode table for the transaction-level model. File format is one region per
line: ``region <name> <kind> <base-hex> <size-hex>``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from . import DataError, InputError

REGION_KINDS = ("csr", "sram", "peripheral")

ADDR_SPACE = 1 << 32


@dataclass(frozen=True)
class Region:
    name: str
    kind: str
    base: int
    size_bytes: int

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size_bytes

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


@dataclass(frozen=True)
class MemoryMap:
    """Regions in base order; the decode index over them is built once."""

    regions: tuple[Region, ...] = ()
    _bases: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        regions = tuple(sorted(self.regions, key=lambda r: r.base))
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "_bases", tuple(r.base for r in regions))

    def validate(self) -> list[str]:
        problems = []
        names = set()
        for r in self.regions:
            if r.kind not in REGION_KINDS:
                problems.append(f"region {r.name}: unknown kind {r.kind!r}")
            if r.size_bytes <= 0 or r.size_bytes & (r.size_bytes - 1):
                problems.append(f"region {r.name}: size 0x{r.size_bytes:x} not a power of two")
            elif r.base % r.size_bytes:
                problems.append(f"region {r.name}: base 0x{r.base:08x} not aligned to size")
            if r.base < 0 or r.end > ADDR_SPACE:
                problems.append(f"region {r.name}: exceeds 32-bit address space")
            if r.name in names:
                problems.append(f"duplicate region name {r.name}")
            names.add(r.name)
        for lo, hi in zip(self.regions, self.regions[1:]):
            if lo.end > hi.base:
                problems.append(f"regions {lo.name} and {hi.name} overlap")
        return problems

    def check(self) -> "MemoryMap":
        problems = self.validate()
        if problems:
            raise DataError("; ".join(problems))
        return self

    def region(self, name: str) -> Region:
        for r in self.regions:
            if r.name == name:
                return r
        raise KeyError(name)

    def region_at(self, addr: int) -> Region | None:
        """Decode an address to its region, or None for the default slave."""
        i = bisect.bisect_right(self._bases, addr) - 1
        if i >= 0:
            region = self.regions[i]
            if addr < region.base + region.size_bytes:  # bisect gave base <= addr
                return region
        return None


def load_memory_map(text: str) -> MemoryMap:
    """Parse map text; returns regions sorted by base. Raises InputError on syntax."""
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

"""Transaction-level SoC model behind the host protocol.

One call is one completed bus transfer: the decoder resolves an address to a
region (or the default slave), CSR regions behave per the register database,
and SRAM-backed regions track per-word initialization so reads of never-
written words can be flagged like undefined power-up state. Single-bit
address/data fault injection is built in so generated memory tests can prove
their own detection power.
"""

from __future__ import annotations

import bisect
import zlib
from typing import NamedTuple

from . import Checked, DataError, InputError, Record
from .memmap import MemoryMap, Region
from .regdb import ACCESS_RW, ACTIVE, ID_REG_OFFSET, RegDb, UNMAPPED_READ_VALUE
from .script import RESP_OK, format_word

WORD_MASK = 0xFFFFFFFF

ERR_UNMAPPED = "Unmapped"
ERR_MISALIGNED = "Misaligned"
ERR_XREAD = "UninitializedRead"

SRAM_STRICT_X = "strict_x"
SRAM_RANDOM = "random"

FAULT_ADDRESS_BIT = "mask_address_bit"
FAULT_DATA_BIT = "mask_data_bit"


class BusError(NamedTuple):
    kind: str
    address: int


class _FaultFields(NamedTuple):
    kind: str  # mask_address_bit | mask_data_bit
    bit: int
    target_region: str


class FaultConfig(Checked, _FaultFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (FAULT_ADDRESS_BIT, FAULT_DATA_BIT):
            raise DataError(f"unknown fault kind {self.kind!r}")
        if not 0 <= self.bit < 32:
            raise DataError(f"fault bit {self.bit} outside [0, 32)")
        return self


class Stats(Record):
    __slots__ = ("reads", "writes", "errors")

    def __init__(self):
        self.reads = 0
        self.writes = 0
        self.errors = 0


class CsrBlock:
    """Behavioral register file for one csr region, built from its database
    and that database's db_hash, which the ID register reads."""

    def __init__(self, region: Region, db: RegDb, hash32: int, unmapped_value: int):
        self.hash = hash32
        self.unmapped_value = unmapped_value & WORD_MASK
        self.values = {}  # byte offset -> value, per active entry
        self.rw_masks = {}  # byte offset -> width mask, per active RW entry
        for e in db.entries:  # every entry, retired too, lies in the region
            if e.offset_bytes >= region.size_bytes:
                raise DataError(
                    f"entry {e.name} at offset 0x{e.offset_bytes:x} does not fit "
                    f"region {region.name} (size 0x{region.size_bytes:x})")
            if e.state != ACTIVE:
                continue
            mask = (1 << e.width_bits) - 1
            self.values[e.offset_bytes] = e.reset_value & mask
            if e.access == ACCESS_RW:
                self.rw_masks[e.offset_bytes] = mask

    def read(self, offset: int) -> int:
        if offset == ID_REG_OFFSET:
            return self.hash
        return self.values.get(offset, self.unmapped_value)

    def write(self, offset: int, data: int) -> None:
        mask = self.rw_masks.get(offset)
        if mask is not None:
            self.values[offset] = data & mask


class SramStore:
    """Word store; a word is initialized once it is in words. Backs sram and peripheral regions."""

    def __init__(self, region: Region, mode: str, seed: int):
        self.region = region
        self.mode = mode
        self.words: dict[int, int] = {}
        # an injected fault clears one bit of these; without one they are all ones
        self.offset_mask = WORD_MASK
        self.data_mask = WORD_MASK
        self._fill_key = zlib.crc32(f"{seed}:{region.name}".encode("utf-8"))

    def fill_word(self, index: int) -> int:
        """Power-up value of a never-written word: a function of (seed, region, index) only."""
        return zlib.crc32(index.to_bytes(4, "little"), self._fill_key)

    def read(self, offset: int) -> int | None:
        """Word at a byte offset, or None for an uninitialized read in strict mode."""
        index = (offset & self.offset_mask) >> 2
        value = self.words.get(index)
        if value is None and self.mode != SRAM_STRICT_X:
            return self.fill_word(index)
        return value

    def write(self, offset: int, value: int) -> None:
        self.words[(offset & self.offset_mask) >> 2] = value & self.data_mask


class SocModel(Record):
    __slots__ = ("memmap", "csr_blocks", "srams", "fault", "stats", "bases", "targets")

    def __init__(self, memmap: MemoryMap):
        self.memmap = memmap
        self.csr_blocks = {}  # region name -> CsrBlock
        self.srams = {}  # region name -> SramStore
        self.fault: FaultConfig | None = None
        self.stats = Stats()
        # decode index: region bases in order, and per region (end, base, its CsrBlock or SramStore)
        self.bases = ()
        self.targets = ()


def build_soc(
    memmap: MemoryMap,
    dbs: list[tuple[str, RegDb, int]],
    sram_mode: str = SRAM_STRICT_X,
    seed: int = 0,
    fault: FaultConfig | None = None,
    unmapped_value: int = UNMAPPED_READ_VALUE,
) -> SocModel:
    """Assemble the model: reset-valued registers, fully uninitialized SRAM.
    dbs gives, per csr region, its database and that database's db_hash."""
    if sram_mode not in (SRAM_STRICT_X, SRAM_RANDOM):
        raise DataError(f"unknown sram mode {sram_mode!r}")
    db_map = {name: (db, hash32) for name, db, hash32 in dbs}
    unknown = set(db_map) - {r.name for r in memmap.regions}
    if unknown:
        raise DataError(f"database bound to unknown region: {', '.join(sorted(unknown))}")
    soc = SocModel(memmap)
    for region in memmap.regions:
        if region.kind == "csr":
            if region.name not in db_map:
                raise DataError(f"csr region {region.name} has no register database")
            soc.csr_blocks[region.name] = CsrBlock(region, *db_map[region.name], unmapped_value)
        else:
            soc.srams[region.name] = SramStore(region, sram_mode, seed)
    if fault is not None:
        store = soc.srams.get(fault.target_region)
        if store is None:
            raise DataError(
                f"fault target {fault.target_region!r} is not an sram-backed region")
        if fault.kind == FAULT_ADDRESS_BIT:
            store.offset_mask &= ~(1 << fault.bit)
        else:
            store.data_mask &= ~(1 << fault.bit)
        soc.fault = fault
    soc.bases = memmap.bases
    soc.targets = tuple((r.end, r.base, soc.csr_blocks.get(r.name) or soc.srams[r.name])
                        for r in memmap.regions)
    return soc


def _error(soc: SocModel, kind: str, addr: int) -> BusError:
    soc.stats.errors += 1
    return BusError(kind, addr)


def bus_read(soc: SocModel, addr: int):
    """32-bit word at addr, or a BusError from the decode/backing store."""
    soc.stats.reads += 1
    addr &= WORD_MASK
    if addr & 3:
        return _error(soc, ERR_MISALIGNED, addr)
    i = bisect.bisect_right(soc.bases, addr) - 1
    if i >= 0:
        end, base, target = soc.targets[i]
        if addr < end:
            value = target.read(addr - base)
            if value is None:
                return _error(soc, ERR_XREAD, addr)
            return value
    return _error(soc, ERR_UNMAPPED, addr)


def bus_write(soc: SocModel, addr: int, data: int):
    """None on success (including silently-ignored RO writes), else a BusError."""
    soc.stats.writes += 1
    addr &= WORD_MASK
    if addr & 3:
        return _error(soc, ERR_MISALIGNED, addr)
    i = bisect.bisect_right(soc.bases, addr) - 1
    if i >= 0:
        end, base, target = soc.targets[i]
        if addr < end:
            target.write(addr - base, data & WORD_MASK)
            return None
    return _error(soc, ERR_UNMAPPED, addr)


# ---------------------------------------------------------------------------
# generated region test

def _marker(bit: int) -> int:
    return (0xC0DE0000 | bit) & WORD_MASK


_BASE_MARKER = 0xC0DE00FF


def gen_region_test(memmap: MemoryMap, region_name: str) -> list[tuple[str, str, str]]:
    """Address-bit and data-bit toggle test for one sram-backed region, as the
    (command, expected, comment) rows that save_script writes.

    Writes a unique marker at the base and at each power-of-two offset, reads
    them all back (any single masked address line aliases two markers), then
    walks a one-hot data pattern through one word.
    """
    region = memmap.region(region_name)
    if region.kind == "csr":
        raise InputError(f"region {region_name} is a csr block, not a memory")
    base = region.base
    probe_bits = [k for k in range(2, 32) if (1 << k) < region.size_bytes]

    at_base, base_marker = format_word(base), format_word(_BASE_MARKER)
    probes = [(k, format_word(base + (1 << k)), format_word(_marker(k))) for k in probe_bits]
    rows = [(f"W {at_base} {base_marker}", RESP_OK, "marker at base")]
    rows += [(f"W {addr} {marker}", RESP_OK, f"marker at address bit {k}")
             for k, addr, marker in probes]
    rows.append((f"R {at_base}", base_marker, "base marker intact"))
    rows += [(f"R {addr}", marker, f"address bit {k} marker intact")
             for k, addr, marker in probes]
    for j in range(32):
        pattern = format_word(1 << j)
        rows += [(f"W {at_base} {pattern}", RESP_OK, f"data bit {j} pattern"),
                 (f"R {at_base}", pattern, f"data bit {j} read back")]
    return rows

"""Transaction-level SoC model behind the host protocol.

One call is one completed bus transfer: the decoder resolves an address to a
region (or the default slave), CSR regions behave per the register database,
and SRAM-backed regions track per-word initialization so reads of never-
written words can be flagged like undefined power-up state. Single-bit
address/data fault injection is built in so generated memory tests can prove
their own detection power.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import DataError, InputError
from .memmap import MemoryMap, Region
from .regdb import ACTIVE, ID_REG_OFFSET, RegDb, UNMAPPED_READ_VALUE, db_hash
from .script import RESP_OK, TestScript, format_word, read_command, write_command
from .sv_scan import ACCESS_RO, ACCESS_RW

WORD_MASK = 0xFFFFFFFF

ERR_UNMAPPED = "Unmapped"
ERR_MISALIGNED = "Misaligned"
ERR_XREAD = "UninitializedRead"

SRAM_STRICT_X = "strict_x"
SRAM_RANDOM = "random"

FAULT_ADDRESS_BIT = "mask_address_bit"
FAULT_DATA_BIT = "mask_data_bit"


@dataclass(frozen=True)
class BusError:
    kind: str
    address: int


@dataclass(frozen=True)
class FaultConfig:
    kind: str  # mask_address_bit | mask_data_bit
    bit: int
    target_region: str

    def validate(self) -> None:
        if self.kind not in (FAULT_ADDRESS_BIT, FAULT_DATA_BIT):
            raise DataError(f"unknown fault kind {self.kind!r}")
        if not 0 <= self.bit < 32:
            raise DataError(f"fault bit {self.bit} outside [0, 32)")


@dataclass
class Stats:
    reads: int = 0
    writes: int = 0
    errors: int = 0


class CsrBlock:
    """Behavioral register file for one csr region, built from its database."""

    def __init__(self, region: Region, db: RegDb, unmapped_value: int):
        self.region = region
        self.hash = db_hash(db)
        self.unmapped_value = unmapped_value & WORD_MASK
        self.entries = {}
        self.by_offset = {}
        self.values = {}
        for e in db.entries:
            if e.state != ACTIVE:
                continue
            if e.offset_bytes >= region.size_bytes:
                raise DataError(
                    f"entry {e.name} at offset 0x{e.offset_bytes:x} does not fit "
                    f"region {region.name} (size 0x{region.size_bytes:x})")
            self.entries[e.name] = e
            self.by_offset[e.offset_bytes] = e
            self.values[e.name] = e.reset_value & self._mask(e.width_bits)

    @staticmethod
    def _mask(width: int) -> int:
        return (1 << width) - 1

    def read(self, offset: int) -> int:
        if offset == ID_REG_OFFSET:
            return self.hash
        entry = self.by_offset.get(offset)
        if entry is None:
            return self.unmapped_value
        return self.values[entry.name]

    def write(self, offset: int, data: int) -> None:
        entry = self.by_offset.get(offset)
        if entry is not None and entry.access == ACCESS_RW:
            self.values[entry.name] = data & self._mask(entry.width_bits)

    def reset(self) -> None:
        for name, entry in self.entries.items():
            self.values[name] = entry.reset_value & self._mask(entry.width_bits)


class SramStore:
    """Word store; a word is initialized once it is in words. Backs sram and peripheral regions."""

    def __init__(self, region: Region, mode: str, seed: int):
        self.region = region
        self.mode = mode
        self.seed = seed
        self.size_words = region.size_bytes // 4
        self.words: dict[int, int] = {}

    def fill_word(self, index: int) -> int:
        rnd = random.Random(f"{self.seed}:{self.region.name}:{index}")
        return rnd.getrandbits(32)

    def read(self, index: int) -> int | None:
        """Stored word, or None for an uninitialized read in strict mode."""
        if index in self.words:
            return self.words[index]
        if self.mode == SRAM_STRICT_X:
            return None
        return self.fill_word(index)

    def write(self, index: int, value: int) -> None:
        self.words[index] = value & WORD_MASK


@dataclass
class SocModel:
    memmap: MemoryMap
    csr_blocks: dict = field(default_factory=dict)   # region name -> CsrBlock
    srams: dict = field(default_factory=dict)        # region name -> SramStore
    fault: FaultConfig | None = None
    stats: Stats = field(default_factory=Stats)


def build_soc(
    memmap: MemoryMap,
    dbs: list[tuple[str, RegDb]],
    sram_mode: str = SRAM_STRICT_X,
    seed: int = 0,
    fault: FaultConfig | None = None,
    unmapped_value: int = UNMAPPED_READ_VALUE,
) -> SocModel:
    """Assemble the model: reset-valued registers, fully uninitialized SRAM."""
    memmap.check()
    if sram_mode not in (SRAM_STRICT_X, SRAM_RANDOM):
        raise DataError(f"unknown sram mode {sram_mode!r}")
    db_map = dict(dbs)
    unknown = set(db_map) - {r.name for r in memmap.regions}
    if unknown:
        raise DataError(f"database bound to unknown region: {', '.join(sorted(unknown))}")
    soc = SocModel(memmap=memmap)
    for region in memmap.regions:
        if region.kind == "csr":
            if region.name not in db_map:
                raise DataError(f"csr region {region.name} has no register database")
            soc.csr_blocks[region.name] = CsrBlock(region, db_map[region.name], unmapped_value)
        else:
            soc.srams[region.name] = SramStore(region, sram_mode, seed)
    if fault is not None:
        fault.validate()
        if fault.target_region not in soc.srams:
            raise DataError(
                f"fault target {fault.target_region!r} is not an sram-backed region")
        soc.fault = fault
    return soc


def _error(soc: SocModel, kind: str, addr: int) -> BusError:
    soc.stats.errors += 1
    return BusError(kind, addr)


def _sram_index(soc: SocModel, store: SramStore, offset: int) -> int:
    fault = soc.fault
    if fault is not None and fault.kind == FAULT_ADDRESS_BIT \
            and fault.target_region == store.region.name:
        offset &= ~(1 << fault.bit)
    return offset // 4


def bus_read(soc: SocModel, addr: int):
    """32-bit word at addr, or a BusError from the decode/backing store."""
    soc.stats.reads += 1
    addr &= WORD_MASK
    if addr % 4:
        return _error(soc, ERR_MISALIGNED, addr)
    region = soc.memmap.region_at(addr)
    if region is None:
        return _error(soc, ERR_UNMAPPED, addr)
    if region.kind == "csr":
        return soc.csr_blocks[region.name].read(addr - region.base)
    store = soc.srams[region.name]
    value = store.read(_sram_index(soc, store, addr - region.base))
    if value is None:
        return _error(soc, ERR_XREAD, addr)
    return value


def bus_write(soc: SocModel, addr: int, data: int):
    """None on success (including silently-ignored RO writes), else a BusError."""
    soc.stats.writes += 1
    addr &= WORD_MASK
    data &= WORD_MASK
    if addr % 4:
        return _error(soc, ERR_MISALIGNED, addr)
    region = soc.memmap.region_at(addr)
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
    store.write(_sram_index(soc, store, addr - region.base), data)
    return None


def set_status(soc: SocModel, region: str, name: str, value: int) -> None:
    """Drive an RO entry's readable value, emulating the attached design."""
    block = soc.csr_blocks.get(region)
    if block is None:
        raise InputError(f"no csr region named {region!r}")
    entry = block.entries.get(name)
    if entry is None:
        raise InputError(f"no active entry {name!r} in region {region!r}")
    if entry.access != ACCESS_RO:
        raise InputError(f"{name} is {entry.access}; set_status drives RO entries only")
    block.values[name] = value & block._mask(entry.width_bits)


def get_control(soc: SocModel, region: str, name: str) -> int:
    """Observe an RW entry's current value, emulating the attached design."""
    block = soc.csr_blocks.get(region)
    if block is None:
        raise InputError(f"no csr region named {region!r}")
    entry = block.entries.get(name)
    if entry is None:
        raise InputError(f"no active entry {name!r} in region {region!r}")
    if entry.access != ACCESS_RW:
        raise InputError(f"{name} is {entry.access}; get_control observes RW entries only")
    return block.values[name]


def reset(soc: SocModel) -> None:
    """Registers back to reset values; SRAM contents and stats survive."""
    for block in soc.csr_blocks.values():
        block.reset()


# ---------------------------------------------------------------------------
# generated region test

def _marker(bit: int) -> int:
    return (0xC0DE0000 | bit) & WORD_MASK


_BASE_MARKER = 0xC0DE00FF


def gen_region_test(memmap: MemoryMap, region_name: str) -> TestScript:
    """Address-bit and data-bit toggle test for one sram-backed region.

    Writes a unique marker at the base and at each power-of-two offset, reads
    them all back (any single masked address line aliases two markers), then
    walks a one-hot data pattern through one word.
    """
    region = memmap.region(region_name)
    if region.kind == "csr":
        raise InputError(f"region {region_name} is a csr block, not a memory")
    base = region.base
    probe_bits = [k for k in range(2, 32) if (1 << k) < region.size_bytes]

    sc = TestScript()
    sc.add(write_command(base, _BASE_MARKER), RESP_OK, "marker at base")
    for k in probe_bits:
        sc.add(write_command(base + (1 << k), _marker(k)), RESP_OK, f"marker at address bit {k}")
    sc.add(read_command(base), format_word(_BASE_MARKER), "base marker intact")
    for k in probe_bits:
        sc.add(read_command(base + (1 << k)), format_word(_marker(k)),
               f"address bit {k} marker intact")
    for j in range(32):
        pattern = 1 << j
        sc.add(write_command(base, pattern), RESP_OK, f"data bit {j} pattern")
        sc.add(read_command(base), format_word(pattern), f"data bit {j} read back")
    return sc

import hashlib
import os
import random
import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipkit import DataError, InputError, emit, uart_host
from chipkit.busmodel import (
    ERR_MISALIGNED,
    ERR_UNMAPPED,
    ERR_XREAD,
    BusError,
    FaultConfig,
    build_soc,
    bus_read,
    bus_write,
    gen_region_test,
    get_control,
    set_status,
)
from chipkit.memmap import MemoryMap, Region, load_memory_map
from chipkit.regdb import RegDb, UNMAPPED_READ_VALUE, db_hash, update_db
from chipkit.script import save_script
from chipkit.sv_scan import CsrCandidate

MAP = MemoryMap([
    Region("uart0", "peripheral", 0x40000000, 0x100),
    Region("csr0", "csr", 0x50000000, 0x1000),
    Region("sram0", "sram", 0x60000000, 0x10000),
])

CSR_BASE = 0x50000000
SRAM_BASE = 0x60000000


def make_db():
    db, _ = update_db(RegDb(), [
        CsrCandidate("cfg_a", 4, "RW", "m1", 1),
        CsrCandidate("sts_b", 8, "RO", "m1", 2),
    ])
    db.entry("cfg_a").reset_value = 0x5
    return db


def csr_dbs(db=None, region="csr0"):
    """build_soc's dbs for one csr region: the region, its database and the hash."""
    db = db or make_db()
    return [(region, db, db_hash(db))]


@pytest.fixture
def soc():
    return build_soc(MAP, csr_dbs())


class TestBuild:
    def test_regions_populated(self, soc):
        assert set(soc.csr_blocks) == {"csr0"}
        assert set(soc.srams) == {"uart0", "sram0"}

    def test_reset_values_visible_immediately(self, soc):
        assert get_control(soc, "csr0", "cfg_a") == 0x5
        assert bus_read(soc, CSR_BASE + 4) == 0x5

    def test_zero_region_map_everything_unmapped(self):
        empty = build_soc(MemoryMap([]), [])
        for addr in (0x0, 0x1000, 0xFFFFFFFC):
            assert bus_read(empty, addr) == BusError(ERR_UNMAPPED, addr)

    def test_unpaired_csr_region(self):
        with pytest.raises(DataError, match="^csr region csr0 has no register database$"):
            build_soc(MAP, [])

    def test_db_for_unknown_region(self):
        with pytest.raises(DataError, match="^database bound to unknown region: nope$"):
            build_soc(MemoryMap([]), csr_dbs(region="nope"))

    def test_entry_outside_region(self):
        tiny = MemoryMap([Region("csr0", "csr", 0x50000000, 0x8)])
        db, _ = update_db(RegDb(), [CsrCandidate(f"cfg_{i}", 1, "RW", "m", i) for i in range(3)])
        with pytest.raises(DataError, match=r"^entry cfg_1 at offset 0x8 does not fit region "
                                            r"csr0 \(size 0x8\)$"):
            build_soc(tiny, csr_dbs(db))


class TestReadWrite:
    def test_unmapped_read(self, soc):
        assert bus_read(soc, 0x30000000) == BusError(ERR_UNMAPPED, 0x30000000)

    def test_misaligned(self, soc):
        assert bus_read(soc, CSR_BASE + 2) == BusError(ERR_MISALIGNED, CSR_BASE + 2)
        assert bus_write(soc, CSR_BASE + 2, 0) == BusError(ERR_MISALIGNED, CSR_BASE + 2)

    def test_id_register_returns_hash(self, soc):
        assert bus_read(soc, CSR_BASE) == db_hash(make_db())

    def test_write_masked_to_width(self, soc):
        assert bus_write(soc, CSR_BASE + 4, 0xFFFFFFFF) is None
        assert bus_read(soc, CSR_BASE + 4) == 0xF

    def test_write_to_ro_ignored(self, soc):
        before = bus_read(soc, CSR_BASE + 8)
        assert bus_write(soc, CSR_BASE + 8, 0x77) is None
        assert bus_read(soc, CSR_BASE + 8) == before

    def test_write_to_id_ignored(self, soc):
        assert bus_write(soc, CSR_BASE, 0x123) is None
        assert bus_read(soc, CSR_BASE) == db_hash(make_db())

    def test_in_region_unmapped_constant_matches_emit(self, soc):
        assert bus_read(soc, CSR_BASE + 0x100) == UNMAPPED_READ_VALUE
        assert UNMAPPED_READ_VALUE == emit.EmitConfig().unmapped_value

    def test_strict_x_read_before_write(self, soc):
        addr = SRAM_BASE + 0x40
        assert bus_read(soc, addr) == BusError(ERR_XREAD, addr)
        assert bus_write(soc, addr, 0xCAFE0001) is None
        assert bus_read(soc, addr) == 0xCAFE0001

    def test_random_mode_deterministic_and_unmarked(self):
        a = build_soc(MAP, csr_dbs(), sram_mode="random", seed=7)
        b = build_soc(MAP, csr_dbs(), sram_mode="random", seed=7)
        c = build_soc(MAP, csr_dbs(), sram_mode="random", seed=8)
        addr = SRAM_BASE + 0x123 * 4
        va = bus_read(a, addr)
        assert va == bus_read(a, addr) == bus_read(b, addr)
        assert isinstance(va, int)
        assert bus_read(c, addr) != va or True  # different seed may collide; just type-check
        assert bus_write(a, addr, 5) is None and bus_read(a, addr) == 5


def _fills(soc, region, indices):
    base = soc.memmap.region(region).base
    return [bus_read(soc, base + 4 * i) for i in indices]


class TestRandomFill:
    """A never-written word reads zlib.crc32 of its index (4 bytes, little
    endian), keyed by the crc32 of "<seed>:<region name>"."""

    INDICES = range(0, 64, 3)

    def test_fill_algorithm(self):
        soc = build_soc(MAP, csr_dbs(), sram_mode="random", seed=3)
        key = zlib.crc32(b"3:sram0")
        assert _fills(soc, "sram0", self.INDICES) == \
            [zlib.crc32(i.to_bytes(4, "little"), key) for i in self.INDICES]

    def test_depends_only_on_seed_region_and_index(self):
        soc = build_soc(MAP, csr_dbs(), sram_mode="random", seed=3)
        fills = _fills(soc, "sram0", self.INDICES)
        bus_write(soc, SRAM_BASE + 4, 0x1234)  # another word written
        assert _fills(soc, "sram0", self.INDICES) == fills  # stable across reads
        # another base, size and neighbourhood, same seed and name
        moved = build_soc(MemoryMap([Region("sram0", "sram", 0x10000, 0x400),
                                     Region("uart0", "peripheral", 0x0, 0x100)]),
                          [], sram_mode="random", seed=3)
        assert _fills(moved, "sram0", self.INDICES) == fills
        other_seed = build_soc(MAP, csr_dbs(), sram_mode="random", seed=4)
        assert _fills(other_seed, "sram0", self.INDICES) != fills
        # regions of one model differ at every index
        assert all(a != b for a, b in zip(_fills(soc, "uart0", self.INDICES), fills))

    def test_stable_across_processes(self):
        probe = ("from chipkit.busmodel import build_soc; from chipkit.memmap import MemoryMap, "
                 "Region; soc = build_soc(MemoryMap([Region('sram0', 'sram', 0x60000000, "
                 "0x10000)]), [], sram_mode='random', seed=3); "
                 f"print([soc.srams['sram0'].fill_word(i) for i in {list(self.INDICES)}])")
        soc = build_soc(MAP, csr_dbs(), sram_mode="random", seed=3)
        expected = str(_fills(soc, "sram0", self.INDICES))
        for hash_seed in ("1", "2"):  # a fill from hash() would differ between these
            out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                 env={**os.environ, "PYTHONHASHSEED": hash_seed}, check=True)
            assert out.stdout.strip() == expected


class TestStatusControl:
    def test_set_status_then_read(self, soc):
        set_status(soc, "csr0", "sts_b", 0x21)
        assert bus_read(soc, CSR_BASE + 8) == 0x21

    def test_set_status_masks(self, soc):
        set_status(soc, "csr0", "sts_b", 0x1FF)
        assert bus_read(soc, CSR_BASE + 8) == 0xFF

    def test_get_control_after_write(self, soc):
        bus_write(soc, CSR_BASE + 4, 0x3)
        assert get_control(soc, "csr0", "cfg_a") == 0x3

    def test_usage_errors(self, soc):
        with pytest.raises(InputError, match="^cfg_a is RW; set_status drives RO entries only$"):
            set_status(soc, "csr0", "cfg_a", 1)  # RW name
        with pytest.raises(InputError,
                           match="^sts_b is RO; get_control observes RW entries only$"):
            get_control(soc, "csr0", "sts_b")
        with pytest.raises(InputError, match="^no csr region named 'nope'$"):
            set_status(soc, "nope", "sts_b", 1)
        with pytest.raises(InputError, match="^no active entry 'missing' in region 'csr0'$"):
            set_status(soc, "csr0", "missing", 1)


def snapshot(soc):
    return (
        {n: dict(b.values) for n, b in soc.csr_blocks.items()},
        {n: (dict(s.words), set(s.words)) for n, s in soc.srams.items()},
    )


class TestDefaultSlave:
    def test_unmapped_access_never_mutates(self, soc):
        bus_write(soc, SRAM_BASE, 0x11)
        bus_write(soc, CSR_BASE + 4, 0x2)
        before = snapshot(soc)
        rng = random.Random(42)
        for _ in range(200):
            addr = rng.randrange(0, 1 << 32) & ~0x3
            if soc.memmap.region_at(addr) is not None:
                continue
            bus_read(soc, addr)
            bus_write(soc, addr, rng.randrange(1 << 32))
        assert snapshot(soc) == before

    def test_decode_matches_interval_oracle(self, soc):
        rng = random.Random(7)

        def oracle_mapped(addr):
            return any(r.base <= addr < r.base + r.size_bytes for r in MAP.regions)

        for _ in range(2000):
            addr = rng.randrange(0, 1 << 30) * 4
            verdict = bus_read(soc, addr)
            model_mapped = not (isinstance(verdict, BusError) and verdict.kind == ERR_UNMAPPED)
            assert model_mapped == oracle_mapped(addr), hex(addr)

    def test_hand_built_map_out_of_base_order_decodes(self):
        a = Region("a", "sram", 0x1000, 0x1000)
        b = Region("b", "sram", 0x2000, 0x1000)
        memmap = MemoryMap([b, a])
        assert memmap.regions == (a, b)
        assert memmap.region_at(0x2004) == b
        assert memmap.region_at(0x1004) == a
        assert memmap.region_at(0x3000) is None
        soc = build_soc(memmap, [])
        assert bus_write(soc, 0x2004, 0x1234) is None
        assert bus_read(soc, 0x2004) == 0x1234
        assert bus_read(soc, 0x1004) == BusError(ERR_XREAD, 0x1004)


class TestProperties:
    @settings(max_examples=200)
    @given(offset=st.integers(0, 0xFFF), value=st.integers(0, 0xFFFFFFFF))
    def test_read_your_write_sram(self, offset, value):
        soc = build_soc(MAP, csr_dbs())
        addr = SRAM_BASE + offset * 4
        assert bus_write(soc, addr, value) is None
        assert bus_read(soc, addr) == value

    @settings(max_examples=200)
    @given(value=st.integers(0, 0xFFFFFFFF))
    def test_read_your_write_csr(self, value):
        soc = build_soc(MAP, csr_dbs())
        bus_write(soc, CSR_BASE + 4, value)
        assert bus_read(soc, CSR_BASE + 4) == (value & 0xF)


class TestRegionTest:
    # the saved region test of the fixture map's sram0, as TestScript.add,
    # read_command and write_command built it
    FIXTURE_SHA256 = "cdc181b213472c158faacb37cfe7d089b88957fea415f18a1ce35a0f4cd68e20"

    def test_fixture_map_script_unchanged(self, fixtures_dir):
        memmap = load_memory_map((fixtures_dir / "soc.map").read_text())
        text = save_script(gen_region_test(memmap, "sram0"))
        assert hashlib.sha256(text.encode()).hexdigest() == self.FIXTURE_SHA256

    def test_1k_region_probe_bits(self):
        m = MemoryMap([Region("sram0", "sram", 0x60000000, 0x400)])
        rows = gen_region_test(m, "sram0")
        probe_writes = [command for command, _, comment in rows
                        if "address bit" in comment and command.startswith("W")]
        assert len(probe_writes) == 8  # bits 2..9
        assert probe_writes[0].split()[1] == "0x60000004"
        assert probe_writes[-1].split()[1] == "0x60000200"

    def test_single_word_region(self):
        m = MemoryMap([Region("s", "sram", 0x60000000, 0x4)])
        rows = gen_region_test(m, "s")
        assert not any("address bit" in comment for _, _, comment in rows)
        data_steps = [command for command, _, comment in rows
                      if "data bit" in comment and command.startswith("W")]
        assert len(data_steps) == 32

    def test_passes_on_fault_free_model(self, soc):
        report = uart_host.run_script(soc, save_script(gen_region_test(MAP, "sram0")))
        assert report.ok, uart_host.format_report(report)

    def test_csr_region_rejected(self):
        with pytest.raises(InputError, match="^region csr0 is a csr block, not a memory$"):
            gen_region_test(MAP, "csr0")

    @pytest.mark.parametrize("bit", [2, 7, 15])
    def test_address_fault_detected(self, bit):
        fault = FaultConfig("mask_address_bit", bit, "sram0")
        soc = build_soc(MAP, csr_dbs(), fault=fault)
        rows = gen_region_test(MAP, "sram0")
        report = uart_host.run_script(soc, save_script(rows))
        assert not report.ok
        assert any(f"bit {bit}" in rows[f.index][2] or "base" in rows[f.index][2]
                   for f in report.failures)

    @pytest.mark.parametrize("bit", [0, 13, 31])
    def test_data_fault_detected(self, bit):
        fault = FaultConfig("mask_data_bit", bit, "sram0")
        soc = build_soc(MAP, csr_dbs(), fault=fault)
        rows = gen_region_test(MAP, "sram0")
        report = uart_host.run_script(soc, save_script(rows))
        assert not report.ok
        failing_comments = {rows[f.index][2] for f in report.failures}
        assert any(f"data bit {bit} read back" == c for c in failing_comments)

    def test_fault_on_csr_region_rejected(self):
        with pytest.raises(DataError, match="^fault target 'csr0' is not an sram-backed region$"):
            build_soc(MAP, csr_dbs(), fault=FaultConfig("mask_address_bit", 3, "csr0"))

    def test_bad_fault_spec(self):
        with pytest.raises(DataError, match="^unknown fault kind 'zap'$"):
            build_soc(MAP, csr_dbs(), fault=FaultConfig("zap", 3, "sram0"))
        with pytest.raises(DataError, match=r"^fault bit 32 outside \[0, 32\)$"):
            build_soc(MAP, csr_dbs(), fault=FaultConfig("mask_data_bit", 32, "sram0"))

"""Every check of the settings and map types runs when one is built: an
invalid EmitConfig, FaultConfig, MemoryMap or NamingConvention cannot exist,
and each raises DataError with the message its check has always given."""

import pytest

from chipkit import DataError
from chipkit.busmodel import FaultConfig
from chipkit.memmap import MemoryMap, Region
from chipkit.regdb import EmitConfig, NamingConvention


def _map(*regions):
    return MemoryMap([Region(*r) for r in regions])


CASES = [
    # (case, build, message)
    ("emit-block-name", lambda: EmitConfig(block_name="2bad"),
     "block name '2bad' is not an identifier"),
    ("emit-blank-block-name", lambda: EmitConfig(block_name=""),
     "block name '' is not an identifier"),
    ("emit-block-name-then-newline", lambda: EmitConfig(block_name="demo\n"),
     "block name 'demo\\n' is not an identifier"),
    ("emit-size-not-power-of-two", lambda: EmitConfig(csr_region_size_bytes=0x300),
     "region size 0x300 is not a power of two >= 4"),
    ("emit-size-below-a-word", lambda: EmitConfig(base_address=0, csr_region_size_bytes=2),
     "region size 0x2 is not a power of two >= 4"),
    ("emit-base-unaligned", lambda: EmitConfig(base_address=0x100, csr_region_size_bytes=0x1000),
     "base address not aligned to region size"),
    ("emit-base-above-32-bits", lambda: EmitConfig(base_address=1 << 32),
     "base address outside 32-bit space"),
    ("emit-base-negative", lambda: EmitConfig(base_address=-0x1000),
     "base address outside 32-bit space"),
    ("emit-unknown-targets", lambda: EmitConfig(targets=("rtl", "zz", "bogus")),
     "unknown targets: bogus, zz"),
    ("emit-no-diag-pin", lambda: EmitConfig(diag_pins=0), "need at least one diagnostic pin"),
    ("emit-unmapped-negative", lambda: EmitConfig(unmapped_value=-1),
     "unmapped value -0x1 outside 32 bits"),
    ("emit-unmapped-above-32-bits", lambda: EmitConfig(unmapped_value=1 << 32),
     "unmapped value 0x100000000 outside 32 bits"),
    ("fault-kind", lambda: FaultConfig("zap", 3, "sram0"), "unknown fault kind 'zap'"),
    ("fault-bit-32", lambda: FaultConfig("mask_data_bit", 32, "sram0"),
     "fault bit 32 outside [0, 32)"),
    ("fault-bit-negative", lambda: FaultConfig("mask_address_bit", -1, "sram0"),
     "fault bit -1 outside [0, 32)"),
    ("map-kind", lambda: _map(("r", "rom", 0x1000, 0x1000)), "region r: unknown kind 'rom'"),
    ("map-size-not-power-of-two", lambda: _map(("r", "sram", 0x1000, 0x300)),
     "region r: size 0x300 not a power of two"),
    ("map-size-zero", lambda: _map(("r", "sram", 0x1000, 0)),
     "region r: size 0x0 not a power of two"),
    ("map-base-unaligned", lambda: _map(("r", "sram", 0x800, 0x1000)),
     "region r: base 0x00000800 not aligned to size"),
    ("map-above-32-bits", lambda: _map(("r", "sram", 1 << 32, 0x1000)),
     "region r: exceeds 32-bit address space"),
    ("map-duplicate-name",
     lambda: _map(("r", "sram", 0x1000, 0x1000), ("r", "csr", 0x2000, 0x1000)),
     "duplicate region name r"),
    ("map-overlap", lambda: _map(("b", "sram", 0x1800, 0x800), ("a", "sram", 0x1000, 0x1000)),
     "regions a and b overlap"),
    ("map-same-macro-name",
     lambda: _map(("a-b", "sram", 0x1000, 0x1000), ("a_b", "csr", 0x2000, 0x1000)),
     "regions a-b and a_b both declare SOC_A_B_BASE"),
    ("map-names-differ-in-case",
     lambda: _map(("A", "sram", 0x2000, 0x1000), ("a", "csr", 0x1000, 0x1000)),
     "regions a and A both declare SOC_A_BASE"),
    ("map-collisions-joined",
     lambda: _map(("r", "sram", 0x1000, 0x1000), ("R", "csr", 0x2000, 0x1000),
                  ("r", "sram", 0x3000, 0x1000)),
     "regions r and R both declare SOC_R_BASE; duplicate region name r"),
    ("map-problems-joined",
     lambda: _map(("r", "rom", 0x800, 0x1000), ("s", "sram", 0x800, 4)),
     "region r: unknown kind 'rom'; region r: base 0x00000800 not aligned to size; "
     "regions r and s overlap"),
    ("naming-blank-affix", lambda: NamingConvention(control_prefix=""),
     "naming affixes must be non-empty and pairwise distinct"),
    ("naming-shared-affix", lambda: NamingConvention(control_prefix="x_", status_prefix="x_"),
     "naming affixes must be non-empty and pairwise distinct"),
    ("naming-match-mode", lambda: NamingConvention(match_mode="infix"), "bad match_mode 'infix'"),
]


@pytest.mark.parametrize("build, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_invalid_value_cannot_be_built(build, message):
    with pytest.raises(DataError) as info:
        build()
    assert str(info.value) == message

"""Value semantics of chipkit's records, which are plain __slots__ classes
(mutable) and NamedTuples (immutable): a record equals another of its kind
exactly when every field does, mutable ones are unhashable, and the checked
settings and map cannot be built invalid or changed into an invalid value."""

import pytest

from chipkit import DataError, cli
from chipkit.busmodel import BusError, FaultConfig, SocModel, Stats
from chipkit.emit import Pad, PadDb
from chipkit.memmap import MemoryMap, Region
from chipkit.regdb import ChangeReport, DbError, EmitConfig, NamingConvention, RegDb, RegEntry
from chipkit.sv_scan import ModuleDecl, SourceFile
from chipkit.uart_host import SessionSummary, StepFailure, TestReport, parse_command


def _set(cls, *args):
    """Builds cls(*args), then sets each field given: for records whose
    constructor takes no field values."""
    def build(**values):
        record = cls(*args)
        for name, value in values.items():
            setattr(record, name, value)
        return record
    return build


_SRAM = Region("s", "sram", 0x1000, 0x1000)

# (record, build from field values, a value for each field, another for each)
CASES = [
    ("RegEntry", RegEntry,
     dict(name="a", width_bits=8, access="RW", reset_value=1, offset_bytes=4,
          origin_module="m", description="d", state="active", extra={"k": "v"}),
     dict(name="b", width_bits=9, access="RO", reset_value=2, offset_bytes=8,
          origin_module="n", description="e", state="retired", extra={})),
    ("RegDb", RegDb,
     dict(entries=[RegEntry("a", 8, "RW")], columns=["name"]),
     dict(entries=[RegEntry("a", 9, "RW")], columns=["name", "state"])),
    ("ChangeReport", _set(ChangeReport),
     dict(added=["a"], modified=[], retired=[], unchanged_count=1),
     dict(added=[], modified=[("a", "width", 1, 2)], retired=["b"], unchanged_count=2)),
    ("DbError", DbError, dict(entry="a", message="m"), dict(entry="", message="n")),
    ("NamingConvention", NamingConvention,
     dict(control_prefix="cfg_", status_prefix="sts_", diag_prefix="diag_",
          match_mode="prefix"),
     dict(control_prefix="ctl_", status_prefix="st_", diag_prefix="dbg_",
          match_mode="postfix")),
    ("EmitConfig", EmitConfig,
     dict(block_name="soc", base_address=0x50000000, csr_region_size_bytes=0x1000,
          targets=("rtl",), unmapped_value=0xDEADBEEF, diag_pins=2),
     dict(block_name="core", base_address=0x40000000, csr_region_size_bytes=0x2000,
          targets=("md",), unmapped_value=0, diag_pins=3)),
    ("Region", Region, dict(name="r", kind="sram", base=0, size_bytes=4),
     dict(name="q", kind="csr", base=4, size_bytes=8)),
    ("MemoryMap", MemoryMap, dict(regions=(_SRAM,)), dict(regions=())),
    ("BusError", BusError, dict(kind="Unmapped", address=4),
     dict(kind="Misaligned", address=8)),
    ("FaultConfig", FaultConfig, dict(kind="mask_data_bit", bit=3, target_region="s"),
     dict(kind="mask_address_bit", bit=4, target_region="t")),
    ("Stats", _set(Stats), dict(reads=1, writes=2, errors=3),
     dict(reads=4, writes=5, errors=6)),
    ("SocModel", _set(SocModel, MemoryMap()),
     dict(memmap=MemoryMap(), csr_blocks={}, srams={}, fault=None, stats=Stats(),
          bases=(), targets=()),
     dict(memmap=MemoryMap([_SRAM]), csr_blocks={"c": None}, srams={"s": None},
          fault=FaultConfig("mask_data_bit", 3, "s"), stats=_set(Stats)(reads=1),
          bases=(0x1000,), targets=((0x2000, 0x1000, None),))),
    ("StepFailure", StepFailure, dict(index=1, command="R 0x4", expected="OK", actual="x"),
     dict(index=2, command="R 0x8", expected="0x0", actual="y")),
    ("TestReport", TestReport, dict(total=2, passed=1, failures=[]),
     dict(total=3, passed=2, failures=[StepFailure(0, "R 0x4", "OK", "x")])),
    ("SessionSummary", _set(SessionSummary),
     dict(lines=1, responses=1, sessions=1, quit_seen=False),
     dict(lines=2, responses=0, sessions=2, quit_seen=True)),
    ("ProjectConfig", _set(cli.ProjectConfig),
     {"rtl_paths": ["rtl"], "db_path": "regs.csv", "out_dir": "gen", "map_path": None,
      "pads_path": None, "naming": NamingConvention(), "emit": EmitConfig(),
      "sram_mode": "strict_x", "sram_seed": 0, "listen_port": None, "fault": None,
      "stop_on_fail": False, "prompt": False},
     {"rtl_paths": [], "db_path": "a.csv", "out_dir": "out", "map_path": "soc.map",
      "pads_path": "pads.csv", "naming": NamingConvention(match_mode="postfix"),
      "emit": EmitConfig(diag_pins=1), "sram_mode": "random", "sram_seed": 7,
      "listen_port": 0, "fault": FaultConfig("mask_data_bit", 0, "s"),
      "stop_on_fail": True, "prompt": True}),
    ("SourceFile", SourceFile, dict(path="a.sv", content="module m;\nendmodule\n"),
     dict(path="b.sv", content="")),
    ("ModuleDecl", ModuleDecl, dict(name="m", ports=[], path="a.sv", line_span=(1, 2)),
     dict(name="n", ports=[None], path="b.sv", line_span=(1, 3))),
    ("Pad", Pad, dict(name="p", side="N", order_index=0, cell_type="PDIN", signal="clk"),
     dict(name="q", side="S", order_index=1, cell_type="PDOUT", signal="rst")),
    ("PadDb", PadDb, dict(pads=(Pad("p", "N", 0, "PDIN", "clk"),)), dict(pads=())),
]

_IDS = [case[0] for case in CASES]
_ARGS = [case[1:] for case in CASES]


def _fields(record) -> set:
    """The fields a record is built from: a NamedTuple's, or the slots that do
    not start with '_'. A source file's _line_starts and a map's bases are
    derived from its other fields."""
    names = getattr(record, "_fields", None) or type(record).__slots__
    derived = {"bases"} if isinstance(record, MemoryMap) else set()
    return {name for name in names if not name.startswith("_")} - derived


@pytest.mark.parametrize("build, values, others", _ARGS, ids=_IDS)
def test_equal_exactly_when_every_field_is(build, values, others):
    record = build(**values)
    assert set(values) == set(others) == _fields(record)  # every field is covered
    assert record == build(**values) and not record != build(**values)
    for name, other in others.items():
        assert record != build(**{**values, name: other}), name
    assert record != object()


@pytest.mark.parametrize("build, values, others", _ARGS, ids=_IDS)
def test_slots_only_and_unhashable_when_mutable(build, values, others):
    record = build(**values)
    assert not hasattr(record, "__dict__")
    if not isinstance(record, tuple):  # a NamedTuple hashes as the tuple of its fields
        with pytest.raises(TypeError):
            hash(record)


def test_command_equals_the_bare_tuple_parse_command_returns():
    assert parse_command("W 4 5") == ("W", 4, 5)
    assert parse_command("q") == ("Q", None, None)


# (a valid record, changes that make it invalid, the DataError message)
INVALID_CHANGES = [
    (EmitConfig(), {"unmapped_value": -1}, "unmapped value -0x1 outside 32 bits"),
    (EmitConfig(), {"diag_pins": 0}, "need at least one diagnostic pin"),
    (EmitConfig(), {"csr_region_size_bytes": 0x300},
     "region size 0x300 is not a power of two >= 4"),
    (NamingConvention(), {"status_prefix": "cfg_"},
     "naming affixes must be non-empty and pairwise distinct"),
    (NamingConvention(), {"match_mode": "infix"}, "bad match_mode 'infix'"),
    (FaultConfig("mask_data_bit", 3, "s"), {"bit": 32}, "fault bit 32 outside [0, 32)"),
    (FaultConfig("mask_data_bit", 3, "s"), {"kind": "zap"}, "unknown fault kind 'zap'"),
    (MemoryMap([_SRAM]), {"regions": (_SRAM, Region("t", "sram", 0x1800, 0x800))},
     "regions s and t overlap"),
]


@pytest.mark.parametrize("record, changes, message", INVALID_CHANGES,
                         ids=[f"{type(r).__name__}-{next(iter(c))}"
                              for r, c, _ in INVALID_CHANGES])
def test_valid_record_cannot_be_changed_into_an_invalid_one(record, changes, message):
    kept = record._asdict()
    with pytest.raises(DataError) as info:
        record._replace(**changes)
    assert str(info.value) == message
    with pytest.raises(DataError):
        type(record)._make({**kept, **changes}.values())
    for name, value in changes.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert record._asdict() == kept


def test_replace_and_make_build_the_checked_class():
    changed = EmitConfig()._replace(diag_pins=1)
    assert type(changed) is EmitConfig and changed == EmitConfig(diag_pins=1)
    moved = MemoryMap()._replace(regions=[_SRAM])
    assert type(moved) is MemoryMap and moved.bases == (0x1000,)
    assert MemoryMap._make([[_SRAM]]) == MemoryMap([_SRAM])


@pytest.mark.parametrize("values, message", [
    ({"emit.unmapped_value": 1 << 32}, "unmapped value 0x100000000 outside 32 bits"),
    ({"naming.diag_prefix": ""}, "naming affixes must be non-empty and pairwise distinct"),
])
def test_settings_cannot_be_applied_into_an_invalid_config(values, message):
    with pytest.raises(DataError) as info:
        cli._apply(cli.ProjectConfig(), values)
    assert str(info.value) == message

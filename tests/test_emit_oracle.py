"""Differential properties against emit_oracle. The self-test emitter, which
writes one block of text per register, agrees byte for byte with the one that
added each step through the script helpers, saved as the line list was, on
databases with active and retired registers, in regions from too small to
roomy, at any aligned base and with any unmapped value. save_script, which
joins a run of steps at a time, agrees with that line list on any steps. The
two writer tests keep the names they had when the writer was format_steps.
The register block, instantiation template, Markdown, software views and
self-test, rendered from one RegMap, agree with the per-field renderers on the
same databases and on hand-picked ones that no validation would pass, errors
included. A RegMap shared by every target renders as a fresh one per target."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emit_oracle
import strategies
from chipkit import ChipkitError, emit
from chipkit.memmap import MemoryMap, Region
from chipkit.regdb import ACTIVE, RETIRED, EmitConfig, RegDb, RegEntry, db_hash
from chipkit.script import save_script
from chipkit.sv_scan import DiagCandidate
from host_oracle import ScriptStep, TestScript


@st.composite
def emit_configs(draw):
    size = 1 << draw(st.integers(2, 12))
    return EmitConfig(block_name="blk",
                      base_address=size * draw(st.integers(0, (1 << 32) // size - 1)),
                      csr_region_size_bytes=size,
                      unmapped_value=draw(st.sampled_from([0, 0xDEADBEEF, 0xFFFFFFFF])))


def _outcome(fn, *args):
    """The result, or the type and message of the error, so that two
    renderers agree on what they raise as well as on what they write. A
    ValueError is the self-test's shift by a negative width, which only the
    unvalidated edge databases below reach."""
    try:
        return "ok", fn(*args)
    except (ChipkitError, ValueError) as exc:
        return type(exc).__name__, str(exc)


# the oracle of each emitter; an oracle takes the (db, cfg, hash32) that prepare() takes
_ORACLES = {"emit_csr_rtl": emit_oracle.emit_csr_rtl,
            "emit_instantiation_template": emit_oracle.emit_instantiation_template,
            "emit_markdown": emit_oracle.emit_markdown,
            "emit_sw_views": emit_oracle.emit_sw_views,
            "emit_selftest": lambda *args: emit_oracle.save_script(
                emit_oracle.emit_selftest(*args))}


@settings(max_examples=300, deadline=None)
@given(db=strategies.reg_dbs(), cfg=emit_configs())
def test_selftest_matches_oracle(db, cfg):
    hash32 = db_hash(db)
    assert _outcome(emit.emit_selftest, emit.prepare(db, cfg, hash32)) == \
        _outcome(_ORACLES["emit_selftest"], db, cfg, hash32)


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_TEXT, _TEXT, st.one_of(st.just(""), _TEXT)), max_size=40))
def test_format_steps_matches_the_line_list(rows):
    """Empty scripts, comments or none on the first and later steps, and any
    characters."""
    expected = emit_oracle.save_script(TestScript([ScriptStep(*row) for row in rows]))
    assert save_script(iter(rows)) == expected
    assert save_script(rows) == expected


@pytest.mark.parametrize("commented", [lambda i: True, lambda i: i % 3 == 0, lambda i: i % 3])
def test_format_steps_across_its_joins(commented):
    """Scripts that run across the 256-step joins, with and without a comment
    on the steps at either side of each join."""
    rows = [(f"R 0x{i:08x}", f"0x{i:08x}", f"step {i}" if commented(i) else "")
            for i in range(700)]
    assert save_script(rows) == emit_oracle.save_script(
        TestScript([ScriptStep(*row) for row in rows]))


def _views_match(db, cfg, hash32):
    regs = emit.prepare(db, cfg, hash32)
    for view, oracle in _ORACLES.items():
        assert _outcome(getattr(emit, view), regs) == _outcome(oracle, db, cfg, hash32), view


@settings(max_examples=300, deadline=None)
@given(db=strategies.reg_dbs(), cfg=emit_configs(), hash32=st.integers(0, 0xFFFFFFFF))
def test_register_views_match_oracle(db, cfg, hash32):
    _views_match(db, cfg, hash32)


def _db(*rows):
    """Entries (name, width, access, reset, state, description) at 0x4, 0x8, ..."""
    return RegDb([RegEntry(name, width, access, reset, 4 + 4 * i, "m", desc, state)
                  for i, (name, width, access, reset, state, desc) in enumerate(rows)])


# the port list's last comma moves with which of the RW and RO groups exist
_DBS = {
    "empty": _db(),
    "rw-only": _db(("cfg_a", 1, "RW", 1, ACTIVE, ""), ("cfg_b", 32, "RW", 0xFFFFFFFF, ACTIVE, "")),
    "ro-only": _db(("sts_a", 32, "RO", 0x80000000, ACTIVE, ""), ("sts_b", 1, "RO", 0, ACTIVE, "")),
    "all-retired": _db(("cfg_a", 7, "RW", 5, RETIRED, "old"), ("sts_b", 32, "RO", 0, RETIRED, "")),
    "rw-ro-retired": _db(("cfg_a", 1, "RW", 0, ACTIVE, ""), ("sts_b", 32, "RO", 3, ACTIVE, ""),
                         ("cfg_c", 32, "RW", 9, RETIRED, ""), ("sts_d", 1, "RO", 1, ACTIVE, "")),
    "descriptions": _db(("cfg_a", 8, "RW", 0, ACTIVE, "a | b"),
                        ("cfg_b", 8, "RW", 0, ACTIVE, "two\nlines"),
                        ("sts_c", 8, "RO", 0, ACTIVE, 'the "fast" path, it\'s |\n|'),
                        ("sts_d", 8, "RO", 0, RETIRED, "gone | \"for\" good\n")),
    # unvalidated: names that are no C identifier as they stand (one has a
    # letter that upper-cases to two), then widths and resets outside 1-32 bits
    "odd-names": _db(("a-b", 8, "RW", 0, ACTIVE, ""), ("9lives", 4, "RO", 0, ACTIVE, ""),
                     ("stra\u00dfe", 8, "RW", 0, ACTIVE, ""), ("x y", 8, "RO", 0, ACTIVE, ""),
                     ("\u00e9t\u00e9", 8, "RW", 0, ACTIVE, ""), ("_", 1, "RO", 0, RETIRED, "")),
    "odd-widths": _db(("cfg_zero", 0, "RW", 0, ACTIVE, ""), ("cfg_wide", 33, "RW", 1 << 32, ACTIVE, ""),
                      ("sts_wide", 128, "RO", -1, ACTIVE, ""), ("cfg_neg", -2, "RW", 7, ACTIVE, "")),
}
_CONFIGS = {
    "roomy": EmitConfig(block_name="blk", base_address=0x40000000, csr_region_size_bytes=0x1000),
    "top-of-space": EmitConfig(block_name="top", base_address=0xFFFFFF00, csr_region_size_bytes=0x100,
                               unmapped_value=0),
    "too-small": EmitConfig(block_name="blk", base_address=0, csr_region_size_bytes=8),
    # an address bus wider than any register, and addresses past 32 bits
    "huge": EmitConfig(block_name="huge", base_address=0, csr_region_size_bytes=1 << 36),
}


@pytest.mark.parametrize("cfg", _CONFIGS.values(), ids=_CONFIGS.keys())
@pytest.mark.parametrize("db", _DBS.values(), ids=_DBS.keys())
def test_register_views_match_oracle_on_edge_databases(db, cfg):
    _views_match(db, cfg, 0x1234ABCD)


def test_register_views_match_oracle_past_32_bit_addresses():
    db = RegDb([RegEntry("cfg_far", 32, "RW", 1, (1 << 32) + 4, "m", "past 4 GiB"),
                RegEntry("sts_far", 1, "RO", 0, (1 << 33) + 8, "m", ""),
                RegEntry("cfg_gone", 8, "RW", 0, (1 << 34) + 12, "m", "", RETIRED)])
    _views_match(db, _CONFIGS["huge"], 0)


def _groups(targets):
    """The targets in the groups cmd_generate renders them in: c and py
    together, every other target alone."""
    sw = tuple(t for t in targets if t in ("c", "py"))
    return list(dict.fromkeys(sw if t in sw else (t,) for t in targets))


_MAP = MemoryMap([Region("csr0", "csr", 0x40000000, 0x1000)])


def _shared_map_renders_as_fresh(db, cfg, hash32):
    """Every target rendered from one shared RegMap, in generate's group order
    and then again in reverse, gives the bytes and errors of a fresh RegMap per
    group: no emitter changes what it or another reads."""
    def render(regs, group):
        return _outcome(emit.render_targets, regs._replace(cfg=cfg._replace(targets=group)),
                        _MAP, [DiagCandidate("diag_a", "m")])

    groups = _groups(cfg.targets)
    fresh = {group: render(emit.prepare(db, cfg, hash32), group) for group in groups}
    shared = emit.prepare(db, cfg, hash32)
    assert {group: render(shared, group) for group in groups} == fresh
    assert {group: render(shared, group) for group in reversed(groups)} == fresh


@settings(max_examples=150, deadline=None)
@given(db=strategies.reg_dbs(), cfg=emit_configs(), hash32=st.integers(0, 0xFFFFFFFF))
def test_shared_register_map_stays_unchanged(db, cfg, hash32):
    _shared_map_renders_as_fresh(db, cfg, hash32)


@pytest.mark.parametrize("cfg", _CONFIGS.values(), ids=_CONFIGS.keys())
@pytest.mark.parametrize("db", _DBS.values(), ids=_DBS.keys())
def test_shared_register_map_stays_unchanged_on_edge_databases(db, cfg):
    _shared_map_renders_as_fresh(db, cfg, 0x1234ABCD)

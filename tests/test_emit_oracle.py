"""Differential properties against emit_oracle. The self-test emitter, which
writes its text from a stream of steps, agrees byte for byte with the one that
added each step through the script helpers, saved as the line list was, on
databases with active and retired registers, in regions from too small to
roomy, at any aligned base and with any unmapped value. format_steps, which
joins a run of steps at a time, agrees with that line list on any steps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emit_oracle
import strategies
from chipkit import ChipkitError, emit
from chipkit.regdb import EmitConfig
from chipkit.script import ScriptStep, TestScript, format_steps, save_script


@st.composite
def emit_configs(draw):
    size = 1 << draw(st.integers(2, 12))
    return EmitConfig(block_name="blk",
                      base_address=size * draw(st.integers(0, (1 << 32) // size - 1)),
                      csr_region_size_bytes=size,
                      unmapped_value=draw(st.sampled_from([0, 0xDEADBEEF, 0xFFFFFFFF])))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ChipkitError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(db=strategies.reg_dbs(), cfg=emit_configs())
def test_selftest_matches_oracle(db, cfg):
    assert _outcome(emit.emit_selftest, db, cfg) == \
        _outcome(lambda *args: emit_oracle.save_script(emit_oracle.emit_selftest(*args)), db, cfg)


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_TEXT, _TEXT, st.one_of(st.just(""), _TEXT)), max_size=40))
def test_format_steps_matches_the_line_list(rows):
    """Empty scripts, comments or none on the first and later steps, and any
    characters."""
    steps = TestScript([ScriptStep(*row) for row in rows])
    expected = emit_oracle.save_script(steps)
    assert format_steps(iter(rows)) == expected
    assert save_script(steps) == expected


@pytest.mark.parametrize("commented", [lambda i: True, lambda i: i % 3 == 0, lambda i: i % 3])
def test_format_steps_across_its_joins(commented):
    """Scripts that run across the 256-step joins, with and without a comment
    on the steps at either side of each join."""
    rows = [(f"R 0x{i:08x}", f"0x{i:08x}", f"step {i}" if commented(i) else "")
            for i in range(700)]
    assert format_steps(rows) == emit_oracle.save_script(
        TestScript([ScriptStep(*row) for row in rows]))

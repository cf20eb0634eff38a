"""Differential property: the self-test emitter that appends its steps
directly agrees with the one that adds each step through the script helpers
(emit_oracle), step for step and byte for byte once saved, on databases with
active and retired registers, in regions from too small to roomy, at any
aligned base and with any unmapped value."""

from hypothesis import given, settings
from hypothesis import strategies as st

import emit_oracle
import strategies
from chipkit import ChipkitError, emit
from chipkit.regdb import EmitConfig
from chipkit.script import save_script


@st.composite
def emit_configs(draw):
    size = 1 << draw(st.integers(2, 12))
    return EmitConfig(block_name="blk",
                      base_address=size * draw(st.integers(0, (1 << 32) // size - 1)),
                      csr_region_size_bytes=size,
                      unmapped_value=draw(st.sampled_from([0, 0xDEADBEEF, 0xFFFFFFFF])))


def _outcome(fn, *args):
    try:
        script = fn(*args)
    except ChipkitError as exc:
        return type(exc).__name__, str(exc)
    return "ok", script.steps, save_script(script)


@settings(max_examples=300, deadline=None)
@given(db=strategies.reg_dbs(), cfg=emit_configs())
def test_selftest_matches_oracle(db, cfg):
    assert _outcome(emit.emit_selftest, db, cfg) == _outcome(emit_oracle.emit_selftest, db, cfg)

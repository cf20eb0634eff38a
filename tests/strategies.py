"""Hypothesis strategies shared by the database property tests."""

from __future__ import annotations

import operator

from hypothesis import strategies as st

from chipkit.regdb import (
    ACCESS_RO, ACCESS_RW, ACTIVE, DIAG_SEL, RETIRED, TAPS_COLUMN, CsrCandidate, DiagTap, RegDb,
    RegEntry, diag_select_bits, format_taps, update_db)

_LOWER = "abcdefghijklmnopqrstuvwxyz"
# [a-z][a-z0-9_]{0,11}, built without from_regex, whose regex engine costs
# most of the database property tests' time
names = st.builds(operator.add, st.sampled_from(_LOWER),
                  st.text(alphabet=_LOWER + "0123456789_", max_size=11))
module_names = st.sampled_from(["alpha", "beta", "gamma", "delta"])
access = st.sampled_from([ACCESS_RW, ACCESS_RO])
# printable text that exercises CSV quoting (commas, quotes, newlines)
descriptions = st.text(
    alphabet=st.sampled_from(list("abc XYZ09_,\"'\n|;")), max_size=24)


@st.composite
def reg_entries(draw, name):
    width = draw(st.integers(1, 32))
    return RegEntry(
        name=name,
        width_bits=width,
        access=draw(access),
        reset_value=draw(st.integers(0, (1 << width) - 1)),
        origin_module=draw(module_names),
        description=draw(descriptions),
        state=draw(st.sampled_from([ACTIVE, RETIRED])),
    )


@st.composite
def reg_dbs(draw, max_entries=8):
    entry_names = draw(st.lists(names, max_size=max_entries, unique=True))
    db = RegDb(entries=[draw(reg_entries(n)) for n in entry_names])
    return update_db(db, [], scanned_modules=set())[0]  # allocates, retires nothing


@st.composite
def gapped_dbs(draw, max_entries=8):
    """reg_dbs with each entry at a drawn word offset below 0x400, so that
    the map has gaps, and an entry may lie past a region that would hold
    them all packed from 0x4."""
    db = draw(reg_dbs(max_entries))
    offsets = draw(st.lists(st.integers(1, 0xFF).map(lambda word: 4 * word), unique=True,
                            min_size=len(db.entries), max_size=len(db.entries)))
    return RegDb([e._replace(offset_bytes=o) for e, o in zip(db.entries, offsets)], db.columns)


@st.composite
def tapped_dbs(draw, max_entries=8):
    """reg_dbs, and in some an active RW cfg_diag_sel recording up to six
    taps, some retired; the select register holds one field for each of two
    pins, and its origin is the mux of block blk or a module no scan names.
    Some of them validate_db rejects."""
    db = draw(reg_dbs(max_entries))
    tap_names = draw(st.lists(names, max_size=6, unique=True))
    if not tap_names or db.entry(DIAG_SEL) is not None:
        return db
    taps = [DiagTap(f"diag_{n}", draw(module_names), draw(st.booleans())) for n in tap_names]
    sel = RegEntry(DIAG_SEL, max(1, 2 * diag_select_bits(taps)), ACCESS_RW,
                   origin_module=draw(st.sampled_from(["blk_diag_mux", "mux"])),
                   extra={TAPS_COLUMN: format_taps(taps)})
    return update_db(RegDb([*db.entries, sel], [*db.columns, TAPS_COLUMN]), [],
                     scanned_modules=set())[0]  # allocates the select register


@st.composite
def candidate_lists(draw, max_candidates=6):
    cand_names = draw(st.lists(names, max_size=max_candidates, unique=True))
    return [
        CsrCandidate(
            name=n,
            width_bits=draw(st.integers(1, 32)),
            access=draw(access),
            origin_module=draw(module_names),
        )
        for n in cand_names
    ]

"""Differential properties: the one-pass database reader and the one-picker
writer agree with the per-cell versions in regdb_oracle, on canonical and
extra columns in any order, with or without a state column, and on every
malformed-row error; and update_db, which compares the scan-owned fields as
one tuple and replaces the entries it changes, agrees with the merge that
sets each field of a mutable copy, on candidates that refresh, widen, move,
reactivate or collide with known entries and on new ones, and on the
diagnostic taps: held and found taps, diag on and off, pins and blocks, and
inputs with several faults, whose first in update's order must win."""

import csv
import io

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

import regdb_oracle
import strategies
from chipkit import ChipkitError, regdb

# cell tokens: valid and invalid numbers, access and state tokens in odd
# case and padding, and text that needs CSV quoting
_NUMBERS = ["0", "1", "7", "32", "0x4", "0x8", "0xc", "0X10", " 0x14 ", "", "zz", "-1", "1_0"]
_WORDS = ["RW", "ro", " RO ", "XX", "active", "RETIRED", " retired", "bogus", "a", "b", "c_1"]
_TEXT = st.text(alphabet=st.sampled_from(list("ab ,\"'\n;é")), max_size=8)
cells = st.sampled_from(_NUMBERS) | st.sampled_from(_WORDS) | _TEXT


@st.composite
def db_texts(draw):
    """A header of the required columns, maybe state, and extra columns (one
    possibly repeated) in random order, then well-formed rows with quoted
    text, empty offsets and blank lines, about one in eight of them broken: a
    bad token, too few or too many cells, a repeated name or a repeated offset."""
    extras = draw(st.lists(st.sampled_from(["owner", "notes", " tag ", "x"]), max_size=3))
    header = list(regdb.REQUIRED_COLUMNS) + extras
    if draw(st.booleans()):
        header.append("state")
    header = draw(st.permutations(header))
    if draw(st.integers(0, 19)) == 0:
        header = header[1:]  # a required column missing
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    for i in range(draw(st.integers(0, 6))):
        width = draw(st.integers(1, 32))
        cell = {
            "name": f"r{i}",
            "width": str(width),
            "access": draw(st.sampled_from(["RW", "RO", " ro"])),
            "reset": hex(draw(st.integers(0, (1 << width) - 1))),
            "offset": draw(st.sampled_from([hex(4 * i + 4), "", f" 0X{4 * i + 4:X} "])),
            "state": draw(st.sampled_from(["active", "retired", " Active"])),
        }
        row = [cell[c] if c in cell else draw(_TEXT) for c in header]
        fault = draw(st.integers(0, 99))
        if fault < len(row):
            row[fault] = draw(cells)
        elif fault == 95:
            row = row[:-1]
        elif fault == 96 and i and "name" in header:
            row[header.index("name")] = "r0"
        elif fault == 97 and i and "offset" in header:
            row[header.index("offset")] = "0x4"
        elif fault == 98:
            row = []
        elif fault == 99:
            row = row + ["x"]
        writer.writerow(row)
    return out.getvalue()


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ChipkitError as exc:
        return type(exc).__name__, str(exc)


def _without_empty_cells(outcome):
    """The oracle's outcome with each entry's empty extra cells dropped: an
    entry's extra holds only its non-empty cells, which save_db writes back
    with the empty ones, so no entry carries a dict of empty cells."""
    if outcome[0] == "ok":
        db = outcome[1]
        db.entries = [e._replace(extra={c: v for c, v in e.extra.items() if v})
                      for e in db.entries]
    return outcome


@settings(max_examples=300, deadline=None)
@given(text=db_texts(), added=st.lists(st.sampled_from(["owner", "new", "state"]), max_size=2))
def test_load_and_save_match_oracle(text, added):
    loaded = _outcome(regdb.load_db, text)
    assert loaded == _without_empty_cells(_outcome(regdb_oracle.load_db, text))
    if loaded[0] != "ok":
        return
    db = loaded[1]
    assert _outcome(regdb.save_db, db) == _outcome(regdb_oracle.save_db, db)
    # a column added by hand, which no entry carries, saves as empty cells
    db.columns += added
    assert _outcome(regdb.save_db, db) == _outcome(regdb_oracle.save_db, db)


_rarely = st.sampled_from([False] * 7 + [True])  # a fault in about one draw in eight


@st.composite
def merges(draw):
    """A database, in some with taps on its cfg_diag_sel row, and a scan:
    candidates that mostly name its entries with drawn fields, the scanned
    modules (None: the candidates' own), the taps found, mostly ones the row
    records, and in most a config (None: no region and no tap merge) with
    diag on or off, a block, a region size and the pins. Each fault is drawn
    on its own, so that some draws carry several and the first in update's
    order must win: a bad or repeated tap in the row, a tap found in two
    modules, a tap differing from another only in case, an RTL port named
    cfg_diag_sel, a candidate named twice, one that collides with a retired
    entry, an entry past the region and a region too small to allocate in."""
    db = draw(strategies.tapped_dbs())
    known = {e.name: e for e in db.entries if e.name != regdb.DIAG_SEL}
    names = st.sampled_from(sorted(known)) | strategies.names if known else strategies.names
    cands = []
    for name in draw(st.lists(names, max_size=8, unique=True)):
        e = known.get(name)  # a known entry's fields are each kept or drawn anew
        fields = [draw(drawn if e is None else st.just(getattr(e, attr)) | drawn)
                  for attr, drawn in (("width_bits", st.integers(1, 32)),
                                      ("access", strategies.access),
                                      ("origin_module", strategies.module_names))]
        cands.append(regdb.CsrCandidate(name, *fields))
    if cands and draw(_rarely):  # a name twice
        cands.append(draw(st.sampled_from(cands))._replace(width_bits=draw(st.integers(1, 32))))
    if draw(_rarely):  # an RTL port named as the select register
        cands.append(regdb.CsrCandidate(regdb.DIAG_SEL, draw(st.integers(1, 32)),
                                        draw(strategies.access), draw(strategies.module_names)))
    cands = draw(st.permutations(cands))
    scanned = draw(st.none() | st.sets(strategies.module_names))

    sel = db.entry(regdb.DIAG_SEL)
    held = [t.name for t in regdb.parse_taps(sel.extra[regdb.TAPS_COLUMN])] if sel else []
    tap_names = st.sampled_from(held) | strategies.names.map("diag_".__add__) if held \
        else strategies.names.map("diag_".__add__)
    found = [regdb.DiagTap(n, draw(strategies.module_names))
             for n in draw(st.lists(tap_names, max_size=5, unique=True))]
    if found and draw(_rarely):  # found in a second module
        found.append(draw(st.sampled_from(found))._replace(
            origin_module=draw(strategies.module_names)))
    if held and draw(_rarely):  # differing only in case
        found.append(regdb.DiagTap(draw(st.sampled_from(held)).upper(),
                                   draw(strategies.module_names)))
    if sel and draw(_rarely):  # a bad or a repeated tap in the row
        bad = st.sampled_from(["2x@m", "diag_q@m:gone", "", "diag_q"])
        cell = sel.extra[regdb.TAPS_COLUMN] + " " + draw(bad | st.sampled_from(held).map(
            "{}@gamma".format))
        db.entries[db.entries.index(sel)] = sel._replace(extra={regdb.TAPS_COLUMN: cell})

    config = None
    if draw(st.sampled_from([True, True, True, False])):
        config = regdb.EmitConfig(
            block_name=draw(st.sampled_from(["blk", "soc"])), base_address=0,
            csr_region_size_bytes=draw(st.sampled_from([1 << 12, 64, 16])),
            targets=draw(st.sampled_from([regdb.ALL_TARGETS] * 3 + [("rtl", "c")])),
            diag_pins=draw(st.integers(1, 3)))
    return db, cands, scanned, config, draw(st.permutations(found))


def _merge(update_db, db, cands, scanned, config, taps):
    try:
        return update_db(db, cands, scanned, config, taps)
    except ChipkitError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=500, deadline=None)
@given(case=merges())
def test_update_db_matches_oracle(case):
    db, *rest = case
    before = regdb.save_db(db)
    assert _merge(regdb.update_db, db, *rest) == _merge(regdb_oracle.update_db, db, *rest)
    assert regdb.save_db(db) == before


def test_tapped_dbs_draw_active_and_retired_taps():
    """The merge law above draws its recorded taps from tapped_dbs, so that
    strategy must draw them."""
    for retired in (False, True):
        find(strategies.tapped_dbs(), lambda db: any(
            t.retired == retired for e in db.entries if e.name == regdb.DIAG_SEL
            for t in regdb.parse_taps(e.extra[regdb.TAPS_COLUMN])))


def _c(name, access="RW"):
    return regdb.CsrCandidate(name, 8, access, "m")


# the faults update_db can meet, each paired with the input that carries it; a
# case carries its own fault and every later one, in update's order
_FAULTS = [
    ("bad-tap-in-the-row", "bad diagnostic tap '2x@m' (name@module, :retired if retired)"),
    ("tap-in-two-modules", "duplicate diagnostic signal names across modules"),
    ("tap-differing-in-case", "diagnostic tap DIAG_A differs from diag_a only in case"),
    ("port-named-cfg_diag_sel",
     "cfg_diag_sel is generated for the diagnostic mux; rename the conflicting RTL port"),
    ("candidate-twice", "duplicate candidate name cfg_x"),
    ("retired-collision",
     "candidate cfg_old (RW) collides with a retired RO entry at offset 0x4"),
    ("entry-past-the-region", "entry cfg_diag_sel at offset 0x8 falls outside the region"),
]


@pytest.mark.parametrize("first", range(len(_FAULTS)), ids=[f[0] for f in _FAULTS])
def test_first_fault_in_update_order_wins(first):
    """One input per fault that also carries every later fault: the fault's
    own error wins, and the oracle raises it too."""
    faults = {name for name, _ in _FAULTS[first:]}
    cell, taps, cands = "diag_a@m", [regdb.DiagTap("diag_a", "m")], []
    if "bad-tap-in-the-row" in faults:
        cell += " 2x@m"
    if "tap-in-two-modules" in faults:
        taps += [regdb.DiagTap("diag_b", "m"), regdb.DiagTap("diag_b", "n")]
    if "tap-differing-in-case" in faults:
        taps.append(regdb.DiagTap("DIAG_A", "n"))
    if "port-named-cfg_diag_sel" in faults:
        cands.append(_c(regdb.DIAG_SEL))
    if "candidate-twice" in faults:
        cands += [_c("cfg_x"), _c("cfg_x")]
    if "retired-collision" in faults:
        cands.append(_c("cfg_old"))
    db = regdb.RegDb(
        [regdb.RegEntry("cfg_old", 8, "RO", 0, 0x4, "m", "", regdb.RETIRED),
         regdb.RegEntry(regdb.DIAG_SEL, 2, "RW", 0, 0x8, "blk_diag_mux", "", regdb.ACTIVE,
                        {regdb.TAPS_COLUMN: cell})],
        [*regdb.CANONICAL_COLUMNS, regdb.TAPS_COLUMN])
    config = regdb.EmitConfig(block_name="blk", base_address=0, csr_region_size_bytes=8)
    args = db, cands, {"m", "n"}, config, taps
    expected = "DataError" if first in (0, 1, 2, 5, 6) else "InputError", _FAULTS[first][1]
    assert _merge(regdb.update_db, *args) == expected
    assert _merge(regdb_oracle.update_db, *args) == expected

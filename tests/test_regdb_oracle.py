"""Differential properties: the one-pass database reader and the one-picker
writer agree with the per-cell versions in regdb_oracle, on canonical and
extra columns in any order, with or without a state column, and on every
malformed-row error; and update_db, which compares the scan-owned fields as
one tuple and replaces the entries it changes, agrees with the merge that
sets each field of a mutable copy, on candidates that refresh, widen, move,
reactivate or collide with known entries and on new ones."""

import csv
import io

from hypothesis import given, settings
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


@st.composite
def merges(draw):
    """A database, candidates that mostly name its entries with drawn fields,
    the scanned modules (None: the candidates' own) and a region size."""
    db = draw(strategies.reg_dbs())
    known = {e.name: e for e in db.entries}
    names = st.sampled_from(sorted(known)) | strategies.names if known else strategies.names
    cands = []
    for name in draw(st.lists(names, max_size=8)):
        e = known.get(name)  # a known entry's fields are each kept or drawn anew
        fields = [draw(drawn if e is None else st.just(getattr(e, attr)) | drawn)
                  for attr, drawn in (("width_bits", st.integers(1, 32)),
                                      ("access", strategies.access),
                                      ("origin_module", strategies.module_names))]
        cands.append(regdb.CsrCandidate(name, *fields))
    scanned = draw(st.none() | st.sets(strategies.module_names))
    return db, cands, scanned, draw(st.sampled_from([None, 16, 64, 1 << 12]))


def _merge(update_db, db, cands, scanned, size):
    try:
        return update_db(db, cands, scanned, size)
    except ChipkitError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=500, deadline=None)
@given(case=merges())
def test_update_db_matches_oracle(case):
    db, *rest = case
    before = regdb.save_db(db)
    assert _merge(regdb.update_db, db, *rest) == _merge(regdb_oracle.update_db, db, *rest)
    assert regdb.save_db(db) == before

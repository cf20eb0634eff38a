import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategies as dbst
from chipkit import DataError, InputError
from chipkit.regdb import (
    ACTIVE,
    CANONICAL_COLUMNS,
    DIAG_SEL,
    RETIRED,
    TAPS_COLUMN,
    DbError,
    DiagTap,
    EmitConfig,
    RegDb,
    RegEntry,
    db_hash,
    diag_select_bits,
    format_taps,
    load_canonical_db,
    load_db,
    parse_taps,
    save_db,
    update_db,
    validate_db,
)
from chipkit.sv_scan import CsrCandidate

HEADER = "name,width,access,reset,offset,origin_module,description,state\n"


def cand(name, width=8, access="RW", origin="m1"):
    return CsrCandidate(name, width, access, origin)


class TestLoadSave:
    def test_single_row(self):
        db = load_db(HEADER + 'cfg_gain,8,RW,0x0,0x4,dsp_core,"gain control",active\n')
        assert len(db.entries) == 1
        e = db.entries[0]
        assert (e.name, e.width_bits, e.access, e.reset_value, e.offset_bytes) == \
            ("cfg_gain", 8, "RW", 0, 4)
        assert e.origin_module == "dsp_core"
        assert e.description == "gain control"
        assert e.state == ACTIVE

    def test_header_only(self):
        assert load_db(HEADER).entries == []

    def test_decimal_and_hex_numbers(self):
        db = load_db(HEADER + "cfg_a,8,RW,15,8,m,,active\n")
        assert db.entries[0].reset_value == 15
        assert db.entries[0].offset_bytes == 8

    def test_duplicate_offset_names_rows(self):
        text = HEADER + "a,8,RW,0x0,0x8,m,,active\nb,8,RW,0x0,0x8,m,,active\n"
        with pytest.raises(DataError, match=r"^duplicate offset 0x8 \(rows 2 and 3\)$"):
            load_db(text)

    def test_duplicate_name(self):
        text = HEADER + "a,8,RW,0x0,0x4,m,,active\na,8,RW,0x0,0x8,m,,active\n"
        with pytest.raises(DataError, match=r"^duplicate register name 'a' \(rows 2 and 3\)$"):
            load_db(text)

    def test_missing_column(self):
        with pytest.raises(InputError, match="^missing required column 'reset'$"):
            load_db("name,width,access\n")

    def test_row_arity(self):
        with pytest.raises(InputError, match="^row 2: expected 8 fields, found 3$"):
            load_db(HEADER + "a,8,RW\n")

    def test_bad_number_and_access(self):
        with pytest.raises(InputError, match="^row 2: bad width value 'eight'$"):
            load_db(HEADER + "a,eight,RW,0x0,0x4,m,,active\n")
        with pytest.raises(InputError, match="^row 2: invalid access token 'WO'$"):
            load_db(HEADER + "a,8,WO,0x0,0x4,m,,active\n")

    def test_state_column_optional(self):
        db = load_db("name,width,access,reset,offset,origin_module,description\n"
                     "a,8,RW,0x0,0x4,m,\n")
        assert db.entries[0].state == ACTIVE
        assert db.columns[-1] == "state"

    def test_extra_columns_preserved(self):
        text = ("name,width,access,reset,offset,origin_module,description,state,owner\n"
                "a,8,RW,0x0,0x4,m,,active,alice\n")
        db = load_db(text)
        assert db.entries[0].extra == {"owner": "alice"}
        assert save_db(db) == text

    def test_extra_cells_kept_only_when_not_empty(self):
        """An entry carries no dict of empty cells; save_db writes them back."""
        text = HEADER[:-1] + ",owner,notes\na,8,RW,0x0,0x4,m,,active,,\nb,8,RW,0x0,0x8,m,,active,,x\n"
        for db in (load_db(text), load_canonical_db(text)[0]):
            assert [e.extra for e in db.entries] == [{}, {"notes": "x"}]
            assert save_db(db) == text

    def test_save_sorts_by_offset(self):
        db = load_db(HEADER + "b,8,RW,0x0,0x8,m,,active\na,8,RW,0x0,0x4,m,,active\n")
        lines = save_db(db).splitlines()
        assert lines[1].startswith("a,") and lines[2].startswith("b,")

    def test_save_deterministic(self):
        db = load_db(HEADER + "a,8,RW,0x1f,0x4,m,hello,active\n")
        assert save_db(db) == save_db(db)

    def test_save_requires_offsets(self):
        db = RegDb(entries=[RegEntry("a", 8, "RW")])
        with pytest.raises(DataError, match="^entry a has no offset; allocate before saving$"):
            save_db(db)

    def test_hash_changes_with_content(self):
        db1 = load_db(HEADER + "a,8,RW,0x0,0x4,m,,active\n")
        db2 = load_db(HEADER + "a,8,RW,0x1,0x4,m,,active\n")
        assert db_hash(db1) != db_hash(db2)
        assert 0 <= db_hash(db1) < 2**32


class TestUpdate:
    def test_fresh_candidates_allocated(self):
        db, report = update_db(RegDb(), [cand("cfg_a", 8), cand("sts_b", 1, "RO")])
        assert [(e.name, e.offset_bytes) for e in db.entries] == [("cfg_a", 4), ("sts_b", 8)]
        assert report.added == ["cfg_a", "sts_b"]
        assert report.modified == [] and report.retired == []
        assert [e.reset_value for e in db.entries] == [0, 0]

    def test_width_change_updates_in_place(self):
        db, _ = update_db(RegDb(), [cand("cfg_a", 4)])
        db.entries[0] = db.entries[0]._replace(description="hand written", reset_value=0xA)
        db2, report = update_db(db, [cand("cfg_a", 8)])
        e = db2.entries[0]
        assert (e.width_bits, e.offset_bytes) == (8, 4)
        assert e.description == "hand written"
        assert e.reset_value == 0xA
        assert report.modified == [("cfg_a", "width", 4, 8)]

    def test_idempotent(self):
        cands = [cand("cfg_a"), cand("sts_b", 1, "RO", "m2")]
        db1, _ = update_db(RegDb(), cands)
        db2, report = update_db(db1, cands)
        assert db2 == db1
        assert report.empty
        assert report.unchanged_count == 2

    def test_vanished_candidate_retired_offset_kept(self):
        db1, _ = update_db(RegDb(), [cand("cfg_a"), cand("cfg_b")])
        db2, report = update_db(db1, [cand("cfg_a")])
        assert report.retired == ["cfg_b"]
        gone = db2.entry("cfg_b")
        assert gone.state == RETIRED and gone.offset_bytes == 8

    def test_unscanned_modules_untouched(self):
        db1, _ = update_db(RegDb(), [cand("cfg_a", origin="m1"), cand("cfg_x", origin="m2")])
        db2, report = update_db(db1, [cand("cfg_a", origin="m1")], scanned_modules={"m1"})
        assert report.retired == []
        assert db2.entry("cfg_x").state == ACTIVE

    def test_explicit_scan_set_retires_empty_module(self):
        db1, _ = update_db(RegDb(), [cand("cfg_a", origin="m1")])
        db2, report = update_db(db1, [], scanned_modules={"m1"})
        assert report.retired == ["cfg_a"]

    def test_reactivation_at_old_offset(self):
        db1, _ = update_db(RegDb(), [cand("cfg_a"), cand("cfg_b")])
        db2, _ = update_db(db1, [cand("cfg_a")])
        db3, report = update_db(db2, [cand("cfg_a"), cand("cfg_b")])
        assert db3.entry("cfg_b").state == ACTIVE
        assert db3.entry("cfg_b").offset_bytes == 8
        assert ("cfg_b", "state", RETIRED, ACTIVE) in report.modified

    def test_retired_access_conflict(self):
        db1, _ = update_db(RegDb(), [cand("cfg_a", access="RW")])
        db2, _ = update_db(db1, [], scanned_modules={"m1"})
        assert db2.entry("cfg_a").state == RETIRED
        with pytest.raises(DataError, match=r"^candidate cfg_a \(RO\) collides with a "
                                            r"retired RW entry at offset 0x4$"):
            update_db(db2, [cand("cfg_a", access="RO")])

    def test_retired_access_conflict_with_blank_offset(self):
        db = load_db(HEADER + "cfg_a,8,RO,0x0,,m1,,retired\n")
        with pytest.raises(DataError, match=r"^candidate cfg_a \(RW\) collides with a "
                                            r"retired RO entry at offset unallocated$"):
            update_db(db, [cand("cfg_a", access="RW")])

    def test_retired_offset_never_reallocated(self):
        db1, _ = update_db(RegDb(), [cand("cfg_a"), cand("cfg_b")])
        db2, _ = update_db(db1, [cand("cfg_a")])
        db3, _ = update_db(db2, [cand("cfg_a"), cand("cfg_new")])
        assert db3.entry("cfg_new").offset_bytes == 0xC

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(InputError, match="^duplicate candidate name cfg_a$"):
            update_db(RegDb(), [cand("cfg_a"), cand("cfg_a")])


def allocate(db, region_size_bytes=None):
    """update_db with no scan: it only allocates the unallocated entries."""
    config = None if region_size_bytes is None else EmitConfig(
        base_address=0, csr_region_size_bytes=region_size_bytes)
    return update_db(db, [], scanned_modules=set(), config=config)[0]


class TestAllocate:
    def test_fills_hole(self):
        db = RegDb(entries=[
            RegEntry("a", 8, "RW", offset_bytes=0x4),
            RegEntry("b", 8, "RW", offset_bytes=0x8),
            RegEntry("c", 8, "RW"),
        ])
        out = allocate(db)
        assert out.entry("c").offset_bytes == 0xC

    def test_retired_offsets_reserved(self):
        db = RegDb(entries=[
            RegEntry("a", 8, "RW", offset_bytes=0x4),
            RegEntry("dead", 8, "RW", offset_bytes=0x8, state=RETIRED),
            RegEntry("b", 8, "RW", offset_bytes=0xC),
            RegEntry("c", 8, "RW"),
        ])
        assert allocate(db).entry("c").offset_bytes == 0x10

    def test_hundred_fresh_entries(self):
        db = RegDb(entries=[RegEntry(f"r{i:03d}", 8, "RW") for i in range(100)])
        out = allocate(db)
        assert [e.offset_bytes for e in out.entries] == [4 * (i + 1) for i in range(100)]
        assert out.entries[-1].offset_bytes == 0x190

    def test_assigned_offsets_never_move(self):
        db = RegDb(entries=[RegEntry("a", 8, "RW", offset_bytes=0x40), RegEntry("b", 8, "RW")])
        out = allocate(db)
        assert out.entry("a").offset_bytes == 0x40
        assert out.entry("b").offset_bytes == 0x4

    def test_exhaustion(self):
        db = RegDb(entries=[RegEntry("a", 8, "RW"), RegEntry("b", 8, "RW")])
        with pytest.raises(DataError, match="^no free offset below 0x8 for entry b$"):
            allocate(db, region_size_bytes=8)


class TestValidate:
    def test_valid_db(self):
        db, _ = update_db(RegDb(), [cand("cfg_a")])
        assert validate_db(db) == []

    def test_reset_does_not_fit(self):
        db = RegDb(entries=[RegEntry("a", 8, "RW", reset_value=0x100, offset_bytes=4)])
        problems = validate_db(db)
        assert len(problems) == 1 and problems[0].entry == "a"

    def test_misaligned_offset(self):
        db = RegDb(entries=[RegEntry("a", 8, "RW", offset_bytes=0x6)])
        assert any("aligned" in p.message for p in validate_db(db))

    def test_offset_zero_reserved(self):
        db = RegDb(entries=[RegEntry("a", 8, "RW", offset_bytes=0)])
        assert any("reserved" in p.message for p in validate_db(db))

    def test_bad_width_access_state(self):
        db = RegDb(entries=[RegEntry("a", 33, "XX", offset_bytes=4, state="gone")])
        messages = " ".join(p.message for p in validate_db(db))
        assert "width" in messages and "access" in messages and "state" in messages

    def test_name_is_matched_whole(self):
        db = RegDb([RegEntry("cfg_a\n", 8, "RW", 0, 4)])
        assert validate_db(db) == [DbError("cfg_a\n", "name 'cfg_a\\n' is not an identifier")]


BLK = EmitConfig(block_name="blk")  # targets diag, with two pins


def sel_db(cell, width=4, name=DIAG_SEL):
    db = RegDb(entries=[RegEntry(name, width, "RW", offset_bytes=4, extra={TAPS_COLUMN: cell})],
               columns=list(CANONICAL_COLUMNS) + [TAPS_COLUMN])
    return db


class TestTaps:
    @pytest.mark.parametrize("cell, width, name, message", [
        ("diag_a@m", 4, "cfg_other", "diag_taps is set only on cfg_diag_sel"),
        ("diag_a@m  diag_b@m", 4, DIAG_SEL,
         "bad diagnostic tap '' (name@module, :retired if retired)"),
        ("diag_a@m 2x@m", 4, DIAG_SEL,
         "bad diagnostic tap '2x@m' (name@module, :retired if retired)"),
        ("diag_a@m:gone", 4, DIAG_SEL,
         "bad diagnostic tap 'diag_a@m:gone' (name@module, :retired if retired)"),
        ("diag_a@m\n", 4, DIAG_SEL,
         "bad diagnostic tap 'diag_a@m\\n' (name@module, :retired if retired)"),
        ("diag_a@m diag_b@n:retired diag_a@n", 4, DIAG_SEL, "diagnostic tap diag_a listed twice"),
        ("diag_a@m diag_A@m", 4, DIAG_SEL, "diagnostic tap diag_A differs from diag_a only in case"),
        ("a@m b@m c@m d@m e@m:retired", 2, DIAG_SEL,
         "3-bit diagnostic select codes do not fit in 2 bits"),
    ])
    def test_validate_checks_the_cell(self, cell, width, name, message):
        db = sel_db(cell, width, name)
        assert validate_db(db) == [DbError(name, message)]
        # the one-pass reader leaves such a text to csv and validate_db
        assert load_canonical_db(save_db(db)) is None

    def test_tap_macro_that_a_register_defines(self):
        db = sel_db("x_addr@m diag_a@m")
        db.entries.append(RegEntry("diag_sel_x", 8, "RW", offset_bytes=8))
        assert validate_db(db) == [DbError(
            DIAG_SEL, "diagnostic tap x_addr's C macro DIAG_SEL_X_ADDR is also register DIAG_SEL_X's")]
        assert load_canonical_db(save_db(db)) is None

    def test_valid_cell(self):
        db = sel_db("diag_a@m diag_b@n:retired diag_c@m", 2)
        assert validate_db(db) == []
        assert load_canonical_db(save_db(db))[0] == db

    def test_select_bits_hold_the_highest_code(self):
        taps = [DiagTap(f"t{i}", "m", i % 2 == 1) for i in range(5)]
        assert [diag_select_bits(taps[:n]) for n in range(6)] == [0, 0, 1, 2, 2, 3]

    def test_scan_duplicates_rejected(self):
        with pytest.raises(DataError, match="^duplicate diagnostic signal names across modules$"):
            update_db(sel_db("t@a"), [], {"a", "b"}, BLK, [DiagTap("t", "a"), DiagTap("t", "b")])

    def test_update_db_records_the_taps_after_state(self):
        db = RegDb(columns=list(CANONICAL_COLUMNS) + ["owner"])
        new, report = update_db(db, [cand("cfg_a")], config=BLK,
                                taps=[DiagTap("diag_x", "m1"), DiagTap("diag_y", "m2")])
        assert new.columns == list(CANONICAL_COLUMNS) + [TAPS_COLUMN, "owner"]
        assert [e.extra for e in new.entries] == [{}, {TAPS_COLUMN: "diag_x@m1 diag_y@m2"}]
        assert report.taps == [("added", "diag_x", 0, ""), ("added", "diag_y", 1, "")]
        assert db.columns == list(CANONICAL_COLUMNS) + ["owner"]  # the input is unchanged
        sel = new.entries[1]  # one 1-bit field per pin, in the mux's own module
        assert (sel.name, sel.width_bits, sel.access, sel.origin_module) == \
            (DIAG_SEL, 2, "RW", "blk_diag_mux")

    def test_update_db_reports_each_changed_tap(self):
        db = sel_db("diag_a@m diag_b@m diag_c@m:retired diag_d@m")
        taps = [DiagTap("diag_a", "m", True), DiagTap("diag_b", "n"), DiagTap("diag_c", "m"),
                DiagTap("diag_d", "m"), DiagTap("diag_e", "m")]
        new, report = update_db(db, [], {"m", "n"}, BLK, [taps[i] for i in (4, 1, 3, 2)])
        assert report.taps == [("retired", "diag_a", 0, ""),
                               ("moved", "diag_b", 1, " from m to n"),
                               ("reactivated", "diag_c", 2, ""), ("added", "diag_e", 4, "")]
        assert parse_taps(new.entries[0].extra[TAPS_COLUMN]) == taps

    def test_no_taps_no_column(self):
        new, report = update_db(RegDb(), [cand(DIAG_SEL, 1)], config=BLK, taps=[])
        assert new.columns == list(CANONICAL_COLUMNS) and new.entries[0].extra == {}
        assert report.taps == []


_TAP_NAMES = [f"diag_{c}" for c in "abcdefgh"]
_TAP_MODULES = ["m0", "m1", "m2"]


@st.composite
def tap_scans(draw):
    """Successive scans: the (name, module) pairs each found, in scan order,
    and the modules it scanned, which hold every module it found a tap in."""
    scans = []
    for _ in range(draw(st.integers(1, 8))):
        names = draw(st.lists(st.sampled_from(_TAP_NAMES), unique=True, max_size=6))
        found = [(n, draw(st.sampled_from(_TAP_MODULES))) for n in names]
        scanned = set(draw(st.lists(st.sampled_from(_TAP_MODULES), unique=True)))
        scans.append((found, scanned | {m for _, m in found}))
    return scans


@settings(max_examples=300, deadline=None)
@given(scans=tap_scans())
def test_tap_codes_are_allocated_as_offsets(scans):
    """Over any sequence of tap sets: a tap keeps its code in every revision,
    a retired tap's code is never given to another, and each new tap takes the
    lowest code no tap held, in scan order."""
    db, taps, codes = RegDb(), [], {}  # codes: name -> the code it was first given
    for found, scanned in scans:
        before, where = taps, dict(found)
        db, _ = update_db(db, [], scanned, BLK, [DiagTap(*pair) for pair in found])
        sel = db.entry(DIAG_SEL)
        taps = parse_taps(sel.extra[TAPS_COLUMN]) if sel else []
        assert parse_taps(format_taps(taps)) == taps
        code_of = {t.name: code for code, t in enumerate(taps)}
        assert len(code_of) == len(taps)
        assert all(code_of[name] == code for name, code in codes.items())
        for name, _ in found:
            if name not in codes:
                held = set(codes.values())
                assert code_of[name] == min(c for c in range(len(taps)) if c not in held)
                codes[name] = code_of[name]
        assert sorted(codes.values()) == list(range(len(taps)))  # no code freed or skipped
        for code, tap in enumerate(taps):
            if tap.name in where:
                assert tap == DiagTap(tap.name, where[tap.name])
            else:
                was = before[code]
                assert tap == was._replace(retired=was.retired or was.origin_module in scanned)


class TestProperties:
    @given(db=dbst.reg_dbs())
    def test_round_trip_identity(self, db):
        assert load_db(save_db(db)) == db

    @given(db=dbst.reg_dbs())
    def test_canonical_text_fixpoint(self, db):
        text = save_db(db)
        assert save_db(load_db(text)) == text

    @given(db=dbst.reg_dbs(), cands=dbst.candidate_lists())
    def test_update_idempotent(self, db, cands):
        try:
            db1, _ = update_db(db, cands)
        except DataError as exc:
            if "collides with a retired" not in str(exc):
                raise
            assume(False)
        db2, report = update_db(db1, cands)
        assert db2 == db1
        assert report.empty

    @given(db=dbst.reg_dbs(), cands=dbst.candidate_lists())
    def test_offset_stability(self, db, cands):
        before = {e.name: e.offset_bytes for e in db.entries}
        try:
            db1, _ = update_db(db, cands)
        except DataError as exc:
            if "collides with a retired" not in str(exc):
                raise
            assume(False)
        for name, offset in before.items():
            assert db1.entry(name).offset_bytes == offset

    @given(db=dbst.reg_dbs(),
           rounds=st.lists(dbst.candidate_lists(), min_size=1, max_size=4))
    def test_offsets_never_reused(self, db, rounds):
        owner: dict[int, str] = {}

        def record(d):
            for e in d.entries:
                previous = owner.setdefault(e.offset_bytes, e.name)
                assert previous == e.name, \
                    f"offset 0x{e.offset_bytes:x} reassigned {previous} -> {e.name}"

        record(db)
        for cands in rounds:
            try:
                db, _ = update_db(db, cands)
            except DataError as exc:
                if "collides with a retired" not in str(exc):
                    raise
                continue
            record(db)

    @settings(max_examples=50)
    @given(db=dbst.reg_dbs())
    def test_save_byte_deterministic(self, db):
        assert save_db(db) == save_db(db)


@st.composite
def dbs_with_extras(draw):
    """Databases whose entries carry extra columns, some active ones not yet
    allocated (a row added by hand with a blank offset)."""
    db = draw(dbst.reg_dbs())
    db.columns = db.columns + ["owner", "notes"]
    db.entries = [e._replace(
        extra={"owner": draw(dbst.module_names), "notes": draw(dbst.descriptions)},
        offset_bytes=None if e.state == ACTIVE and draw(st.booleans()) else e.offset_bytes)
        for e in db.entries]
    return db


class TestCopyIndependence:
    """update_db leaves its input as it was, and shares each entry it leaves alone."""

    @given(db=dbs_with_extras(), cands=dbst.candidate_lists())
    def test_update_db(self, db, cands):
        entries, columns = list(db.entries), list(db.columns)
        try:
            new, _ = update_db(db, cands)
        except DataError as exc:
            if "collides with a retired" not in str(exc):
                raise
            assume(False)
        assert db.entries == entries and db.columns == columns
        assert all(a is b for a, b in zip(db.entries, entries))
        assert new.entries is not db.entries and new.columns is not db.columns
        old = {e.name: e for e in entries}
        assert all(e is old[e.name] for e in new.entries if e == old.get(e.name))


_OWNED = HEADER.replace("state\n", "state,owner\n") + "cfg_a,8,RW,0x0,0x4,m1,,active,alice\n"
# each way an entry is made; each entry but the default one has an extra cell
_MADE = {
    "default": lambda: RegEntry("cfg_a", 8, "RW"),
    "built": lambda: RegEntry("cfg_a", 8, "RW", extra={"owner": "alice"}),
    "replaced": lambda: RegEntry("cfg_a", 8, "RW")._replace(extra={"owner": "alice"}),
    "load_db": lambda: load_db(_OWNED).entries[0],
    "load_canonical_db": lambda: load_canonical_db(_OWNED)[0].entries[0],
    "update_db": lambda: update_db(RegDb(), [], config=BLK,
                                   taps=[DiagTap("diag_x", "m1")])[0].entries[0],
}


class TestImmutableEntries:
    """No entry can change once made: not a field, and not a cell of its extra."""

    @pytest.mark.parametrize("how", _MADE)
    def test_fields_and_extra_cells_cannot_be_set(self, how):
        entry, kept = _MADE[how](), _MADE[how]()
        for field in RegEntry._fields:
            with pytest.raises(AttributeError):
                setattr(entry, field, getattr(entry, field))
        for key in (*entry.extra, "added"):
            with pytest.raises(TypeError):
                entry.extra[key] = "mutated"
        assert entry == kept and (how == "default") == (not entry.extra)

    def test_extra_is_a_copy_of_the_mapping_given(self):
        cells = {"owner": "alice"}
        entry = RegEntry("cfg_a", 8, "RW", extra=cells)
        cells["owner"] = "bob"
        assert entry.extra == {"owner": "alice"}
        assert RegEntry("cfg_a", 8, "RW", extra={}).extra is RegEntry("b", 1, "RO").extra

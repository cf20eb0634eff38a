import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategies as dbst
from chipkit import DataError, InputError
from chipkit.regdb import (
    ACTIVE,
    RETIRED,
    RegDb,
    RegEntry,
    allocate_offsets,
    db_hash,
    load_db,
    save_db,
    update_db,
    validate_db,
)
from chipkit.sv_scan import CsrCandidate

HEADER = "name,width,access,reset,offset,origin_module,description,state\n"


def cand(name, width=8, access="RW", origin="m1"):
    return CsrCandidate(name, width, access, origin, 1)


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
        db.entries[0].description = "hand written"
        db.entries[0].reset_value = 0xA
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


class TestAllocate:
    def test_fills_hole(self):
        db = RegDb(entries=[
            RegEntry("a", 8, "RW", offset_bytes=0x4),
            RegEntry("b", 8, "RW", offset_bytes=0x8),
            RegEntry("c", 8, "RW"),
        ])
        out = allocate_offsets(db)
        assert out.entry("c").offset_bytes == 0xC

    def test_retired_offsets_reserved(self):
        db = RegDb(entries=[
            RegEntry("a", 8, "RW", offset_bytes=0x4),
            RegEntry("dead", 8, "RW", offset_bytes=0x8, state=RETIRED),
            RegEntry("b", 8, "RW", offset_bytes=0xC),
            RegEntry("c", 8, "RW"),
        ])
        assert allocate_offsets(db).entry("c").offset_bytes == 0x10

    def test_hundred_fresh_entries(self):
        db = RegDb(entries=[RegEntry(f"r{i:03d}", 8, "RW") for i in range(100)])
        out = allocate_offsets(db)
        assert [e.offset_bytes for e in out.entries] == [4 * (i + 1) for i in range(100)]
        assert out.entries[-1].offset_bytes == 0x190

    def test_assigned_offsets_never_move(self):
        db = RegDb(entries=[RegEntry("a", 8, "RW", offset_bytes=0x40), RegEntry("b", 8, "RW")])
        out = allocate_offsets(db)
        assert out.entry("a").offset_bytes == 0x40
        assert out.entry("b").offset_bytes == 0x4

    def test_exhaustion(self):
        db = RegDb(entries=[RegEntry("a", 8, "RW"), RegEntry("b", 8, "RW")])
        with pytest.raises(DataError, match="^no free offset below 0x8 for entry b$"):
            allocate_offsets(db, region_size_bytes=8)


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
    for e in db.entries:
        e.extra = {"owner": draw(dbst.module_names), "notes": draw(dbst.descriptions)}
        if e.state == ACTIVE and draw(st.booleans()):
            e.offset_bytes = None
    return db


def _mutate_all(db):
    for e in db.entries:
        e.name += "_x"
        e.width_bits = 33
        e.offset_bytes = -1
        e.state = "gone"
        e.extra["owner"] = "mutated"
        e.extra["added"] = "1"
    db.columns.append("added")


class TestCopyIndependence:
    """update_db and allocate_offsets return copies that share nothing
    mutable with their input."""

    @given(db=dbs_with_extras(), cands=dbst.candidate_lists())
    def test_update_db(self, db, cands):
        snapshot = copy.deepcopy(db)
        try:
            new, _ = update_db(db, cands)
        except DataError as exc:
            if "collides with a retired" not in str(exc):
                raise
            assume(False)
        assert db == snapshot
        _mutate_all(new)
        assert db == snapshot

    @given(db=dbs_with_extras())
    def test_allocate_offsets(self, db):
        snapshot = copy.deepcopy(db)
        new = allocate_offsets(db)
        assert db == snapshot
        _mutate_all(new)
        assert db == snapshot

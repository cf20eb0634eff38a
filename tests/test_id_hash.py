"""The ID register holds db_hash of the database whatever its file looks like.
regdb.load_canonical_db reads a text that save_db would write for a valid
database in one pass, taking the CRC of the text itself; it declines every
other text, which load_db, validate_db and db_hash then read. What it returns
must be exactly what those three give."""

import csv
import io
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings

from chipkit import ChipkitError, busmodel, cli, regdb
from chipkit.memmap import MemoryMap, Region
from chipkit.regdb import CANONICAL_COLUMNS, db_hash, load_canonical_db, load_db, save_db
from strategies import reg_dbs

BASE = 0x50000000
MAP = MemoryMap([Region("csr0", "csr", BASE, 0x1000)])
NAME, WIDTH, ACCESS, RESET, OFFSET, ORIGIN, DESC, STATE = range(8)


def _cell(value: str) -> str:
    """A cell as csv.writer writes it."""
    if any(c in value for c in ',"\n\r'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _text(header, rows, cell=_cell) -> str:
    return "".join(",".join(cell(v) for v in row) + "\n" for row in [header] + rows)


def _edit(rows, column, change):
    return [row[:column] + [change(row[column])] + row[column + 1:] for row in rows]


# the variants that save_db writes, every other one it would not; the one
# pass reads each of them
SAVED = ("canonical", "quoted specials", "extra column")


def variants(text: str) -> dict:
    """Texts that load, made from the canonical text of a database."""
    header, *rows = csv.reader(io.StringIO(text))
    quote_all = io.StringIO()
    csv.writer(quote_all, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows([header] + rows)
    first, head = rows[:1], _text(header, [])
    return {
        "canonical": text,
        "crlf": text.replace("\n", "\r\n"),
        "crlf rows": head + text[len(head):].replace("\n", "\r\n"),
        "no final lf": text[:-1],
        "quote all": quote_all.getvalue(),
        "quoted descriptions": head + "".join(
            ",".join(_cell(v) if i != DESC else '"' + v.replace('"', '""') + '"'
                     for i, v in enumerate(row)) + "\n" for row in rows),
        # the lax reader takes a"b, which is shorter than the canonical "a""b"
        "unquoted quote": _text(header, _edit(first, DESC, lambda d: 'a"b') + rows[1:],
                                cell=lambda v: v if v == 'a"b' else _cell(v)),
        "quoted specials": _text(header, _edit(first, DESC, lambda d: 'x, "y"\nz') + rows[1:]),
        "upper hex": _text(header, _edit(rows, RESET, lambda v: "0X" + v[2:].upper())),
        "zero-padded offset": _text(header, _edit(rows, OFFSET, lambda v: "0x00" + v[2:])),
        "signed width": _text(header, _edit(rows, WIDTH, lambda v: "+" + v)),
        "padded cells": _text(header, [[f" {v} " if i not in (DESC,) else v
                                        for i, v in enumerate(row)] for row in rows]),
        "lower-case tokens": _text(header, _edit(_edit(rows, ACCESS, str.lower),
                                                 STATE, str.upper)),
        "reordered rows": _text(header, rows[::-1]),
        "extra column": _text(header + ["owner"], [row + ["x"] for row in rows]),
        "no state column": _text(header[:STATE], [row[:STATE] for row in rows]),
    }


def _agrees(text: str):
    """load_canonical_db(text), checked: None, or exactly load_db's database,
    which validate_db passes, with its db_hash."""
    loaded = load_canonical_db(text)
    if loaded is not None:
        db = load_db(text)
        assert regdb.validate_db(db) == []
        assert loaded == (db, db_hash(db))
    return loaded


@settings(max_examples=300, deadline=None)
@given(db=reg_dbs())
def test_one_pass_agrees_with_csv_on_every_variant(db):
    valid = not regdb.validate_db(db)  # a drawn name may be "id" or "base"
    canonical = save_db(db)
    for name, text in variants(canonical).items():
        # with fewer than two rows, some perturbations change nothing
        taken = valid and (name in SAVED or text == canonical)
        assert (_agrees(text) is not None) == taken, name


def _id_register(text: str) -> tuple[int, int]:
    """The model's ID register for a database file's text, read as the
    commands read it, and db_hash of the database that text loads as."""
    db = load_db(text)
    loaded = load_canonical_db(text)
    if loaded is None:  # the model hashes the database itself
        soc = busmodel.build_soc(MAP, [("csr0", db)])
    else:
        soc = busmodel.build_soc(MAP, [("csr0", loaded[0])], id_hashes={"csr0": loaded[1]})
    return busmodel.bus_read(soc, BASE), db_hash(db)


@settings(max_examples=500, deadline=None)
@given(db=reg_dbs())
def test_id_register_is_the_hash_of_what_the_text_loads_as(db):
    for name, text in variants(save_db(db)).items():
        register, expected = _id_register(text)
        assert register == expected, name


@settings(max_examples=200, deadline=None)
@given(db=reg_dbs())
def test_canonical_text_is_hashed_without_saving(db):
    """Neither csv nor save_db runs for a text save_db wrote, extra column
    included, and the pass gives the database load_db gives."""
    texts = variants(save_db(db))
    for name in SAVED:
        text = texts[name]
        expected = load_db(text)
        if regdb.validate_db(expected):  # a drawn name such as "id"
            continue
        with mock.patch.object(regdb, "save_db", side_effect=AssertionError("re-serialized")), \
                mock.patch.object(regdb, "load_db", side_effect=AssertionError("csv read")):
            loaded = load_canonical_db(text)
        assert loaded == (expected, zlib.crc32(text.encode("utf-8"))), name


def test_every_perturbation_is_not_canonical():
    """So that each perturbed text is a real test of the fallback."""
    db = load_db(",".join(CANONICAL_COLUMNS) + "\n"
                 "a,8,RW,0x1,0x4,m,plain,active\nb,4,RO,0x0,0x8,m,\"q, \"\"x\"\"\",retired\n")
    for name, text in variants(save_db(db)).items():
        assert (save_db(load_db(text)) == text) == (name in SAVED), name


def _run_test_id(tmp_path, monkeypatch, capsys, db_text: str) -> str:
    (tmp_path / "regs.csv").write_bytes(db_text.encode("utf-8"))
    (tmp_path / "soc.map").write_text(f"region csr0 csr {BASE:#x} 0x1000\n")
    (tmp_path / "id.txt").write_text(f"> R {BASE:#010x}\n< 0x00000000\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run-test", "--map", "soc.map", "--db", "regs.csv",
                     "--script", "id.txt"]) == cli.EXIT_CHECK
    return capsys.readouterr().out


def test_run_test_reads_the_hash_from_the_file(tmp_path, monkeypatch, capsys):
    """Through the CLI, for a canonical file and for one padded, quoted and CRLF-ended."""
    canonical = (",".join(CANONICAL_COLUMNS) + "\n"
                 "cfg_a,8,RW,0x1,0x4,m,\"gain, coarse\",active\n")
    messy = canonical.replace(",8,", ", 8 ,").replace(",m,", ',"m",').replace("\n", "\r\n")
    expected = f"0x{db_hash(load_db(canonical)):08x}"
    for text in (canonical, messy):
        out = _run_test_id(tmp_path, monkeypatch, capsys, text)
        assert f"got '{expected}'" in out, text


# texts save_db writes that the one pass still declines: Python 3.10's csv
# rejects NUL, which 3.11's takes, some csv versions quote CR, and a quoted
# extra column is left to csv
SAVED_BUT_DECLINED = ("NUL in a description", "NUL in an origin", "NUL in an extra cell",
                      "NUL in an extra name", "CR in a description", "quoted extra name",
                      "quoted extra cell")


def _swap(rows, column):
    rows[0][column], rows[1][column] = rows[1][column], rows[0][column]


def _set(row, column, value):
    row[column] = value


def _extra(header, rows, name="owner", cell="x"):
    header.append(name)
    for row in rows:
        row.append(cell)


# each edits the header and rows of a canonical text of two or more entries
DEFECTS = {
    "reset wider than its width": lambda h, r: _set(r[0], RESET, f"0x{1 << int(r[0][WIDTH]):x}"),
    "width 0": lambda h, r: (_set(r[0], WIDTH, "0"), _set(r[0], RESET, "0x0")),
    "width 33": lambda h, r: _set(r[0], WIDTH, "33"),
    "offset 0x0": lambda h, r: _set(r[0], OFFSET, "0x0"),
    "misaligned offset": lambda h, r: _set(r[0], OFFSET, "0x6"),
    "equal offsets": lambda h, r: _set(r[1], OFFSET, r[0][OFFSET]),
    "descending offsets": lambda h, r: _swap(r, OFFSET),
    "equal names": lambda h, r: _set(r[1], NAME, r[0][NAME]),
    "names differing only in case": lambda h, r: _set(r[1], NAME, r[0][NAME].upper()),
    "name id": lambda h, r: _set(r[0], NAME, "id"),
    "name ID": lambda h, r: _set(r[1], NAME, "ID"),
    "name Base": lambda h, r: _set(r[0], NAME, "Base"),
    "NUL in a description": lambda h, r: _set(r[0], DESC, "a\0b"),
    "NUL in an origin": lambda h, r: _set(r[1], ORIGIN, "m\0"),
    "NUL in an extra cell": lambda h, r: _extra(h, r, cell="x\0"),
    "NUL in an extra name": lambda h, r: _extra(h, r, name="own\0er"),
    "CR in a description": lambda h, r: _set(r[0], DESC, "a\rb"),
    "description over the field limit": lambda h, r: _set(r[1], DESC, "d" * 131_073),
    "padded origin": lambda h, r: _set(r[0], ORIGIN, " m"),
    "two extra columns of one name": lambda h, r: (_extra(h, r), _extra(h, r, cell="y")),
    "extra column named like a canonical one": lambda h, r: _extra(h, r, name="name"),
    "padded extra name": lambda h, r: _extra(h, r, name="owner "),
    "quoted extra name": lambda h, r: _extra(h, r, name='own"er'),
    "quoted extra cell": lambda h, r: _extra(h, r, cell="a,b"),
    "row short of its extra cell": lambda h, r: (_extra(h, r), r[1].pop()),
    "row with a cell beyond the header": lambda h, r: r[1].append("x"),
}


def _unreadable_or_not_saved(text: str) -> bool:
    """Whether the usual read rejects text or re-serializes its database."""
    try:
        db = load_db(text)
    except ChipkitError:
        return True
    return bool(regdb.validate_db(db)) or save_db(db) != text


@settings(max_examples=150, deadline=None)
@given(db=reg_dbs().filter(lambda db: len(db.entries) >= 2))
def test_one_pass_declines_every_defect(db):
    for defect, edit in DEFECTS.items():
        header, *rows = csv.reader(io.StringIO(save_db(db)))
        edit(header, rows)
        text = _text(header, rows)
        assert load_canonical_db(text) is None, defect
        assert defect in SAVED_BUT_DECLINED or _unreadable_or_not_saved(text), defect


@pytest.mark.parametrize("description", [
    " padded ", "tab\there", "v\x0bt", "ff\x0c", "fs\x1c", "nel\x85", "ls\u2028", "ps\u2029",
    "naïve – ✓", "'single'", "x;y|z", "", "a,b", 'say "hi"', "two\nlines", '"', ",", "\n"])
def test_one_pass_reads_descriptions_as_csv_does(description):
    """Cells the csv module reads as written, quoted only for ',', '"' and LF."""
    text = _text(list(CANONICAL_COLUMNS),
                 [["a", "8", "RW", "0xff", "0x4", "m m", description, "active"]])
    db, hash32 = _agrees(text)
    assert db.entries[0].description == description
    assert hash32 == zlib.crc32(text.encode("utf-8"))


def test_one_pass_takes_the_field_limit_in_effect():
    text = _text(list(CANONICAL_COLUMNS), [["a", "8", "RW", "0x0", "0x4", "m", "d" * 60, "active"]])
    assert _agrees(text) is not None
    old = csv.field_size_limit(50)
    try:
        assert load_canonical_db(text) is None
        with pytest.raises(ChipkitError, match="field larger than field limit"):
            load_db(text)
    finally:
        csv.field_size_limit(old)

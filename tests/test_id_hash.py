"""The ID register holds db_hash of the database whatever its file looks like:
the model takes the CRC of the text itself only when save_db would write that
very text, and re-serializes the database otherwise."""

import csv
import io
import zlib
from unittest import mock

from hypothesis import given, settings

from chipkit import busmodel, cli, regdb
from chipkit.memmap import MemoryMap, Region
from chipkit.regdb import CANONICAL_COLUMNS, db_hash, load_db, loaded_db_hash, save_db
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


# the variants that save_db writes, every other one it would not; and of
# those, the ones without an extra column, whose CRC is taken from the text
SAVED = ("canonical", "quoted specials", "extra column")
FROM_TEXT = SAVED[:2]


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


def _id_register(text: str) -> tuple[int, int]:
    """The model's ID register for a database file's text, and db_hash of the
    database that text loads as."""
    db = load_db(text)
    soc = busmodel.build_soc(MAP, [("csr0", db)],
                             id_hashes={"csr0": loaded_db_hash(text, db)})
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
    texts = variants(save_db(db))
    for name in FROM_TEXT:
        text = texts[name]
        with mock.patch.object(regdb, "save_db", side_effect=AssertionError("re-serialized")):
            assert loaded_db_hash(text, load_db(text)) == zlib.crc32(text.encode("utf-8")), name


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

"""CSV-backed register database: the single source of truth for generation.

The database is a plain CSV file (first row is the defining header) so it can
be reviewed, diffed, and hand-edited in a spreadsheet. Scans own the
width/access/origin columns; reset values, descriptions, and any extra
columns a project adds belong to humans and are never overwritten.

Entries are never deleted: a register that disappears from the RTL is
retired, and its offset stays reserved forever so regenerated software views
can never silently re-bind an address across chip revisions.
"""

from __future__ import annotations

import csv
import io
import operator
import re
import zlib
from collections.abc import Iterator
from typing import NamedTuple

from . import Checked, DataError, InputError, Record

ACCESS_RW = "RW"
ACCESS_RO = "RO"

WORD_BYTES = 4
FIRST_OFFSET = 0x4  # offset 0x0 is reserved for the generated ID register
ID_REG_OFFSET = 0x0
ID_REG_NAME = "id"

# read value for word-aligned in-region offsets with no register behind them;
# the register-block emitter and the bus model must agree on it
UNMAPPED_READ_VALUE = 0xDEADBEEF

ACTIVE = "active"
RETIRED = "retired"

REQUIRED_COLUMNS = ("name", "width", "access", "reset", "offset", "origin_module", "description")
CANONICAL_COLUMNS = REQUIRED_COLUMNS + ("state",)

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_OFFSET_KEY = operator.attrgetter("offset_bytes")
# names, upper-cased, whose macros the C header defines for itself
_RESERVED_NAMES = {ID_REG_NAME.upper(): "name reserved for the ID register",
                   "BASE": "name reserved for the base address"}


class CsrCandidate(NamedTuple):
    name: str
    width_bits: int
    access: str
    origin_module: str
    source_line: int


# settings of the scanner and the emitters, kept out of both so that building a
# project config loads neither: sim and run-test never scan or render. Each
# checks itself when built, so an invalid one never exists

class _NamingFields(NamedTuple):
    control_prefix: str = "cfg_"
    status_prefix: str = "sts_"
    diag_prefix: str = "diag_"
    match_mode: str = "prefix"  # prefix | postfix


class NamingConvention(Checked, _NamingFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        affixes = self[:3]
        if any(not a for a in affixes) or len(set(affixes)) != 3:
            raise DataError("naming affixes must be non-empty and pairwise distinct")
        if self.match_mode not in ("prefix", "postfix"):
            raise DataError(f"bad match_mode {self.match_mode!r}")
        return self

    def matches(self, affix: str, name: str) -> bool:
        if self.match_mode == "prefix":
            return name.startswith(affix)
        return name.endswith(affix)


ALL_TARGETS = ("rtl", "inst", "md", "c", "py", "test", "memmap", "diag", "pads")


class _EmitFields(NamedTuple):
    block_name: str = "soc"
    base_address: int = 0x50000000
    csr_region_size_bytes: int = 0x1000
    targets: tuple = ALL_TARGETS
    unmapped_value: int = UNMAPPED_READ_VALUE
    diag_pins: int = 2


class EmitConfig(Checked, _EmitFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not _IDENT_RE.match(self.block_name):
            raise DataError(f"block name {self.block_name!r} is not an identifier")
        size = self.csr_region_size_bytes
        if size < 4 or size & (size - 1):
            raise DataError(f"region size 0x{size:x} is not a power of two >= 4")
        if self.base_address % size:
            raise DataError("base address not aligned to region size")
        if not 0 <= self.base_address < (1 << 32):
            raise DataError("base address outside 32-bit space")
        unknown = set(self.targets) - set(ALL_TARGETS)
        if unknown:
            raise DataError(f"unknown targets: {', '.join(sorted(unknown))}")
        if not 0 <= self.unmapped_value <= 0xFFFFFFFF:
            raise DataError(f"unmapped value {self.unmapped_value:#x} outside 32 bits")
        if self.diag_pins < 1:
            raise DataError("need at least one diagnostic pin")
        return self


class RegEntry(Record):
    __slots__ = ("name", "width_bits", "access", "reset_value", "offset_bytes",
                 "origin_module", "description", "state", "extra")

    def __init__(self, name: str, width_bits: int, access: str, reset_value: int = 0,
                 offset_bytes: int | None = None, origin_module: str = "",
                 description: str = "", state: str = ACTIVE, extra: dict | None = None):
        self.name = name
        self.width_bits = width_bits
        self.access = access  # RW | RO
        self.reset_value = reset_value
        self.offset_bytes = offset_bytes  # None = not yet allocated
        self.origin_module = origin_module
        self.description = description
        self.state = state
        self.extra = {} if extra is None else extra


class RegDb(Record):
    __slots__ = ("entries", "columns")

    def __init__(self, entries: list[RegEntry] | None = None, columns: list[str] | None = None):
        self.entries = [] if entries is None else entries
        self.columns = list(CANONICAL_COLUMNS) if columns is None else columns

    def entry(self, name: str) -> RegEntry | None:
        for e in self.entries:
            if e.name == name:
                return e
        return None


class ChangeReport(Record):
    __slots__ = ("added", "modified", "retired", "unchanged_count")

    def __init__(self):
        self.added = []
        self.modified = []  # (name, field, old, new)
        self.retired = []
        self.unchanged_count = 0

    @property
    def empty(self) -> bool:
        return not (self.added or self.modified or self.retired)


class DbError(NamedTuple):
    entry: str  # register name, or "" for database-level problems
    message: str


def _parse_int(token: str, what: str, row: int) -> int:
    try:
        return int(token.strip(), 0)
    except ValueError:
        raise InputError(f"row {row}: bad {what} value {token!r}") from None


def csv_rows(text: str, label: str) -> Iterator[list[str]]:
    """The records of CSV text. One the csv module rejects, such as a cell over
    its field limit, is an InputError that names it '<label> <number>'."""
    number = 0
    try:
        for number, row in enumerate(csv.reader(io.StringIO(text)), 1):
            yield row
    except csv.Error as exc:
        raise InputError(f"{label} {number + 1}: {exc}") from None


def load_db(csv_text: str) -> RegDb:
    """Parse CSV text into a RegDb, preserving any extra columns verbatim."""
    rows = csv_rows(csv_text, "row")
    header = next(rows, None)
    if header is None:
        raise InputError("empty database file (missing header row)")
    columns = [c.strip() for c in header]
    for col in REQUIRED_COLUMNS:
        if col not in columns:
            raise InputError(f"missing required column {col!r}")
    col_index = {c: i for i, c in enumerate(columns)}
    i_name, i_width, i_access, i_reset, i_offset, i_origin, i_desc = \
        (col_index[c] for c in REQUIRED_COLUMNS)
    i_state = col_index.get("state")
    extras = [(c, col_index[c]) for c in columns if c not in CANONICAL_COLUMNS]

    entries = []
    names: dict[str, int] = {}
    offsets: dict[int, int] = {}
    for rownum, row in enumerate(rows, 2):
        if not row:
            continue
        if len(row) != len(header):
            raise InputError(f"row {rownum}: expected {len(header)} fields, found {len(row)}")
        name = row[i_name].strip()
        width = _parse_int(row[i_width], "width", rownum)
        access = row[i_access].strip().upper()
        if access not in (ACCESS_RW, ACCESS_RO):
            raise InputError(f"row {rownum}: invalid access token {row[i_access]!r}")
        reset = _parse_int(row[i_reset], "reset", rownum)
        offset_tok = row[i_offset].strip()
        offset = _parse_int(offset_tok, "offset", rownum) if offset_tok else None
        state = row[i_state].strip().lower() if i_state is not None else ACTIVE
        if state not in (ACTIVE, RETIRED):
            raise InputError(f"row {rownum}: invalid state token {row[i_state]!r}")
        if name in names:
            raise DataError(f"duplicate register name {name!r} (rows {names[name]} and {rownum})")
        names[name] = rownum
        if offset is not None:
            if offset in offsets:
                raise DataError(
                    f"duplicate offset 0x{offset:x} (rows {offsets[offset]} and {rownum})")
            offsets[offset] = rownum
        entries.append(RegEntry(name, width, access, reset, offset, row[i_origin].strip(),
                                row[i_desc], state, {c: row[i] for c, i in extras}))
    if i_state is None:
        columns.append("state")
    return RegDb(entries=entries, columns=columns)


def save_db(db: RegDb) -> str:
    """Canonical CSV: rows sorted by offset, lowercase 0x-hex, LF endings."""
    for col in REQUIRED_COLUMNS:  # so the saved text loads again
        if col not in db.columns:
            raise DataError(f"missing required column {col!r}")
    for e in db.entries:
        if e.offset_bytes is None:
            raise DataError(f"entry {e.name} has no offset; allocate before saving")
    # a row is the canonical cells, then each extra column's; pick reorders
    # them into db.columns, which may repeat a column or leave out state
    extras = [c for c in db.columns if c not in CANONICAL_COLUMNS]
    position = {c: i for i, c in enumerate(CANONICAL_COLUMNS + tuple(extras))}
    pick = operator.itemgetter(*[position[c] for c in db.columns])

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(db.columns)
    writer.writerows(
        pick((e.name, str(e.width_bits), e.access, f"0x{e.reset_value:x}",
              f"0x{e.offset_bytes:x}", e.origin_module, e.description, e.state,
              *[e.extra.get(c, "") for c in extras]))
        for e in sorted(db.entries, key=_OFFSET_KEY))
    return buf.getvalue()


def db_hash(db: RegDb) -> int:
    """32-bit identity of the database content; lands in the ID register."""
    return zlib.crc32(save_db(db).encode("utf-8")) & 0xFFFFFFFF


_CANONICAL_HEADER = ",".join(CANONICAL_COLUMNS) + "\n"
_HEX = r"0x(?:0|[1-9a-f][0-9a-f]*)"
# a row as save_db writes it: cells that load back unchanged, quoted exactly
# when csv.writer quotes (for ',', '"' and LF), and no CR, which some csv
# versions quote
_CANONICAL_ROW_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*,[1-9][0-9]*,R[WO]," + _HEX + "," + _HEX + ","
    r'(?:[^\s,"](?:[^,"\r\n]*[^\s,"])?)?,'
    r'(?:[^,"\r\n]*|"[^",\r\n]*(?:""|[,\n])[^"\r]*(?:""[^"\r]*)*"),'
    r"(?:active|retired)\n")


def loaded_db_hash(csv_text: str, db: RegDb) -> int:
    """db_hash(db) for the db that load_db read from csv_text: the CRC of the
    text itself when it is the text save_db writes, else of save_db's text."""
    pos, last = len(_CANONICAL_HEADER), -1
    if csv_text.startswith(_CANONICAL_HEADER):
        # a canonical row per entry, each where the last ended, in offset order
        for e in db.entries:
            m = _CANONICAL_ROW_RE.match(csv_text, pos)
            if m is None or e.offset_bytes <= last:
                break
            pos, last = m.end(), e.offset_bytes
        else:
            if pos == len(csv_text):
                return zlib.crc32(csv_text.encode("utf-8")) & 0xFFFFFFFF
    return db_hash(db)


def validate_db(db: RegDb) -> list[DbError]:
    """Every invariant violation as a value; empty list iff the db is valid."""
    problems: list[DbError] = []
    for col in REQUIRED_COLUMNS:
        if col not in db.columns:
            problems.append(DbError("", f"missing required column {col!r}"))
    names: dict[str, str] = {}  # upper-cased, as in the C header's macros -> first name
    offsets = {}
    for e in db.entries:
        if not _IDENT_RE.match(e.name):
            problems.append(DbError(e.name, f"name {e.name!r} is not an identifier"))
        macro = e.name.upper()
        if macro in names:
            first = names[macro]
            problems.append(DbError(e.name, "duplicate register name" if first == e.name
                                    else f"name differs from {first} only in case"))
        else:
            names[macro] = e.name
        if macro in _RESERVED_NAMES:
            problems.append(DbError(e.name, _RESERVED_NAMES[macro]))
        if not 1 <= e.width_bits <= 32:
            problems.append(DbError(e.name, f"width {e.width_bits} outside [1, 32]"))
        if e.access not in (ACCESS_RW, ACCESS_RO):
            problems.append(DbError(e.name, f"invalid access {e.access!r}"))
        if e.state not in (ACTIVE, RETIRED):
            problems.append(DbError(e.name, f"invalid state {e.state!r}"))
        if e.offset_bytes is None:
            problems.append(DbError(e.name, "offset not allocated"))
        else:
            if e.offset_bytes % WORD_BYTES:
                problems.append(DbError(e.name, f"offset 0x{e.offset_bytes:x} not word-aligned"))
            if e.offset_bytes < FIRST_OFFSET:
                problems.append(DbError(e.name, "offset 0x0 is reserved for the ID register"))
            if e.offset_bytes in offsets:
                problems.append(DbError(e.name, f"offset shared with {offsets[e.offset_bytes]}"))
            offsets[e.offset_bytes] = e.name
        if 1 <= e.width_bits <= 32 and not 0 <= e.reset_value < (1 << e.width_bits):
            problems.append(DbError(
                e.name, f"reset 0x{e.reset_value:x} does not fit in {e.width_bits} bits"))
    return problems


def _copy_db(db: RegDb) -> RegDb:
    """Copy whose entries can be changed without touching db.

    Every RegEntry field but extra is an immutable scalar or string, so a
    shallow copy per entry plus a copy of its extra dict is a full copy.
    """
    entries = [RegEntry(e.name, e.width_bits, e.access, e.reset_value, e.offset_bytes,
                        e.origin_module, e.description, e.state, dict(e.extra))
               for e in db.entries]
    return RegDb(entries=entries, columns=list(db.columns))


def _allocate_in_place(entries: list[RegEntry], region_size_bytes: int | None) -> None:
    limit = region_size_bytes if region_size_bytes is not None else 1 << 32
    used = {e.offset_bytes for e in entries if e.offset_bytes is not None}
    cursor = FIRST_OFFSET
    for e in entries:
        if e.offset_bytes is not None:
            continue
        while cursor in used:
            cursor += WORD_BYTES
        if cursor >= limit:
            raise DataError(
                f"no free offset below 0x{limit:x} for entry {e.name}")
        e.offset_bytes = cursor
        used.add(cursor)


def update_db(
    db: RegDb,
    candidates: list[CsrCandidate],
    scanned_modules: set[str] | None = None,
    region_size_bytes: int | None = None,
) -> tuple[RegDb, ChangeReport]:
    """Merge one scan run into the database.

    New candidates are appended and allocated; known ones get their
    scan-owned fields refreshed in place with offsets, resets, descriptions
    and extra columns untouched. Active entries whose origin module was
    rescanned but which matched no candidate are retired (offset kept);
    entries from modules outside this scan are left alone. A retired entry
    reappearing with the same access type is reactivated at its old offset.
    """
    seen = set()
    for c in candidates:
        if c.name in seen:
            raise InputError(f"duplicate candidate name {c.name}")
        seen.add(c.name)
    if scanned_modules is None:
        scanned_modules = {c.origin_module for c in candidates}

    new = _copy_db(db)
    report = ChangeReport()
    by_name = {e.name: e for e in new.entries}

    for cand in candidates:
        entry = by_name.get(cand.name)
        if entry is None:
            entry = RegEntry(name=cand.name, width_bits=cand.width_bits, access=cand.access,
                             origin_module=cand.origin_module)
            new.entries.append(entry)
            by_name[cand.name] = entry
            report.added.append(cand.name)
            continue
        changed = False
        if entry.state == RETIRED:
            if entry.access != cand.access:
                where = "unallocated" if entry.offset_bytes is None \
                    else f"0x{entry.offset_bytes:x}"
                raise DataError(
                    f"candidate {cand.name} ({cand.access}) collides with a retired "
                    f"{entry.access} entry at offset {where}")
            entry.state = ACTIVE
            report.modified.append((cand.name, "state", RETIRED, ACTIVE))
            changed = True
        for label, attr, val in (("width", "width_bits", cand.width_bits),
                                 ("access", "access", cand.access),
                                 ("origin_module", "origin_module", cand.origin_module)):
            old = getattr(entry, attr)
            if old != val:
                setattr(entry, attr, val)
                report.modified.append((cand.name, label, old, val))
                changed = True
        if not changed:
            report.unchanged_count += 1

    for entry in new.entries:
        if entry.state == ACTIVE and entry.origin_module in scanned_modules \
                and entry.name not in seen:
            entry.state = RETIRED
            report.retired.append(entry.name)

    _allocate_in_place(new.entries, region_size_bytes)
    new.entries.sort(key=_OFFSET_KEY)
    return new, report


def format_change_report(report: ChangeReport) -> str:
    if report.empty:
        return f"no changes ({report.unchanged_count} unchanged)"
    lines = []
    if report.added:
        lines.append("added: " + ", ".join(report.added))
    for name, fieldname, old, new in report.modified:
        lines.append(f"modified: {name} {fieldname} {old} -> {new}")
    if report.retired:
        lines.append("retired: " + ", ".join(report.retired))
    lines.append(f"unchanged: {report.unchanged_count}")
    return "\n".join(lines)

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
import re
import zlib
from dataclasses import dataclass, field, replace

from . import DataError, InputError
from .sv_scan import ACCESS_RO, ACCESS_RW, CsrCandidate

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


@dataclass
class RegEntry:
    name: str
    width_bits: int
    access: str  # RW | RO
    reset_value: int = 0
    offset_bytes: int | None = None  # None = not yet allocated
    origin_module: str = ""
    description: str = ""
    state: str = ACTIVE
    extra: dict = field(default_factory=dict)


@dataclass
class RegDb:
    entries: list[RegEntry] = field(default_factory=list)
    columns: list[str] = field(default_factory=lambda: list(CANONICAL_COLUMNS))

    def entry(self, name: str) -> RegEntry | None:
        for e in self.entries:
            if e.name == name:
                return e
        return None

    def retired_entries(self) -> list[RegEntry]:
        return [e for e in self.entries if e.state == RETIRED]


@dataclass
class ChangeReport:
    added: list = field(default_factory=list)
    modified: list = field(default_factory=list)  # (name, field, old, new)
    retired: list = field(default_factory=list)
    unchanged_count: int = 0

    @property
    def empty(self) -> bool:
        return not (self.added or self.modified or self.retired)


@dataclass(frozen=True)
class DbError:
    entry: str  # register name, or "" for database-level problems
    message: str


def _parse_int(token: str, what: str, row: int) -> int:
    try:
        return int(token.strip(), 0)
    except ValueError:
        raise InputError(f"row {row}: bad {what} value {token!r}") from None


def load_db(csv_text: str) -> RegDb:
    """Parse CSV text into a RegDb, preserving any extra columns verbatim."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows:
        raise InputError("empty database file (missing header row)")
    columns = [c.strip() for c in rows[0]]
    for col in REQUIRED_COLUMNS:
        if col not in columns:
            raise InputError(f"missing required column {col!r}")
    col_index = {c: i for i, c in enumerate(columns)}
    has_state = "state" in col_index
    extra_cols = [c for c in columns if c not in CANONICAL_COLUMNS]

    entries = []
    names: dict[str, int] = {}
    offsets: dict[int, int] = {}
    for rownum, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != len(columns):
            raise InputError(f"row {rownum}: expected {len(columns)} fields, found {len(row)}")
        get = lambda c: row[col_index[c]]
        name = get("name").strip()
        width = _parse_int(get("width"), "width", rownum)
        access = get("access").strip().upper()
        if access not in (ACCESS_RW, ACCESS_RO):
            raise InputError(f"row {rownum}: invalid access token {get('access')!r}")
        reset = _parse_int(get("reset"), "reset", rownum)
        offset_tok = get("offset").strip()
        offset = _parse_int(offset_tok, "offset", rownum) if offset_tok else None
        state = get("state").strip().lower() if has_state else ACTIVE
        if state not in (ACTIVE, RETIRED):
            raise InputError(f"row {rownum}: invalid state token {get('state')!r}")
        if name in names:
            raise DataError(f"duplicate register name {name!r} (rows {names[name]} and {rownum})")
        names[name] = rownum
        if offset is not None:
            if offset in offsets:
                raise DataError(
                    f"duplicate offset 0x{offset:x} (rows {offsets[offset]} and {rownum})")
            offsets[offset] = rownum
        entries.append(RegEntry(
            name=name,
            width_bits=width,
            access=access,
            reset_value=reset,
            offset_bytes=offset,
            origin_module=get("origin_module").strip(),
            description=get("description"),
            state=state,
            extra={c: row[col_index[c]] for c in extra_cols},
        ))
    if not has_state:
        columns = columns + ["state"]
    return RegDb(entries=entries, columns=columns)


def save_db(db: RegDb) -> str:
    """Canonical CSV: rows sorted by offset, lowercase 0x-hex, LF endings."""
    for e in db.entries:
        if e.offset_bytes is None:
            raise DataError(f"entry {e.name} has no offset; allocate before saving")

    def cell(e: RegEntry, col: str) -> str:
        if col == "name":
            return e.name
        if col == "width":
            return str(e.width_bits)
        if col == "access":
            return e.access
        if col == "reset":
            return f"0x{e.reset_value:x}"
        if col == "offset":
            return f"0x{e.offset_bytes:x}"
        if col == "origin_module":
            return e.origin_module
        if col == "description":
            return e.description
        if col == "state":
            return e.state
        return e.extra.get(col, "")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(db.columns)
    for e in sorted(db.entries, key=lambda e: e.offset_bytes):
        writer.writerow([cell(e, c) for c in db.columns])
    return buf.getvalue()


def db_hash(db: RegDb) -> int:
    """32-bit identity of the database content; lands in the ID register."""
    return zlib.crc32(save_db(db).encode("utf-8")) & 0xFFFFFFFF


def validate_db(db: RegDb) -> list[DbError]:
    """Every invariant violation as a value; empty list iff the db is valid."""
    problems: list[DbError] = []
    for col in REQUIRED_COLUMNS:
        if col not in db.columns:
            problems.append(DbError("", f"missing required column {col!r}"))
    names = set()
    offsets = {}
    for e in db.entries:
        if not _IDENT_RE.match(e.name):
            problems.append(DbError(e.name, f"name {e.name!r} is not an identifier"))
        if e.name in names:
            problems.append(DbError(e.name, "duplicate register name"))
        names.add(e.name)
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


def allocate_offsets(db: RegDb, region_size_bytes: int | None = None) -> RegDb:
    """Assign the lowest free word offset >= 0x4 to each unallocated entry.

    Retired entries keep their offsets reserved; existing assignments never
    move.
    """
    new = _copy_db(db)
    _allocate_in_place(new.entries, region_size_bytes)
    new.entries.sort(key=lambda e: e.offset_bytes)
    return new


def _copy_db(db: RegDb) -> RegDb:
    """Copy whose entries can be changed without touching db.

    Every RegEntry field but extra is an immutable scalar or string, so a
    shallow copy per entry plus a copy of its extra dict is a full copy.
    """
    entries = [replace(e, extra=dict(e.extra)) for e in db.entries]
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
    new.entries.sort(key=lambda e: e.offset_bytes)
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

"""CSV-backed register database: the single source of truth for generation.

The database is a plain CSV file (first row is the defining header) so it can
be reviewed, diffed, and hand-edited in a spreadsheet. Scans own the
width/access/origin columns; reset values, descriptions, and any extra
columns a project adds belong to humans and are never overwritten.

Entries are never deleted: a register that disappears from the RTL is
retired, and its offset stays reserved forever so regenerated software views
can never silently re-bind an address across chip revisions. The diagnostic
taps are kept the same way: update records each tap's select code in the one
column it owns (TAPS_COLUMN), on the select register's row.
"""

from __future__ import annotations

import csv
import io
import operator
import re
import zlib
from collections.abc import Iterator, Mapping
from types import MappingProxyType
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

DIAG_SEL = "cfg_diag_sel"  # the diagnostic mux's select register, which update generates
# update's own column, set only on DIAG_SEL's row: the diagnostic taps in code
# order, as name@module with retired ones marked :retired, one space apart
TAPS_COLUMN = "diag_taps"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
OFFSET_KEY = operator.attrgetter("offset_bytes")
# names, upper-cased, whose macros the C header defines for itself
_RESERVED_NAMES = {ID_REG_NAME.upper(): "name reserved for the ID register",
                   "BASE": "name reserved for the base address"}


class CsrCandidate(NamedTuple):
    name: str
    width_bits: int
    access: str
    origin_module: str


class DiagTap(NamedTuple):
    name: str
    origin_module: str
    retired: bool = False


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

    @property
    def has_affix(self):
        """has_affix(name, affix): str.startswith or str.endswith, by match_mode."""
        return str.startswith if self.match_mode == "prefix" else str.endswith


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
        if not _IDENT_RE.fullmatch(self.block_name):
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


_NO_EXTRA = MappingProxyType({})  # the extra of every entry without extra cells


class _EntryFields(NamedTuple):  # RegEntry's defaults are its __new__'s
    name: str
    width_bits: int
    access: str  # RW | RO
    reset_value: int
    offset_bytes: int | None  # None = not yet allocated
    origin_module: str
    description: str
    state: str
    extra: Mapping[str, str]  # the non-empty extra cells, by column


class RegEntry(Checked, _EntryFields):
    """A register's row, immutable: extra is kept if a MappingProxyType, else
    copied into one, so update_db can share the entries it leaves unchanged."""

    __slots__ = ()

    def __new__(cls, name, width_bits, access, reset_value=0, offset_bytes=None,
                origin_module="", description="", state=ACTIVE, extra=_NO_EXTRA):
        if type(extra) is not MappingProxyType:
            extra = MappingProxyType(dict(extra)) if extra else _NO_EXTRA
        return tuple.__new__(cls, (name, width_bits, access, reset_value, offset_bytes,
                                   origin_module, description, state, extra))


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
    __slots__ = ("added", "modified", "retired", "taps", "unchanged_count")

    def __init__(self):
        self.added = []
        self.modified = []  # (name, field, old, new)
        self.retired = []
        self.taps = []  # (event, tap name, code, detail)
        self.unchanged_count = 0

    @property
    def empty(self) -> bool:
        return not (self.added or self.modified or self.retired or self.taps)


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


def _crlf_as_lf(cells: list[str], names: list[str], rownum: int) -> list[str]:
    """cells with each CRLF read as LF, as universal newlines read it. Any
    other CR is an InputError: csv.writer would write it unquoted, and csv
    could then not read the saved file."""
    cells = [c.replace("\r\n", "\n") for c in cells]
    for cell, name in zip(cells, names):
        if "\r" in cell:
            raise InputError(f"row {rownum}: {name} holds a CR outside a CRLF")
    return cells


def load_db(csv_text: str) -> RegDb:
    """Parse CSV text into a RegDb, preserving any extra columns verbatim; an
    entry's extra holds its non-empty extra cells. A CRLF in a cell reads as
    LF, and any other CR is refused."""
    rows = csv_rows(csv_text, "row")
    header = next(rows, None)
    if header is None:
        raise InputError("empty database file (missing header row)")
    crs = "\r" in csv_text  # a text without CR pays for no check
    if crs:
        header = _crlf_as_lf(header, [f"column {i}" for i in range(1, len(header) + 1)], 1)
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
        if crs:
            row = _crlf_as_lf(row, columns, rownum)
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
                                row[i_desc], state, {c: row[i] for c, i in extras if row[i]}))
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
        for e in sorted(db.entries, key=OFFSET_KEY))
    return buf.getvalue()


def db_hash(db: RegDb) -> int:
    """32-bit identity of the database content; lands in the ID register."""
    return zlib.crc32(save_db(db).encode("utf-8")) & 0xFFFFFFFF


_HEADER = ",".join(CANONICAL_COLUMNS)
# a row as save_db writes it for a valid entry: a width of 1-32, an offset
# word-aligned from 0x4, cells that load back unchanged, quoted exactly when
# csv.writer quotes (for ',', '"' and LF), no CR, which some csv versions
# quote, and no NUL, which Python 3.10's csv rejects; the extra cells follow
# state as one run
_DB_ROW_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*),([1-9]|[12][0-9]|3[0-2]),(R[WO]),0x(0|[1-9a-f][0-9a-f]*),"
    r"0x([48c]|[1-9a-f][0-9a-f]*[048c]),"
    r'((?:[^\s,"\0](?:[^,"\r\n\0]*[^\s,"\0])?)?),'
    r'(?:([^,"\r\n\0]*)|"([^",\r\n\0]*(?:""|[,\n])[^"\r\0]*(?:""[^"\r\0]*)*)"),'
    r'(active|retired)((?:,[^"\r\n\0]*)?)\n')
_TOKENS = {t: t for t in (ACCESS_RW, ACCESS_RO, ACTIVE, RETIRED)}


def load_canonical_db(csv_text: str) -> tuple[RegDb, int] | None:
    """(load_db(csv_text), its db_hash) in one pass, when csv_text is the text
    save_db writes for a database validate_db passes: the hash is the CRC of
    the text itself. None for any other text, and for the saved texts it
    leaves to csv (a NUL or CR anywhere, a quoted extra column): load_db and
    validate_db then read them, reporting what is wrong."""
    # a row no longer than the field limit holds no cell that csv rejects
    end, limit = csv_text.find("\n"), csv.field_size_limit()
    tail = csv_text[len(_HEADER):end]  # the extra columns, each after a ','
    if not csv_text.startswith(_HEADER) or not 0 < end <= limit or tail[:1] not in ("", ","):
        return None
    extras = tail[1:].split(",") if tail else []
    if len(set(extras)) != len(extras) or any(
            c in CANONICAL_COLUMNS or c != c.strip() or '"' in c or "\r" in c or "\0" in c
            for c in extras):
        return None
    n_extras, pos, last = len(extras), end + 1, 0
    seen = set(_RESERVED_NAMES)  # names upper-cased, as validate_db compares them
    origins: dict[str, str] = {}
    entries, tapped = [], []  # tapped: the entries with a diag_taps cell
    # a row per entry, each where the last ended, in offset order
    for m in _DB_ROW_RE.finditer(csv_text, pos):
        name, width, access, reset, offset, origin, plain, quoted, state, extra = m.groups()
        width, reset, offset, macro = int(width), int(reset, 16), int(offset, 16), name.upper()
        if m.start() != pos or m.end() - pos > limit or offset <= last or reset >> width \
                or macro in seen or extra.count(",") != n_extras:
            return None
        seen.add(macro)
        pos, last = m.end(), offset
        cells = MappingProxyType({c: v for c, v in zip(extras, extra[1:].split(",")) if v}) \
            if len(extra) > n_extras else _NO_EXTRA  # when an extra cell is not empty
        entries.append(tuple.__new__(RegEntry, (  # as RegEntry() would: cells is read-only
            name, width, _TOKENS[access], reset, offset, origins.setdefault(origin, origin),
            plain if quoted is None else quoted.replace('""', '"'), _TOKENS[state], cells)))
        if TAPS_COLUMN in cells:
            tapped.append(entries[-1])
    if pos != len(csv_text) or any(_tap_problems(e, seen) for e in tapped):
        return None
    return RegDb(entries, list(CANONICAL_COLUMNS) + extras), zlib.crc32(csv_text.encode("utf-8"))


def validate_db(db: RegDb) -> list[DbError]:
    """Every invariant violation as a value; empty list iff the db is valid."""
    problems: list[DbError] = []
    for col in REQUIRED_COLUMNS:
        if col not in db.columns:
            problems.append(DbError("", f"missing required column {col!r}"))
    names: dict[str, str] = {}  # upper-cased, as in the C header's macros -> first name
    offsets = {}
    tapped = []  # the entries with a diag_taps cell
    for e in db.entries:
        if not _IDENT_RE.fullmatch(e.name):
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
        if e.extra and e.extra.get(TAPS_COLUMN):
            tapped.append(e)
    problems += [DbError(e.name, p) for e in tapped for p in _tap_problems(e, names)]
    return problems


def _tap_problems(e: RegEntry, names) -> list[str]:
    """What is wrong with e's non-empty diag_taps cell; names holds every
    register name upper-cased."""
    if e.name != DIAG_SEL:
        return [f"{TAPS_COLUMN} is set only on {DIAG_SEL}"]
    try:
        taps = parse_taps(e.extra[TAPS_COLUMN])
        bits = diag_select_bits(taps)
    except DataError as exc:
        return [str(exc)]
    problems = []
    for t in taps:  # the C header defines DIAG_SEL_<TAP> beside <NAME>_ADDR and <NAME>_WIDTH
        macro = f"DIAG_SEL_{t.name.upper()}"
        problems += [f"diagnostic tap {t.name}'s C macro {macro} is also register {stem}'s"
                     for stem in (macro.removesuffix("_ADDR"), macro.removesuffix("_WIDTH"))
                     if stem != macro and stem in names]
    if bits > e.width_bits:
        problems.append(f"{bits}-bit diagnostic select codes do not fit in {e.width_bits} bits")
    return problems


def _allocate_in_place(entries: list[RegEntry], region_size_bytes: int | None) -> None:
    limit = region_size_bytes if region_size_bytes is not None else 1 << 32
    used = {e.offset_bytes for e in entries if e.offset_bytes is not None}
    cursor = FIRST_OFFSET
    for i, e in enumerate(entries):
        if e.offset_bytes is None:
            while cursor in used:
                cursor += WORD_BYTES
            if cursor >= limit:
                raise DataError(f"no free offset below 0x{limit:x} for entry {e.name}")
            entries[i] = e._replace(offset_bytes=cursor)
            used.add(cursor)
        elif e.offset_bytes >= limit:
            raise DataError(
                f"entry {e.name} at offset 0x{e.offset_bytes:x} falls outside the region")


def parse_taps(cell: str) -> list[DiagTap]:
    """The taps a diag_taps cell lists, in code order: a tap's code is its place."""
    taps = []
    for item in cell.split(" ") if cell else ():
        name, _, rest = item.partition("@")
        module, colon, mark = rest.partition(":")
        if not (_IDENT_RE.fullmatch(name) and _IDENT_RE.fullmatch(module)) \
                or mark != ("retired" if colon else ""):
            raise DataError(f"bad diagnostic tap {item!r} (name@module, :retired if retired)")
        taps.append(DiagTap(name, module, bool(colon)))
    return taps


def format_taps(taps: list[DiagTap]) -> str:
    return " ".join(f"{t.name}@{t.origin_module}{':retired' if t.retired else ''}" for t in taps)


def diag_select_bits(taps: list[DiagTap]) -> int:
    """Bits of one pin's field of cfg_diag_sel for the taps held, in code
    order: enough for the highest code, retired ones included. No two taps may
    share a name, in any case, since each names a C macro."""
    names: dict[str, str] = {}  # upper-cased -> first name
    for t in taps:
        first = names.get(t.name.upper())
        if first is not None:
            raise DataError(f"diagnostic tap {t.name} listed twice" if first == t.name
                            else f"diagnostic tap {t.name} differs from {first} only in case")
        names[t.name.upper()] = t.name
    return (len(taps) - 1).bit_length() if taps else 0


def update_db(
    db: RegDb,
    candidates: list[CsrCandidate],
    scanned_modules: set[str] | None = None,
    config: EmitConfig | None = None,
    taps: list[DiagTap] | None = None,
) -> tuple[RegDb, ChangeReport]:
    """Merge one scan run into a new database; db is unchanged, and shares
    each entry the merge leaves alone.

    New candidates are appended and allocated; known ones get the scan-owned
    fields of their candidate, with offsets, resets, descriptions and extra
    columns kept. Active entries whose origin module was rescanned but which
    matched no candidate are retired (offset kept); entries from modules
    outside this scan are left alone. A retired entry reappearing with the
    same access type is reactivated at its old offset.

    With config, offsets are allocated below its csr region size, and the
    merge owns DIAG_SEL, the select register of module <block>_diag_mux. When
    config targets diag, taps (the ones the scan found, in scan order) are
    merged into the taps DIAG_SEL's row records, and DIAG_SEL is a candidate
    while a tap is active; it retires when none is, or when diag is off.
    """
    if scanned_modules is None:
        scanned_modules = {c.origin_module for c in candidates}
    report = ChangeReport()
    entries, columns = list(db.entries), list(db.columns)
    index = {e.name: i for i, e in enumerate(entries)}
    merged = None  # the taps to record on DIAG_SEL's row
    if config is not None:
        sel_origin = f"{config.block_name}_diag_mux"
        if "diag" in config.targets:
            sel = entries[index[DIAG_SEL]] if DIAG_SEL in index else None
            merged = _merge_taps(parse_taps(sel.extra.get(TAPS_COLUMN, "") if sel else ""),
                                 taps or [], scanned_modules, report)
            width = max(1, diag_select_bits(merged) * config.diag_pins)
            if any(not t.retired for t in merged):
                if any(c.name == DIAG_SEL for c in candidates):
                    raise InputError(f"{DIAG_SEL} is generated for the diagnostic mux; "
                                     "rename the conflicting RTL port")
                candidates = [*candidates, CsrCandidate(DIAG_SEL, width, ACCESS_RW, sel_origin)]
        scanned_modules = scanned_modules | {sel_origin}

    seen = set()
    for c in candidates:
        if c.name in seen:
            raise InputError(f"duplicate candidate name {c.name}")
        seen.add(c.name)

    for cand in candidates:
        i = index.get(cand.name)
        if i is None:
            index[cand.name] = len(entries)
            entries.append(RegEntry(cand.name, cand.width_bits, cand.access,
                                    origin_module=cand.origin_module))
            report.added.append(cand.name)
            continue
        entry = entries[i]
        reactivated = entry.state == RETIRED
        if reactivated:
            if entry.access != cand.access:
                where = "unallocated" if entry.offset_bytes is None else f"0x{entry.offset_bytes:x}"
                raise DataError(
                    f"candidate {cand.name} ({cand.access}) collides with a retired "
                    f"{entry.access} entry at offset {where}")
            report.modified.append((cand.name, "state", RETIRED, ACTIVE))
        # the scan-owned fields, as CsrCandidate holds them after its name
        old, now = (entry.width_bits, entry.access, entry.origin_module), cand[1:]
        if old == now and not reactivated:
            report.unchanged_count += 1
            continue
        report.modified += [(cand.name, label, a, b) for label, a, b
                            in zip(("width", "access", "origin_module"), old, now) if a != b]
        entries[i] = entry._replace(width_bits=cand.width_bits, access=cand.access,
                                    origin_module=cand.origin_module, state=ACTIVE)

    for i, entry in enumerate(entries):
        if entry.state == ACTIVE and entry.origin_module in scanned_modules \
                and entry.name not in seen:
            entries[i] = entry._replace(state=RETIRED)
            report.retired.append(entry.name)

    if merged:  # a tap was held, so DIAG_SEL has a row, or one is active and added it
        i = index[DIAG_SEL]
        entries[i] = entries[i]._replace(extra={**entries[i].extra,
                                                TAPS_COLUMN: format_taps(merged)})
        if TAPS_COLUMN not in columns:
            columns.insert(columns.index("state") + 1 if "state" in columns else len(columns),
                           TAPS_COLUMN)
    _allocate_in_place(entries, None if config is None else config.csr_region_size_bytes)
    entries.sort(key=OFFSET_KEY)
    return RegDb(entries, columns), report


def _merge_taps(held: list[DiagTap], found: list[DiagTap], scanned_modules: set[str],
                report: ChangeReport) -> list[DiagTap]:
    """held, the taps in code order, after a scan of scanned_modules that
    found the taps found; reports each tap that changed. Codes are allocated
    as offsets are: a tap found keeps its code, and one retired takes it back;
    a tap missing from a scanned module is retired and its code stays
    reserved; a new tap takes the lowest free code, which is the next one,
    since none is freed."""
    where = {t.name: t.origin_module for t in found}
    if len(where) != len(found):
        raise DataError("duplicate diagnostic signal names across modules")
    merged = []
    for code, was in enumerate(held):
        module = where.pop(was.name, None)
        tap = DiagTap(was.name, module) if module is not None \
            else was._replace(retired=True) if was.origin_module in scanned_modules else was
        if tap.retired != was.retired:
            report.taps.append(("retired" if tap.retired else "reactivated", tap.name, code, ""))
        elif was.origin_module != tap.origin_module:
            report.taps.append(("moved", tap.name, code,
                                f" from {was.origin_module} to {tap.origin_module}"))
        merged.append(tap)
    for name, module in where.items():
        report.taps.append(("added", name, len(merged), ""))
        merged.append(DiagTap(name, module))
    return merged


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
    lines += [f"tap {event}: {name} (code {code}){detail}"
              for event, name, code, detail in report.taps]
    lines.append(f"unchanged: {report.unchanged_count}")
    return "\n".join(lines)

"""The database reader, writer and merge that the one-pass reader, the
one-picker writer and the tuple-compare merge replaced: a lambda per cell on
load, an if chain per cell on save, and on merge a getattr and an assignment
per scan-owned field of each known candidate, on a mutable working copy of each
entry (its _asdict()), with an allocator of its own. Kept only as the oracle
for the differential property tests; chipkit never imports it."""

from __future__ import annotations

import csv
import io
import itertools

from chipkit import DataError, InputError
from chipkit.regdb import (
    ACCESS_RO, ACCESS_RW, ACTIVE, CANONICAL_COLUMNS, OFFSET_KEY, REQUIRED_COLUMNS, RETIRED,
    FIRST_OFFSET, WORD_BYTES, ChangeReport, CsrCandidate, RegDb, RegEntry, _parse_int)


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

    report = ChangeReport()
    work = [e._asdict() for e in db.entries]  # a mutable copy of each entry
    by_name = {e["name"]: e for e in work}

    for cand in candidates:
        entry = by_name.get(cand.name)
        if entry is None:
            entry = RegEntry(name=cand.name, width_bits=cand.width_bits, access=cand.access,
                             origin_module=cand.origin_module)._asdict()
            work.append(entry)
            by_name[cand.name] = entry
            report.added.append(cand.name)
            continue
        changed = False
        if entry["state"] == RETIRED:
            if entry["access"] != cand.access:
                where = "unallocated" if entry["offset_bytes"] is None \
                    else f"0x{entry['offset_bytes']:x}"
                raise DataError(
                    f"candidate {cand.name} ({cand.access}) collides with a retired "
                    f"{entry['access']} entry at offset {where}")
            entry["state"] = ACTIVE
            report.modified.append((cand.name, "state", RETIRED, ACTIVE))
            changed = True
        for label, attr in (("width", "width_bits"), ("access", "access"),
                            ("origin_module", "origin_module")):
            old, val = entry[attr], getattr(cand, attr)
            if old != val:
                entry[attr] = val
                report.modified.append((cand.name, label, old, val))
                changed = True
        if not changed:
            report.unchanged_count += 1

    for entry in work:
        if entry["state"] == ACTIVE and entry["origin_module"] in scanned_modules \
                and entry["name"] not in seen:
            entry["state"] = RETIRED
            report.retired.append(entry["name"])

    # the lowest free word offset from FIRST_OFFSET for each entry without one,
    # in order; an entry with one must lie below the limit
    limit = 1 << 32 if region_size_bytes is None else region_size_bytes
    used = {e["offset_bytes"] for e in work}
    for entry in work:
        if entry["offset_bytes"] is not None and entry["offset_bytes"] >= limit:
            raise DataError(f"entry {entry['name']} at offset 0x{entry['offset_bytes']:x} "
                            "falls outside the region")
        if entry["offset_bytes"] is None:
            offset = next(o for o in itertools.count(FIRST_OFFSET, WORD_BYTES) if o not in used)
            if offset >= limit:
                raise DataError(f"no free offset below 0x{limit:x} for entry {entry['name']}")
            entry["offset_bytes"] = offset
            used.add(offset)

    entries = sorted((RegEntry(**e) for e in work), key=OFFSET_KEY)
    return RegDb(entries=entries, columns=list(db.columns)), report

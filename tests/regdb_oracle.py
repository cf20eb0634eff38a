"""The database reader, writer and merge that the one-pass reader, the
one-picker writer and the tuple-compare merge replaced: a lambda per cell on
load, an if chain per cell on save, and on merge a getattr and an assignment
per scan-owned field of each known candidate, on a mutable working copy of each
entry (its _asdict()), with an allocator of its own, and a tap merge on a dict
per tap, written from README's tap rules. Kept only as the oracle
for the differential property tests; chipkit never imports it."""

from __future__ import annotations

import csv
import io
import itertools
import re

from chipkit import DataError, InputError
from chipkit.regdb import (
    ACCESS_RO, ACCESS_RW, ACTIVE, CANONICAL_COLUMNS, DIAG_SEL, OFFSET_KEY, REQUIRED_COLUMNS,
    RETIRED, TAPS_COLUMN, FIRST_OFFSET, WORD_BYTES, ChangeReport, CsrCandidate, DiagTap,
    EmitConfig, RegDb, RegEntry, _parse_int)


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
    config: EmitConfig | None = None,
    taps: list[DiagTap] | None = None,
) -> tuple[RegDb, ChangeReport]:
    """Merge one scan run into the database.

    New candidates are appended and allocated; known ones get their
    scan-owned fields refreshed in place with offsets, resets, descriptions
    and extra columns untouched. Active entries whose origin module was
    rescanned but which matched no candidate are retired (offset kept);
    entries from modules outside this scan are left alone. A retired entry
    reappearing with the same access type is reactivated at its old offset.
    With a config, offsets lie below its region size, and, when it targets
    diag, the taps found are merged into the ones cfg_diag_sel records, as
    README's tap rules say; cfg_diag_sel is the mux's while a tap is active.
    """
    scanned = {c.origin_module for c in candidates} if scanned_modules is None \
        else set(scanned_modules)
    report = ChangeReport()
    work = [e._asdict() for e in db.entries]  # a mutable copy of each entry
    by_name = {e["name"]: e for e in work}
    candidates = list(candidates)
    cell = None  # the diag_taps cell to record
    if config is not None:
        mux = config.block_name + "_diag_mux"
        if "diag" in config.targets:
            sel = by_name.get(DIAG_SEL)
            recorded = _taps_after_scan(sel["extra"].get(TAPS_COLUMN, "") if sel else "",
                                        list(taps or []), scanned, report)
            if any(not t["retired"] for t in recorded):
                if DIAG_SEL in [c.name for c in candidates]:
                    raise InputError("cfg_diag_sel is generated for the diagnostic mux; "
                                     "rename the conflicting RTL port")
                bits = 0  # enough bits for the highest code
                while (1 << bits) < len(recorded):
                    bits += 1
                candidates.append(CsrCandidate(DIAG_SEL, max(1, bits * config.diag_pins),
                                               ACCESS_RW, mux))
            if recorded:
                cell = " ".join(t["name"] + "@" + t["module"] + (":retired" if t["retired"] else "")
                                for t in recorded)
        scanned.add(mux)

    seen = set()
    for c in candidates:
        if c.name in seen:
            raise InputError(f"duplicate candidate name {c.name}")
        seen.add(c.name)

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
        if entry["state"] == ACTIVE and entry["origin_module"] in scanned \
                and entry["name"] not in seen:
            entry["state"] = RETIRED
            report.retired.append(entry["name"])

    columns = list(db.columns)
    if cell is not None:
        sel = by_name[DIAG_SEL]
        sel["extra"] = {**sel["extra"], TAPS_COLUMN: cell}
        if TAPS_COLUMN not in columns:  # right after state, or last
            at = columns.index("state") + 1 if "state" in columns else len(columns)
            columns[at:at] = [TAPS_COLUMN]

    # the lowest free word offset from FIRST_OFFSET for each entry without one,
    # in order; an entry with one must lie below the limit
    limit = 1 << 32 if config is None else config.csr_region_size_bytes
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
    return RegDb(entries=entries, columns=columns), report


_TAP_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)@([A-Za-z_][A-Za-z0-9_]*)(:retired)?")


def _taps_after_scan(cell: str, found: list[DiagTap], scanned: set[str],
                     report: ChangeReport) -> list[dict]:
    """The taps the cell records, each a dict of name, module and retired, at
    its code, after a scan of scanned that found the taps found; reports each
    change. A tap found keeps its code and is active in the module it was
    found in; a tap missing from a scanned module is retired at its code; a
    new tap takes the next code, in scan order."""
    recorded = []
    for item in cell.split(" ") if cell != "" else []:
        m = _TAP_RE.fullmatch(item)
        if m is None:
            raise DataError(f"bad diagnostic tap {item!r} (name@module, :retired if retired)")
        recorded.append({"name": m[1], "module": m[2], "retired": m[3] is not None})
    modules = {}
    for t in found:
        if t.name in modules:
            raise DataError("duplicate diagnostic signal names across modules")
        modules[t.name] = t.origin_module
    held = {t["name"] for t in recorded}
    for code, tap in enumerate(recorded):
        was = dict(tap)
        if tap["name"] in modules:
            tap["module"], tap["retired"] = modules[tap["name"]], False
        elif tap["module"] in scanned:
            tap["retired"] = True
        if tap["retired"] and not was["retired"]:
            report.taps.append(("retired", tap["name"], code, ""))
        elif was["retired"] and not tap["retired"]:
            report.taps.append(("reactivated", tap["name"], code, ""))
        elif tap["module"] != was["module"]:
            report.taps.append(("moved", tap["name"], code,
                                f" from {was['module']} to {tap['module']}"))
    for t in found:
        if t.name not in held:
            report.taps.append(("added", t.name, len(recorded), ""))
            recorded.append({"name": t.name, "module": t.origin_module, "retired": False})
    # each tap names a C macro, so no two may share a name in any case
    first = {}
    for tap in recorded:
        key = tap["name"].upper()
        if key in first:
            raise DataError(f"diagnostic tap {tap['name']} listed twice" if first[key] == tap["name"]
                            else f"diagnostic tap {tap['name']} differs from {first[key]} only in case")
        first[key] = tap["name"]
    return recorded

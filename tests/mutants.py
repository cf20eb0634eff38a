"""The mutation catalogue: small breaks of src/ that named tests must catch.

Each row is one mutant: the file under the repository root, the exact old
text (it must occur once in that file), the new text, and the pytest node ids
of which at least one must fail with the mutant in place. scripts/mutants.py
applies the rows one at a time to a copy of src/ and tests/ and runs their
node ids; tests/test_mutants.py only checks that every row still applies and
that every node id is collected. A claim that a mutation fails a test is a
row here."""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    path: str  # from the repository root, under src/
    old: str
    new: str
    kills: tuple[str, ...]  # node ids, of which at least one must fail


_EMIT_ORACLE = "tests/test_emit_oracle.py::"
_MERGE_LAW = "tests/test_regdb_oracle.py::test_update_db_matches_oracle"
_MEMMAP_LAW = "tests/test_readback.py::test_memmap_header_declares_each_parameter_once"

MUTANTS = (
    Mutant(
        "prepare-skips-the-offset-check", "src/chipkit/emit.py",
        "        if e.offset_bytes >= size:\n"
        "            raise DataError(\n"
        '                f"entry {e.name} at offset 0x{e.offset_bytes:x} falls outside the region")\n',
        "",
        (_EMIT_ORACLE + "test_register_views_match_oracle",
         _EMIT_ORACLE + "test_selftest_matches_oracle",
         _EMIT_ORACLE + "test_register_views_match_oracle_on_edge_databases[gapped-top-of-space]")),
    Mutant(
        "returning-tap-takes-a-new-code", "src/chipkit/regdb.py",
        "        module = where.pop(was.name, None)\n",
        "        module = None if was.retired else where.pop(was.name, None)\n",
        (_MERGE_LAW,
         "tests/test_regdb.py::TestTaps::test_update_db_reports_each_changed_tap")),
    Mutant(
        "unscanned-module-tap-retires", "src/chipkit/regdb.py",
        "else was._replace(retired=True) if was.origin_module in scanned_modules else was\n",
        "else was._replace(retired=True)\n",
        (_MERGE_LAW, "tests/test_regdb.py::test_tap_codes_are_allocated_as_offsets")),
    Mutant(
        "select-register-without-max-1", "src/chipkit/regdb.py",
        "width = max(1, diag_select_bits(merged) * config.diag_pins)",
        "width = diag_select_bits(merged) * config.diag_pins",
        (_MERGE_LAW,)),
    Mutant(  # the duplicate check ahead of the tap merge, whose errors come first
        "duplicate-candidates-checked-before-the-taps", "src/chipkit/regdb.py",
        "    if scanned_modules is None:\n",
        "    seen = set()\n"
        "    for c in candidates:\n"
        "        if c.name in seen:\n"
        '            raise InputError(f"duplicate candidate name {c.name}")\n'
        "        seen.add(c.name)\n"
        "    if scanned_modules is None:\n",
        ("tests/test_regdb_oracle.py::test_first_fault_in_update_order_wins"
         "[port-named-cfg_diag_sel]", _MERGE_LAW)),
    Mutant(
        "selftest-reads-the-id-a-word-off", "src/chipkit/emit.py",
        "    id_name, id_addr = regs.rows[0][:2]\n",
        "    id_name, id_addr = regs.rows[0][:2]\n"
        "    id_addr = format_word(int(id_addr, 16) + 4)\n",
        ("tests/test_readback.py::test_fixture_header_reads_back",)),
    Mutant(
        "memmap-header-miscounts-regions", "src/chipkit/emit.py",
        "SOC_REGION_COUNT = {len(memmap.regions)};",
        "SOC_REGION_COUNT = {len(memmap.regions) + 1};",
        (_MEMMAP_LAW,)),
    Mutant(
        "map-takes-colliding-macro-names", "src/chipkit/memmap.py",
        "            if stem in stems:\n",
        "            if False:\n",
        (_MEMMAP_LAW,)),
)

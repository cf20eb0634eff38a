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
_WRITER = "tests/test_cli.py::TestWriteOutputs::"
_EXIT = "tests/test_cli.py::TestExitCodes::test_exit_code_and_message"
_SETTINGS = "tests/test_cli.py::TestSettings::"
_ARGV = "tests/test_cli.py::TestArgv::"

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
    Mutant(
        "writer-skips-the-end-of-file-check", "src/chipkit/cli.py",
        "for data in _slices(text)) and not old.read(1)\n",
        "for data in _slices(text))\n",
        (_WRITER + "test_old_file_off_by_one_byte_is_rewritten[one-byte-more-utf8]",)),
    Mutant(
        "writer-compares-sizes-of-non-ascii-text", "src/chipkit/cli.py",
        "        if text.isascii() and os.fstat(old.fileno()).st_size != len(text):\n",
        "        if os.fstat(old.fileno()).st_size != len(text):\n",
        (_WRITER + "test_file_holding_the_bytes_is_left_alone[utf8]",
         _WRITER + "test_each_file_holds_its_texts_utf8_bytes")),
    Mutant(
        "pad-script-writes-cells-bare", "src/chipkit/emit.py",
        '        return cell if _PLAIN_RE.fullmatch(cell) else f"{{{cell}}}"\n',
        "        return cell\n",
        ("tests/test_emit.py::TestPadScript::test_cells_braced_unless_plain",
         "tests/test_readback.py::test_pad_script_runs_no_cell")),
    Mutant(
        "pad-file-takes-cells-braces-cannot-quote", "src/chipkit/emit.py",
        "            if bad := _UNQUOTABLE_RE.search(row[idx[col]]):\n",
        "            if bad := None:\n",
        (_EXIT + "[pad-cell-open-brace]", _EXIT + "[pad-cell-cr]")),
    Mutant(
        "block-name-matched-as-a-prefix", "src/chipkit/regdb.py",
        "        if not _IDENT_RE.fullmatch(self.block_name):\n",
        "        if not _IDENT_RE.match(self.block_name):\n",
        ("tests/test_construction_checks.py::test_invalid_value_cannot_be_built"
         "[emit-block-name-then-newline]",)),
    Mutant(
        "register-name-matched-as-a-prefix", "src/chipkit/regdb.py",
        "        if not _IDENT_RE.fullmatch(e.name):\n",
        "        if not _IDENT_RE.match(e.name):\n",
        ("tests/test_regdb.py::TestValidate::test_name_is_matched_whole",)),
    Mutant(
        "csr-region-checked-only-for-memmap", "src/chipkit/cli.py",
        '    if cfg.map_path or "memmap" in cfg.emit.targets:',
        '    if "memmap" in cfg.emit.targets:',
        ("tests/test_cli.py::TestGenerate::test_map_checked_for_every_target",)),
    Mutant(
        "subcommand-takes-every-setting-flag", "src/chipkit/cli.py",
        "    flags = {s.flag: s.parse for s in SETTINGS if command in s.commands.split()}\n",
        "    flags = {s.flag: s.parse for s in SETTINGS}\n",
        (_SETTINGS + "test_each_subcommand_offers_the_flags_it_reads",
         _EXIT + "[flag-of-another-command]", _ARGV + "test_reader_agrees_with_argparse")),
    Mutant(
        "rtl-takes-one-word", "src/chipkit/cli.py",
        "                   and (end == at or parse is _paths)):\n",
        "                   and end == at):\n",
        (_ARGV + "test_rtl_takes_every_word_up_to_the_next_flag",
         _ARGV + "test_reader_agrees_with_argparse")),
    Mutant(
        "flag-value-split-at-the-last-equals-sign", "src/chipkit/cli.py",
        '        flag, eq, value = word.partition("=")\n',
        '        flag, eq, value = word.rpartition("=") if "=" in word else word.partition("=")\n',
        (_ARGV + "test_value_keeps_every_equals_sign_after_the_first",
         _ARGV + "test_reader_agrees_with_argparse")),
    Mutant(
        "database-takes-a-lone-cr", "src/chipkit/regdb.py",
        '        if "\\r" in cell:\n',
        "        if False:\n",
        (_EXIT + "[update-cr-in-description]", _EXIT + "[generate-cr-in-extra-cell]")),
)

"""chipkit: register-map toolchain driver.

Usage: chipkit [--config FILE] COMMAND [ARG...]

Subcommands:
  update    scan RTL for register/diagnostic candidates and merge the database
  generate  render all configured artifacts from the database
  lint      style-check RTL sources
  sim       serve the host protocol against the modeled SoC
  run-test  execute a test script against the modeled SoC

Settings come from an INI-style file (--config flag or CHIPKIT_CONFIG environment
variable) and from flags, which override it. SETTINGS holds each one's flag, INI
key, ProjectConfig field, shared parser and the subcommands that offer the flag.

_read_argv reads argv from SETTINGS and _COMMANDS alone, without argparse,
whose import and parsers cost each start about 4 ms. A subcommand takes the
flags of the settings it reads, run-test a required --script too and lint
path operands; a value follows its flag as the next word or after '=', --rtl
takes every word up to the next flag, and the last of a repeated flag wins.
-h or --help prints a usage built from the same tables. A usage error is an
InputError, so it prints one error line and exits 2.

Exit codes: 0 success, 1 check failures, 2 I/O or parse errors (InputError),
3 data/validation errors (DataError).
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
import tempfile
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import NamedTuple

from . import ChipkitError, DataError, InputError, Record, regdb
from .memmap import MemoryMap, load_memory_map
from .regdb import EmitConfig, NamingConvention

# sv_scan and emit load only in the subcommands that scan or render, busmodel
# and uart_host only in those that build the model, and script only with
# emit or the model

CONFIG_ENV = "CHIPKIT_CONFIG"

EXIT_OK = 0
EXIT_CHECK = 1


class ProjectConfig(Record):
    """The settings in effect; _apply sets them from the config file and the flags."""

    __slots__ = ("rtl_paths", "db_path", "out_dir", "map_path", "pads_path", "naming", "emit",
                 "sram_mode", "sram_seed", "listen_port", "fault", "stop_on_fail", "prompt")

    def __init__(self):
        self.rtl_paths: list = []
        self.db_path = "regs.csv"
        self.out_dir = "gen"
        self.map_path: str | None = None
        self.pads_path: str | None = None
        self.naming = NamingConvention()
        self.emit = EmitConfig()
        self.sram_mode = "strict_x"  # busmodel.SRAM_STRICT_X
        self.sram_seed = 0
        self.listen_port: int | None = None
        self.fault: busmodel.FaultConfig | None = None
        self.stop_on_fail = False
        self.prompt = False


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise InputError(f"bad {what} value {text!r}") from None


def _text(text: str, root: Path | None) -> str:
    return text


def _path(text: str, root: Path | None) -> str:
    # root: the config file's directory for an INI value, None for a flag
    return str(root / text) if root else text


def _paths(words: list, root: Path | None) -> list:
    return [_path(w, root) for w in words]


def _int(what: str) -> Callable:
    return lambda text, root: _parse_int(text, what)


def _targets(text: str, root: Path | None) -> tuple:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _port(text: str, root: Path | None) -> int | None:
    return _parse_int(text, "listen port") if text else None  # blank: no TCP


def _sram_mode(text: str, root: Path | None) -> tuple[str, int]:
    mode, colon, seed = text.partition(":")
    if mode == "random":  # busmodel.SRAM_RANDOM
        return mode, _parse_int(seed, "sram seed") if colon else 0
    if text == "strict_x":  # busmodel.SRAM_STRICT_X
        return text, 0
    raise InputError(f"bad sram mode {text!r} (strict_x or random:<seed>)")


def _fault(text: str, root: Path | None) -> busmodel.FaultConfig:
    from .busmodel import FAULT_ADDRESS_BIT, FAULT_DATA_BIT, FaultConfig
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in (FAULT_ADDRESS_BIT, FAULT_DATA_BIT):
        raise InputError(
            f"bad fault spec {text!r} (mask_address_bit:<bit>:<region> "
            f"or mask_data_bit:<bit>:<region>)")
    return FaultConfig(kind=parts[0], bit=_parse_int(parts[1], "fault bit"),
                       target_region=parts[2])


class Setting(NamedTuple):
    flag: str
    ini: tuple[str, str] | None  # (section, key) in the config file
    field: str  # ProjectConfig field; "naming.x"/"emit.x" are nested, "x y" takes a pair
    parse: Callable | None  # (text, root) -> value; None for a switch
    commands: str  # the subcommands that read it


SETTINGS = (
    Setting("--rtl", ("project", "rtl"), "rtl_paths", _paths, "update"),
    Setting("--db", ("project", "db"), "db_path", _path, "update generate sim run-test"),
    Setting("--out", ("project", "out"), "out_dir", _path, "generate"),
    Setting("--map", ("project", "map"), "map_path", _path, "generate sim run-test"),
    Setting("--pads", ("project", "pads"), "pads_path", _path, "generate"),
    Setting("--control-prefix", ("naming", "control_prefix"), "naming.control_prefix", _text, "update"),
    Setting("--status-prefix", ("naming", "status_prefix"), "naming.status_prefix", _text, "update"),
    Setting("--diag-prefix", ("naming", "diag_prefix"), "naming.diag_prefix", _text, "update"),
    Setting("--match-mode", ("naming", "match_mode"), "naming.match_mode", _text, "update"),
    Setting("--block", ("emit", "block_name"), "emit.block_name", _text, "update generate"),
    Setting("--base", ("emit", "base_address"), "emit.base_address", _int("base address"),
            "generate"),
    Setting("--region-size", ("emit", "region_size_bytes"), "emit.csr_region_size_bytes",
            _int("region size"), "update generate"),
    Setting("--targets", ("emit", "targets"), "emit.targets", _targets, "update generate"),
    Setting("--unmapped-value", ("emit", "unmapped_value"), "emit.unmapped_value",
            _int("unmapped"), "generate sim run-test"),
    Setting("--diag-pins", ("emit", "diag_pins"), "emit.diag_pins", _int("diag pins"),
            "update generate"),
    Setting("--sram-mode", ("sim", "sram_mode"), "sram_mode sram_seed", _sram_mode,
            "sim run-test"),
    Setting("--listen", ("sim", "listen_port"), "listen_port", _port, "sim"),
    Setting("--fault", None, "fault", _fault, "sim run-test"),
    Setting("--stop-on-fail", None, "stop_on_fail", None, "run-test"),
    Setting("--prompt", None, "prompt", None, "sim"),
)


def _apply(cfg: ProjectConfig, values: dict) -> ProjectConfig:
    """Sets values on cfg; one rebuild per nested group checks its changes together."""
    nested: dict[str, dict] = {}
    for name, value in values.items():
        group, _, attr = name.rpartition(".")
        if group:
            nested.setdefault(group, {})[attr] = value
        elif " " in name:  # one text, several fields: the sram mode and its seed
            for attr, part in zip(name.split(), value):
                setattr(cfg, attr, part)
        else:
            setattr(cfg, name, value)
    for group, changes in nested.items():
        setattr(cfg, group, getattr(cfg, group)._replace(**changes))
    return cfg


def _ini_values(path: str) -> dict:
    """The parsed value of each setting the config file sets, by field."""
    import configparser  # imported here: a run given only flags reads no config file
    ini = configparser.ConfigParser()
    try:
        ini.read_string(Path(path).read_text(encoding="utf-8"), source=path)
        texts = {s: ini.get(*s.ini) for s in SETTINGS if s.ini and ini.has_option(*s.ini)}
    except configparser.Error as exc:
        raise InputError(" ".join(str(exc).split())) from None
    root = Path(path).resolve().parent
    return {s.field: s.parse(text.split() if s.parse is _paths else text, root)
            for s, text in texts.items()}


# ---------------------------------------------------------------------------
# scanning

def _rtl_files(paths: list) -> list[Path]:
    """Every RTL file under paths, each once by real path, in first-seen order.

    A file argument is taken as it is. A directory is walked for files whose
    suffix is .sv or .svh, hidden ones too, through links to files but not into
    linked directories, in the order of their path parts; a directory that
    cannot be read is skipped. Only the arguments and linked entries are
    resolved: every other entry's real path is its directory's plus its name.
    """
    files: dict[str, Path] = {}
    for p in paths:
        path = Path(p)
        if path.is_dir():
            top, real_top = str(path), os.path.realpath(path)
            found = []  # (path parts, path, real path or None)
            for folder, _, names in os.walk(top):
                real_folder = real_top + folder[len(top):]  # walk enters no link
                for name in names:
                    dot, file = name.rfind("."), os.path.join(folder, name)
                    # os.path.isfile drops dangling links, link loops and non-regular files
                    if dot > 0 and name[dot:] in (".sv", ".svh") and os.path.isfile(file):
                        found.append((file.split(os.sep), file, None if os.path.islink(file)
                                      else os.path.join(real_folder, name)))
            found.sort()
        elif path.exists():
            found = [([], str(path), None)]
        else:
            raise InputError(f"no such file or directory: {p}")
        for _, file, real in found:
            files.setdefault(os.path.realpath(file) if real is None else real, Path(file))
    return list(files.values())


def _scan_modules(cfg: ProjectConfig, diagnostics: list) -> Iterator[sv_scan.ModuleDecl]:
    """Parse every RTL file, yielding its modules before the next file is
    parsed, so a caller's per-module diagnostics follow that file's own."""
    from . import sv_scan
    if not cfg.rtl_paths:
        raise InputError("no RTL paths given (set [project] rtl or pass --rtl)")
    scanned: set[str] = set()
    for path in _rtl_files(cfg.rtl_paths):
        for module in sv_scan.parse_modules(sv_scan.SourceFile.from_path(path), diagnostics):
            if module.name in scanned:
                raise InputError(f"module {module.name} declared in more than one file")
            scanned.add(module.name)
            yield module


_SLICE = 1 << 16  # characters encoded at a time


def _slices(text: str) -> Iterator[bytes]:
    """text's UTF-8 bytes, encoded _SLICE characters at a time."""
    return (text[at:at + _SLICE].encode("utf-8") for at in range(0, len(text), _SLICE))


def _holds(path: Path, text: str) -> bool:
    """Whether path holds text's UTF-8 bytes: the sizes are compared first
    when text is ASCII (its byte length is then len(text)), then the bytes
    one slice at a time, then the file must end there."""
    with contextlib.suppress(OSError), open(path, "rb") as old:
        if text.isascii() and os.fstat(old.fileno()).st_size != len(text):
            return False
        return all(old.read(len(data)) == data for data in _slices(text)) and not old.read(1)
    return False


def _write_outputs(folder: Path, batches: Iterable[dict[str, str]]) -> dict[str, bool]:
    """Writes each {file name: text} batch into folder; returns {file name: changed}.

    Each text is encoded to UTF-8 one slice of _SLICE characters at a time,
    so no text is also held as bytes: a file that already holds those bytes is
    left alone, and any other is staged from the same slices. Each batch is
    staged in temp files (.<name>.*) before the next is made, and none
    replaces its file until all are; folder's missing directories are made
    only when something is staged. On any failure the temp files and those
    directories are removed.
    """
    os.umask(umask := os.umask(0o077))  # reads the umask, which os.umask only swaps
    made: list[Path] = []  # the directories made here, outermost first
    staged: dict[str, str | None] = {}  # file name -> temp file, None if unchanged
    try:
        for batch in batches:
            for name in batch:
                path = folder / name
                if _holds(path, batch[name]):
                    staged[name] = None
                    continue
                if not folder.exists():
                    for parent in reversed((folder, *folder.parents)):
                        if not parent.exists():
                            parent.mkdir()
                            made.append(parent)
                # the mode open() would give: the file's own, or 0666 less the
                # umask for a new one, so the replace is the whole write
                mode = path.stat().st_mode & 0o7777 if path.exists() else 0o666 & ~umask
                fd, staged[name] = tempfile.mkstemp(dir=folder, prefix=f".{name}.")
                with os.fdopen(fd, "wb") as handle:
                    handle.writelines(_slices(batch[name]))
                os.chmod(staged[name], mode)  # mkstemp made it 0600
            batch = None  # the next batch is made without these texts
        for name in sorted(staged):
            if staged[name] is not None:
                os.replace(staged[name], folder / name)
    except BaseException:
        # the temp files no replace took, then the directories made here if
        # they are empty; a failure to remove one never hides the first error
        for tmp in filter(None, staged.values()):
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        for parent in reversed(made):
            with contextlib.suppress(OSError):
                parent.rmdir()
        raise
    return {name: staged[name] is not None for name in staged}


# ---------------------------------------------------------------------------
# subcommands

def cmd_update(cfg: ProjectConfig) -> int:
    from . import sv_scan
    diagnostics: list[sv_scan.Diagnostic] = []
    candidates, taps, scanned_modules = [], [], set()
    for module in _scan_modules(cfg, diagnostics):
        scanned_modules.add(module.name)
        candidates.extend(sv_scan.extract_csr_candidates(module, cfg.naming, diagnostics))
        taps.extend(sv_scan.extract_diag_candidates(module, cfg.naming, diagnostics))
    for d in diagnostics:
        print(f"note: {d.path}:{d.line}: [{d.kind}] {d.message}", file=sys.stderr)

    db_file = Path(cfg.db_path)
    db = _read_db(_read_text(db_file))[0] if db_file.exists() else regdb.RegDb()
    new_db, report = regdb.update_db(db, candidates, scanned_modules, cfg.emit, taps)
    _check_db(new_db, cfg.db_path)  # what the other commands would reject is not written
    print(regdb.format_change_report(report))
    _write_outputs(db_file.parent, [{db_file.name: regdb.save_db(new_db)}])
    return EXIT_OK


def _read_text(path: Path) -> str:
    """path's UTF-8 text as written: universal newlines would turn a quoted CR into LF."""
    return path.read_bytes().decode("utf-8")


def _read_db(text: str) -> tuple[regdb.RegDb, int | None]:
    """The database in regs.csv text, and its db_hash if the one-pass reader
    took the text; load_db reads, unchecked, every text that reader declines."""
    loaded = regdb.load_canonical_db(text)
    return (regdb.load_db(text), None) if loaded is None else loaded


def _check_db(db: regdb.RegDb, path: str) -> None:
    """Prints each validate_db problem of db, the database of file path; raises if any."""
    problems = regdb.validate_db(db)
    for p in problems:
        print(f"error: {p.entry or path}: {p.message}", file=sys.stderr)
    if problems:
        raise DataError(f"database {path} failed validation")


def _load_db_checked(cfg: ProjectConfig) -> tuple[regdb.RegDb, int]:
    """The valid database in the database file, and its db_hash."""
    db, hash32 = _read_db(_read_text(Path(cfg.db_path)))
    if hash32 is None:
        _check_db(db, cfg.db_path)
        hash32 = regdb.db_hash(db)
    return db, hash32


def _load_map(cfg: ProjectConfig) -> MemoryMap:
    if not cfg.map_path:
        raise InputError("no memory map file given (set [project] map or pass --map)")
    return load_memory_map(Path(cfg.map_path).read_text(encoding="utf-8"))


def cmd_generate(cfg: ProjectConfig) -> int:
    from . import emit
    db, hash32 = _load_db_checked(cfg)
    memmap = None
    if cfg.map_path or "memmap" in cfg.emit.targets:  # every view's addresses are in the map
        memmap = _load_map(cfg)
        region = memmap.region_at(cfg.emit.base_address)
        if region is None or region.kind != "csr" or region.base != cfg.emit.base_address \
                or region.size_bytes != cfg.emit.csr_region_size_bytes:
            raise DataError(
                f"memory map has no csr region matching base {cfg.emit.base_address:#x} "
                f"size {cfg.emit.csr_region_size_bytes:#x}")
    pads = ()
    if "pads" in cfg.emit.targets and cfg.pads_path:
        pads = emit.load_pad_db(_read_text(Path(cfg.pads_path)))
    regs = emit.prepare(db, cfg.emit, hash32)  # shared by every group, changed by none

    # one render_targets call per output, except c and py, which one
    # emit_sw_views call renders together
    sw = tuple(t for t in cfg.emit.targets if t in ("c", "py"))
    groups = dict.fromkeys(sw if t in sw else (t,) for t in cfg.emit.targets)
    out_dir = Path(cfg.out_dir)
    changed = _write_outputs(out_dir, (
        emit.render_targets(regs._replace(cfg=cfg.emit._replace(targets=group)),
                            memmap=memmap, pads=pads) for group in groups))
    for name in sorted(changed):
        print(f"{'wrote' if changed[name] else 'unchanged'} {out_dir / name}")
    return EXIT_OK


def cmd_lint(cfg: ProjectConfig, paths: list) -> int:
    from . import sv_scan
    files = _rtl_files(paths or cfg.rtl_paths)
    if not files:
        raise InputError("no RTL files to lint")
    violations = []
    for path in files:
        violations.extend(sv_scan.lint(sv_scan.SourceFile.from_path(path)))
    if violations:
        print(sv_scan.format_lint_report(violations))
        return EXIT_CHECK
    return EXIT_OK


def _build_model(cfg: ProjectConfig) -> busmodel.SocModel:
    from . import busmodel
    memmap = _load_map(cfg)
    csr_regions = [r for r in memmap.regions if r.kind == "csr"]
    dbs = []
    if csr_regions:
        if len(csr_regions) > 1:
            raise DataError(
                "one database drives one csr region; map declares "
                + ", ".join(r.name for r in csr_regions))
        dbs = [(csr_regions[0].name, *_load_db_checked(cfg))]
    return busmodel.build_soc(memmap, dbs, sram_mode=cfg.sram_mode, seed=cfg.sram_seed,
                              fault=cfg.fault, unmapped_value=cfg.emit.unmapped_value)


def cmd_sim(cfg: ProjectConfig) -> int:
    from . import uart_host
    soc = _build_model(cfg)
    if cfg.listen_port is not None:
        listener = uart_host.open_listener(port=cfg.listen_port)
        print(f"listening on 127.0.0.1:{listener.getsockname()[1]}", flush=True)
        try:
            summary = uart_host.serve_tcp(soc, listener, prompt=cfg.prompt)
        finally:
            listener.close()
    else:
        summary = uart_host.serve(soc, sys.stdin.buffer, sys.stdout.buffer, prompt=cfg.prompt)
    stats = soc.stats
    print(f"session: {summary.lines} lines, {summary.responses} responses; "
          f"bus: {stats.reads} reads, {stats.writes} writes, {stats.errors} errors",
          file=sys.stderr)
    return EXIT_OK


def cmd_run_test(cfg: ProjectConfig, script_path: str) -> int:
    from . import uart_host
    from .script import load_script
    script = load_script(Path(script_path).read_text(encoding="utf-8"))
    soc = _build_model(cfg)
    report = uart_host.run_script(soc, script, stop_on_fail=cfg.stop_on_fail)
    print(uart_host.format_report(report))
    return EXIT_OK if report.ok else EXIT_CHECK


# ---------------------------------------------------------------------------
# argument reading

# subcommand -> (help, handler(cfg, flags, lint's paths))
_COMMANDS = {
    "update": ("scan RTL and merge the register database",
               lambda cfg, flags, paths: cmd_update(cfg)),
    "generate": ("render artifacts from the database", lambda cfg, flags, paths: cmd_generate(cfg)),
    "lint": ("style-check RTL sources", lambda cfg, flags, paths: cmd_lint(cfg, paths)),
    "sim": ("serve the host protocol against the model", lambda cfg, flags, paths: cmd_sim(cfg)),
    "run-test": ("run a test script against the model",
                 lambda cfg, flags, paths: cmd_run_test(cfg, flags["--script"])),
}


def _flags(command: str | None) -> dict:
    """The flags command takes (None: before the command), each with its
    setting's parse: None for a switch, _paths for one or more words."""
    if command is None:
        return {"--config": _path}
    flags = {s.flag: s.parse for s in SETTINGS if command in s.commands.split()}
    return {"--script": _path, **flags} if command == "run-test" else flags


def _is_flag(word: str, offered: dict) -> bool:
    """Whether word is a flag: it starts with '-' and is not '-', and it names
    a flag offered or -h, or is neither a negative number nor holds a space
    (the words that argparse took as values)."""
    if word[:1] != "-" or word == "-":
        return False
    name = word.partition("=")[0]
    if name in offered or name in ("-h", "--help"):
        return True
    whole, point, fraction = word[1:].partition(".")
    number = (whole.isdecimal() and not point
              or fraction.isdecimal() and (whole == "" or whole.isdecimal()))
    return not number and " " not in word


def _read_argv(argv: list) -> tuple[str | None, dict, list]:
    """Reads [--config FILE] COMMAND [ARG...]: the command, {flag: value} and
    lint's paths. A value is a word, --rtl's list of words, or True for a
    switch; a flag given twice keeps its last. After lint, every word after
    -- is a path. -h or --help ends the reading with {"--help": True}. A
    usage error is an InputError."""
    command, offered, flags, paths = None, _flags(None), {}, []
    at = 0
    while at < len(argv):
        word = argv[at]
        at += 1
        if word in ("-h", "--help"):
            return command, {"--help": True}, []
        if word == "--" and command == "lint":  # every later word is a path
            paths += argv[at:]
            break
        if not _is_flag(word, offered):
            if command is None:
                if word not in _COMMANDS:
                    raise InputError(f"unknown command {word!r} ({', '.join(_COMMANDS)})")
                command, offered = word, _flags(word)
            elif command == "lint":
                paths.append(word)
            else:
                raise InputError(f"{command} takes no operand {word!r}")
            continue
        flag, eq, value = word.partition("=")
        if flag not in offered:
            raise InputError(f"no flag {flag} " + (f"for {command}" if command
                                                    else "before the command"))
        parse = offered[flag]
        if parse is None:
            if eq:
                raise InputError(f"{flag} takes no value")
            value = True
        elif not eq:  # the next word, or for --rtl every word up to the next flag
            end = at
            while (end < len(argv) and not _is_flag(argv[end], offered)
                   and (end == at or parse is _paths)):
                end += 1
            if end == at:
                raise InputError(f"{flag} needs a value")
            value = argv[at:end] if parse is _paths else argv[at]
            at = end
        elif parse is _paths:
            value = [value]
        flags[flag] = value
    if command is None:
        raise InputError(f"no command given ({', '.join(_COMMANDS)})")
    if command == "run-test" and "--script" not in flags:
        raise InputError("run-test needs --script FILE")
    return command, flags, paths


def _usage(command: str | None) -> str:
    """The --help text: every command with its help, or command's flags,
    each setting's with the config key it overrides."""
    if command is None:
        return "\n".join([
            "usage: chipkit [--config FILE] COMMAND [ARG...]", "",
            "register-map generation and SoC validation toolkit", "",
            "commands:", *(f"  {name:<10}{text}" for name, (text, _) in _COMMANDS.items()), "",
            f"--config FILE: config file (default: ${CONFIG_ENV})",
            "chipkit COMMAND --help lists the command's flags"])
    keys = {s.flag: f"[{s.ini[0]}] {s.ini[1]}" if s.ini else "no config key" for s in SETTINGS}
    keys["--script"] = "test script file (required)"
    words = {None: "", _path: " PATH", _paths: " PATH..."}
    return "\n".join([
        f"usage: chipkit {command} " + ("[PATH...]" if command == "lint" else "[FLAG...]"),
        _COMMANDS[command][0], "", "flags:" if command != "lint" else "flags: none",
        *(f"  {flag + words.get(parse, ' VALUE'):<26}{keys[flag]}"
          for flag, parse in _flags(command).items())])


def main(argv=None) -> int:
    try:
        command, flags, paths = _read_argv(sys.argv[1:] if argv is None else argv)
        if "--help" in flags:
            print(_usage(command))
            return EXIT_OK
        path = flags.get("--config") or os.environ.get(CONFIG_ENV)
        # the flags override the file, and the settings in effect are checked
        cfg = _apply(ProjectConfig(), {
            **(_ini_values(path) if path else {}),
            **{s.field: s.parse(flags[s.flag], None) if s.parse else True
               for s in SETTINGS if s.flag in flags}})
        return _COMMANDS[command][1](cfg, flags, paths)
    except ChipkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return InputError.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code


def run() -> None:
    """The process entry: run main on sys.argv and exit with its code.

    The freeze moves every live object into the collector's permanent
    generation, so the interpreter's final collection skips them instead of
    tearing each module's cycles down; the operating system reclaims the memory
    anyway. The exit code, atexit handlers and the flush of stdout and stderr
    are unchanged, and an exception that escapes main exits unfrozen. main
    itself never freezes, so a library caller's garbage stays collectable.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

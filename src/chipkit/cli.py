"""chipkit: register-map toolchain driver.

Subcommands:
  update    scan RTL for register/diagnostic candidates and merge the database
  generate  render all configured artifacts from the database
  lint      style-check RTL sources
  sim       serve the host protocol against the modeled SoC
  run-test  execute a test script against the modeled SoC

Settings come from an INI-style file (--config flag or CHIPKIT_CONFIG environment
variable) and from flags, which override it. SETTINGS holds each one's flag, INI
key, ProjectConfig field, shared parser and the subcommands that offer the flag.

Exit codes: 0 success, 1 check failures, 2 I/O or parse errors (InputError),
3 data/validation errors (DataError).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
import tempfile
from collections.abc import Callable, Iterator
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
    Setting("--rtl", ("project", "rtl"), "rtl_paths", _paths, "update generate"),
    Setting("--db", ("project", "db"), "db_path", _path, "update generate sim run-test"),
    Setting("--out", ("project", "out"), "out_dir", _path, "generate"),
    Setting("--map", ("project", "map"), "map_path", _path, "generate sim run-test"),
    Setting("--pads", ("project", "pads"), "pads_path", _path, "generate"),
    Setting("--control-prefix", ("naming", "control_prefix"), "naming.control_prefix", _text,
            "update generate"),
    Setting("--status-prefix", ("naming", "status_prefix"), "naming.status_prefix", _text,
            "update generate"),
    Setting("--diag-prefix", ("naming", "diag_prefix"), "naming.diag_prefix", _text,
            "update generate"),
    Setting("--match-mode", ("naming", "match_mode"), "naming.match_mode", _text,
            "update generate"),
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


def _stage(path: Path, text: str) -> str:
    """Writes text to a new temp file beside path and returns the temp file's
    name. The temp file has path's mode, or for a new file 0666 less the umask,
    as open() gives, so an os.replace onto path is the whole write."""
    os.umask(umask := os.umask(0o077))  # reads the umask, which os.umask only swaps
    mode = path.stat().st_mode & 0o7777 if path.exists() else 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.chmod(tmp, mode)  # mkstemp made it 0600
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def _holds(path: Path, text: str) -> bool:
    """Whether path holds text's UTF-8 bytes; the sizes are compared first,
    then the bytes 64 KiB at a time."""
    data = text.encode("utf-8")
    with contextlib.suppress(OSError), open(path, "rb") as old:
        return os.fstat(old.fileno()).st_size == len(data) and all(
            old.read(1 << 16) == data[at:at + (1 << 16)] for at in range(0, len(data), 1 << 16))
    return False


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _stage(path, text)
    try:
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommands

def cmd_update(cfg: ProjectConfig) -> int:
    from . import sv_scan
    diagnostics: list[sv_scan.Diagnostic] = []
    candidates = []
    diag_candidates = []
    scanned_for_update: set[str] = set()
    for module in _scan_modules(cfg, diagnostics):
        scanned_for_update.add(module.name)
        candidates.extend(sv_scan.extract_csr_candidates(module, cfg.naming, diagnostics))
        diag_candidates.extend(sv_scan.extract_diag_candidates(module, cfg.naming, diagnostics))
    for d in diagnostics:
        print(f"note: {d.path}:{d.line}: [{d.kind}] {d.message}", file=sys.stderr)

    db_file = Path(cfg.db_path)
    old_text = db_file.read_text(encoding="utf-8") if db_file.exists() else None
    if old_text is None:
        db = regdb.RegDb()
    else:
        loaded = regdb.load_canonical_db(old_text)
        db = regdb.load_db(old_text) if loaded is None else loaded[0]

    diag_origin = f"{cfg.emit.block_name}_diag_mux"
    wants_diag = "diag" in cfg.emit.targets and diag_candidates
    if wants_diag:
        sel_width = max(1, regdb.diag_select_bits(len(diag_candidates)) * cfg.emit.diag_pins)
        if any(c.name == "cfg_diag_sel" for c in candidates):
            raise InputError("cfg_diag_sel is generated for the diagnostic mux; "
                            "rename the conflicting RTL port")
        candidates = candidates + [regdb.CsrCandidate(
            name="cfg_diag_sel", width_bits=sel_width, access=regdb.ACCESS_RW,
            origin_module=diag_origin)]
        scanned_for_update.add(diag_origin)
    elif any(e.origin_module == diag_origin for e in db.entries):
        # diag generation switched off: retire the stale select register
        scanned_for_update.add(diag_origin)

    new_db, report = regdb.update_db(db, candidates, scanned_modules=scanned_for_update,
                                     region_size_bytes=cfg.emit.csr_region_size_bytes)
    print(regdb.format_change_report(report))
    text = regdb.save_db(new_db)
    if text != old_text:
        _write_atomic(db_file, text)
    return EXIT_OK


def _load_db_checked(cfg: ProjectConfig) -> tuple[regdb.RegDb, int]:
    """The valid database in the database file, and its db_hash."""
    text = Path(cfg.db_path).read_text(encoding="utf-8")
    loaded = regdb.load_canonical_db(text)
    if loaded is not None:
        return loaded
    db = regdb.load_db(text)
    problems = regdb.validate_db(db)
    if problems:
        for p in problems:
            print(f"error: {p.entry or cfg.db_path}: {p.message}", file=sys.stderr)
        raise DataError(f"database {cfg.db_path} failed validation")
    return db, regdb.db_hash(db)


def _load_map(cfg: ProjectConfig) -> MemoryMap:
    if not cfg.map_path:
        raise InputError("no memory map file given (set [project] map or pass --map)")
    return load_memory_map(Path(cfg.map_path).read_text(encoding="utf-8"))


def cmd_generate(cfg: ProjectConfig) -> int:
    from . import emit, sv_scan
    db, hash32 = _load_db_checked(cfg)
    memmap = None
    if "memmap" in cfg.emit.targets:
        memmap = _load_map(cfg)
        region = memmap.region_at(cfg.emit.base_address)
        if region is None or region.kind != "csr" or region.base != cfg.emit.base_address \
                or region.size_bytes != cfg.emit.csr_region_size_bytes:
            raise DataError(
                f"memory map has no csr region matching base {cfg.emit.base_address:#x} "
                f"size {cfg.emit.csr_region_size_bytes:#x}")
    diags = None
    if "diag" in cfg.emit.targets:
        diags = [d for module in _scan_modules(cfg, [])
                 for d in sv_scan.extract_diag_candidates(module, cfg.naming)]
    pads = ()
    if "pads" in cfg.emit.targets and cfg.pads_path:
        pads = emit.load_pad_db(Path(cfg.pads_path).read_text(encoding="utf-8"))
    regs = emit.prepare(db, cfg.emit, hash32)  # shared by every group, changed by none

    # one render_targets call per output, except c and py, which one
    # emit_sw_views call renders together: each group's changed texts are
    # staged and dropped before the next renders, and none replaces its output
    # until every group has rendered, so a failure leaves the tree as it was
    sw = tuple(t for t in cfg.emit.targets if t in ("c", "py"))
    groups = dict.fromkeys(sw if t in sw else (t,) for t in cfg.emit.targets)
    out_dir = Path(cfg.out_dir)
    made: list[Path] = []  # the directories made here, outermost first
    staged: dict[str, str | None] = {}  # output name -> temp file, None if unchanged
    try:
        for folder in reversed((out_dir, *out_dir.parents)) if groups else ():
            if not folder.exists():
                folder.mkdir()
                made.append(folder)
        for group in groups:
            rendered = emit.render_targets(regs._replace(cfg=cfg.emit._replace(targets=group)),
                                           memmap=memmap, diags=diags, pads=pads)
            for name in rendered:
                staged[name] = None if _holds(out_dir / name, rendered[name]) \
                    else _stage(out_dir / name, rendered[name])
            del rendered  # the next group renders without these texts
        for name in sorted(staged):
            if staged[name] is not None:
                os.replace(staged[name], out_dir / name)
            print(f"{'unchanged' if staged[name] is None else 'wrote'} {out_dir / name}")
    except BaseException:
        # the temp files no replace took, then the directories made here if
        # they are empty; a failure to remove one never hides the first error
        for tmp in filter(None, staged.values()):
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        for folder in reversed(made):
            with contextlib.suppress(OSError):
                folder.rmdir()
        raise
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
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipkit", description="register-map generation and SoC validation toolkit")
    parser.add_argument("--config", help=f"config file (default: ${CONFIG_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, (text, _) in _COMMANDS.items()}
    commands["lint"].add_argument("paths", nargs="*", help="files or directories")
    commands["run-test"].add_argument("--script", required=True, help="test script file")
    for s in SETTINGS:
        options = ({"action": "store_const", "const": True} if s.parse is None
                   else {"nargs": "+"} if s.parse is _paths else {})
        for name in s.commands.split():
            commands[name].add_argument(s.flag, **options)
    return parser


# subcommand -> (help, handler(cfg, args))
_COMMANDS = {
    "update": ("scan RTL and merge the register database", lambda cfg, args: cmd_update(cfg)),
    "generate": ("render artifacts from the database", lambda cfg, args: cmd_generate(cfg)),
    "lint": ("style-check RTL sources", lambda cfg, args: cmd_lint(cfg, args.paths)),
    "sim": ("serve the host protocol against the model", lambda cfg, args: cmd_sim(cfg)),
    "run-test": ("run a test script against the model",
                 lambda cfg, args: cmd_run_test(cfg, args.script)),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        path = args.config or os.environ.get(CONFIG_ENV)
        flags = {s: getattr(args, s.flag[2:].replace("-", "_"), None) for s in SETTINGS}
        # the flags override the file, and the settings in effect are checked
        cfg = _apply(ProjectConfig(), {
            **(_ini_values(path) if path else {}),
            **{s.field: s.parse(raw, None) if s.parse else raw
               for s, raw in flags.items() if raw is not None}})
        return _COMMANDS[args.command][1](cfg, args)
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

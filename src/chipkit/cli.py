"""chipkit: register-map toolchain driver.

Subcommands:
  update    scan RTL for register/diagnostic candidates and merge the database
  generate  render all configured artifacts from the database
  lint      style-check RTL sources
  sim       serve the host protocol against the modeled SoC
  run-test  execute a test script against the modeled SoC

Configuration comes from an INI-style file (--config flag or CHIPKIT_CONFIG
environment variable); every value can be overridden by a flag.

Exit codes: 0 success, 1 check failures, 2 I/O or parse errors (InputError),
3 data/validation errors (DataError).
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import ChipkitError, DataError, InputError, busmodel, emit, regdb, sv_scan, uart_host
from .busmodel import FAULT_ADDRESS_BIT, FAULT_DATA_BIT, FaultConfig
from .emit import EmitConfig
from .memmap import MemoryMap, load_memory_map
from .script import load_script
from .sv_scan import NamingConvention, SourceFile

CONFIG_ENV = "CHIPKIT_CONFIG"

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_IO = 2
EXIT_DATA = 3


@dataclass
class ProjectConfig:
    rtl_paths: list = field(default_factory=list)
    db_path: str = "regs.csv"
    out_dir: str = "gen"
    map_path: str | None = None
    pads_path: str | None = None
    naming: NamingConvention = field(default_factory=NamingConvention)
    emit: EmitConfig = field(default_factory=EmitConfig)
    sram_mode: str = busmodel.SRAM_STRICT_X
    sram_seed: int = 0
    listen_port: int | None = None
    fault: FaultConfig | None = None
    stop_on_fail: bool = False
    prompt: bool = False


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise InputError(f"bad {what} value {text!r}") from None


def _parse_sram_mode(text: str) -> tuple[str, int]:
    if text == busmodel.SRAM_STRICT_X:
        return busmodel.SRAM_STRICT_X, 0
    if text.startswith("random:"):
        return busmodel.SRAM_RANDOM, _parse_int(text.split(":", 1)[1], "sram seed")
    if text == busmodel.SRAM_RANDOM:
        return busmodel.SRAM_RANDOM, 0
    raise InputError(f"bad sram mode {text!r} (strict_x or random:<seed>)")


def _parse_fault(text: str) -> FaultConfig:
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in (FAULT_ADDRESS_BIT, FAULT_DATA_BIT):
        raise InputError(
            f"bad fault spec {text!r} (mask_address_bit:<bit>:<region> "
            f"or mask_data_bit:<bit>:<region>)")
    return FaultConfig(kind=parts[0], bit=_parse_int(parts[1], "fault bit"),
                       target_region=parts[2])


def load_config_file(path: str) -> ProjectConfig:
    parser = configparser.ConfigParser()
    text = Path(path).read_text(encoding="utf-8")
    parser.read_string(text, source=path)
    cfg = ProjectConfig()

    base = Path(path).resolve().parent

    def resolve(p: str) -> str:
        # paths in a checked-in config are relative to the config file
        return str(base / p) if not Path(p).is_absolute() else p

    proj = parser["project"] if parser.has_section("project") else {}
    if "rtl" in proj:
        cfg.rtl_paths = [resolve(p) for p in proj["rtl"].split()]
    cfg.db_path = resolve(proj.get("db", cfg.db_path)) if "db" in proj else cfg.db_path
    cfg.out_dir = resolve(proj.get("out", cfg.out_dir)) if "out" in proj else cfg.out_dir
    if "map" in proj:
        cfg.map_path = resolve(proj["map"])
    if "pads" in proj:
        cfg.pads_path = resolve(proj["pads"])

    if parser.has_section("naming"):
        nam = parser["naming"]
        cfg.naming = NamingConvention(
            control_prefix=nam.get("control_prefix", "cfg_"),
            status_prefix=nam.get("status_prefix", "sts_"),
            diag_prefix=nam.get("diag_prefix", "diag_"),
            match_mode=nam.get("match_mode", "prefix"),
        )

    if parser.has_section("emit"):
        em = parser["emit"]
        cfg.emit = EmitConfig(
            block_name=em.get("block_name", cfg.emit.block_name),
            base_address=_parse_int(em.get("base_address", hex(cfg.emit.base_address)),
                                    "base_address"),
            csr_region_size_bytes=_parse_int(
                em.get("region_size_bytes", hex(cfg.emit.csr_region_size_bytes)),
                "region_size_bytes"),
            targets=tuple(t.strip() for t in em.get("targets", ",".join(cfg.emit.targets))
                          .split(",") if t.strip()),
            unmapped_value=_parse_int(em.get("unmapped_value", hex(cfg.emit.unmapped_value)),
                                      "unmapped_value"),
            diag_pins=_parse_int(em.get("diag_pins", str(cfg.emit.diag_pins)), "diag_pins"),
        )

    if parser.has_section("sim"):
        sim = parser["sim"]
        if "sram_mode" in sim:
            cfg.sram_mode, cfg.sram_seed = _parse_sram_mode(sim["sram_mode"])
        if sim.get("listen_port"):
            cfg.listen_port = _parse_int(sim["listen_port"], "listen_port")
    return cfg


def _config_from_args(args) -> ProjectConfig:
    path = args.config or os.environ.get(CONFIG_ENV)
    cfg = load_config_file(path) if path else ProjectConfig()

    if getattr(args, "rtl", None):
        cfg.rtl_paths = list(args.rtl)
    if getattr(args, "db", None):
        cfg.db_path = args.db
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "map", None):
        cfg.map_path = args.map
    if getattr(args, "pads", None):
        cfg.pads_path = args.pads

    naming_kwargs = {}
    for flag, fieldname in (("control_prefix", "control_prefix"),
                            ("status_prefix", "status_prefix"),
                            ("diag_prefix", "diag_prefix"),
                            ("match_mode", "match_mode")):
        value = getattr(args, flag, None)
        if value:
            naming_kwargs[fieldname] = value
    if naming_kwargs:
        cfg.naming = replace(cfg.naming, **naming_kwargs)

    emit_kwargs = {}
    if getattr(args, "block", None):
        emit_kwargs["block_name"] = args.block
    if getattr(args, "base", None) is not None:
        emit_kwargs["base_address"] = _parse_int(args.base, "base address")
    if getattr(args, "region_size", None) is not None:
        emit_kwargs["csr_region_size_bytes"] = _parse_int(args.region_size, "region size")
    if getattr(args, "targets", None):
        emit_kwargs["targets"] = tuple(t.strip() for t in args.targets.split(",") if t.strip())
    if getattr(args, "unmapped_value", None) is not None:
        emit_kwargs["unmapped_value"] = _parse_int(args.unmapped_value, "unmapped value")
    if getattr(args, "diag_pins", None) is not None:
        emit_kwargs["diag_pins"] = args.diag_pins
    if emit_kwargs:
        cfg.emit = replace(cfg.emit, **emit_kwargs)

    if getattr(args, "sram_mode", None):
        cfg.sram_mode, cfg.sram_seed = _parse_sram_mode(args.sram_mode)
    if getattr(args, "listen", None) is not None:
        cfg.listen_port = args.listen
    if getattr(args, "fault", None):
        cfg.fault = _parse_fault(args.fault)
    if getattr(args, "stop_on_fail", False):
        cfg.stop_on_fail = True
    if getattr(args, "prompt", False):
        cfg.prompt = True
    return cfg


# ---------------------------------------------------------------------------
# scanning

def _rtl_files(paths: list) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(q for q in path.rglob("*")
                                if q.suffix in (".sv", ".svh") and q.is_file()))
        elif path.exists():
            files.append(path)
        else:
            raise InputError(f"no such file or directory: {p}")
    return files


def _scan_modules(cfg: ProjectConfig, diagnostics: list) -> Iterator[sv_scan.ModuleDecl]:
    """Parse every RTL file, yielding its modules before the next file is
    parsed, so a caller's per-module diagnostics follow that file's own."""
    if not cfg.rtl_paths:
        raise InputError("no RTL paths given (set [project] rtl or pass --rtl)")
    scanned: set[str] = set()
    for path in _rtl_files(cfg.rtl_paths):
        for module in sv_scan.parse_modules(SourceFile.from_path(path), diagnostics):
            if module.name in scanned:
                raise InputError(f"module {module.name} declared in more than one file")
            scanned.add(module.name)
            yield module


def _diag_origin(cfg: ProjectConfig) -> str:
    return f"{cfg.emit.block_name}_diag_mux"


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommands

def cmd_update(cfg: ProjectConfig) -> int:
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
    db = regdb.load_db(db_file.read_text(encoding="utf-8")) if db_file.exists() else regdb.RegDb()

    diag_origin = _diag_origin(cfg)
    wants_diag = "diag" in cfg.emit.targets and diag_candidates
    if wants_diag:
        sel_width = max(1, emit.diag_select_bits(len(diag_candidates)) * cfg.emit.diag_pins)
        if any(c.name == "cfg_diag_sel" for c in candidates):
            raise InputError("cfg_diag_sel is generated for the diagnostic mux; "
                            "rename the conflicting RTL port")
        candidates = candidates + [sv_scan.CsrCandidate(
            name="cfg_diag_sel", width_bits=sel_width, access=sv_scan.ACCESS_RW,
            origin_module=diag_origin, source_line=0)]
        scanned_for_update.add(diag_origin)
    elif any(e.origin_module == diag_origin for e in db.entries):
        # diag generation switched off: retire the stale select register
        scanned_for_update.add(diag_origin)

    new_db, report = regdb.update_db(db, candidates, scanned_modules=scanned_for_update,
                                     region_size_bytes=cfg.emit.csr_region_size_bytes)
    print(regdb.format_change_report(report))
    text = regdb.save_db(new_db)
    if not db_file.exists() or db_file.read_text(encoding="utf-8") != text:
        _write_atomic(db_file, text)
    return EXIT_OK


def _load_db_checked(cfg: ProjectConfig) -> regdb.RegDb:
    db = regdb.load_db(Path(cfg.db_path).read_text(encoding="utf-8"))
    problems = regdb.validate_db(db)
    if problems:
        for p in problems:
            print(f"error: {p.entry or cfg.db_path}: {p.message}", file=sys.stderr)
        raise DataError(f"database {cfg.db_path} failed validation")
    return db


def _load_map(cfg: ProjectConfig) -> MemoryMap:
    if not cfg.map_path:
        raise InputError("no memory map file given (set [project] map or pass --map)")
    return load_memory_map(Path(cfg.map_path).read_text(encoding="utf-8")).check()


def _check_map_against_emit(memmap: MemoryMap, cfg: ProjectConfig) -> None:
    region = memmap.region_at(cfg.emit.base_address)
    if region is None or region.kind != "csr" or region.base != cfg.emit.base_address \
            or region.size_bytes != cfg.emit.csr_region_size_bytes:
        raise DataError(
            f"memory map has no csr region matching base {cfg.emit.base_address:#x} "
            f"size {cfg.emit.csr_region_size_bytes:#x}")


def cmd_generate(cfg: ProjectConfig) -> int:
    db = _load_db_checked(cfg)
    memmap = None
    if "memmap" in cfg.emit.targets:
        memmap = _load_map(cfg)
        _check_map_against_emit(memmap, cfg)
    diags = None
    if "diag" in cfg.emit.targets:
        diags = [d for module in _scan_modules(cfg, [])
                 for d in sv_scan.extract_diag_candidates(module, cfg.naming)]
    pads = None
    if "pads" in cfg.emit.targets and cfg.pads_path:
        pads = emit.load_pad_db(Path(cfg.pads_path).read_text(encoding="utf-8"))

    rendered = emit.render_targets(db, cfg.emit, memmap=memmap, diags=diags, pads=pads)
    out_dir = Path(cfg.out_dir)
    for name, text in sorted(rendered.items()):
        _write_atomic(out_dir / name, text)
        print(f"wrote {out_dir / name}")
    return EXIT_OK


def cmd_lint(cfg: ProjectConfig, paths: list) -> int:
    files = _rtl_files(paths or cfg.rtl_paths)
    if not files:
        raise InputError("no RTL files to lint")
    violations = []
    for path in files:
        violations.extend(sv_scan.lint(SourceFile.from_path(path)))
    if violations:
        print(sv_scan.format_lint_report(violations))
        return EXIT_CHECK
    return EXIT_OK


def _build_model(cfg: ProjectConfig) -> busmodel.SocModel:
    memmap = _load_map(cfg)
    csr_regions = [r for r in memmap.regions if r.kind == "csr"]
    dbs = []
    if csr_regions:
        if len(csr_regions) > 1:
            raise DataError(
                "one database drives one csr region; map declares "
                + ", ".join(r.name for r in csr_regions))
        dbs = [(csr_regions[0].name, _load_db_checked(cfg))]
    return busmodel.build_soc(memmap, dbs, sram_mode=cfg.sram_mode, seed=cfg.sram_seed,
                              fault=cfg.fault, unmapped_value=cfg.emit.unmapped_value)


def cmd_sim(cfg: ProjectConfig) -> int:
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

    def add_naming(p):
        p.add_argument("--control-prefix", dest="control_prefix")
        p.add_argument("--status-prefix", dest="status_prefix")
        p.add_argument("--diag-prefix", dest="diag_prefix")
        p.add_argument("--match-mode", dest="match_mode", choices=["prefix", "postfix"])

    def add_emit(p):
        p.add_argument("--block", help="generated block name")
        p.add_argument("--base", help="csr region base address")
        p.add_argument("--region-size", dest="region_size", help="csr region size in bytes")
        p.add_argument("--targets", help="comma-separated generation targets")
        p.add_argument("--unmapped-value", dest="unmapped_value")
        p.add_argument("--diag-pins", dest="diag_pins", type=int)

    up = sub.add_parser("update", help="scan RTL and merge the register database")
    up.add_argument("--rtl", nargs="+", help="RTL files or directories")
    up.add_argument("--db", help="register database CSV")
    add_naming(up)
    add_emit(up)

    gen = sub.add_parser("generate", help="render artifacts from the database")
    gen.add_argument("--db", help="register database CSV")
    gen.add_argument("--out", help="output directory")
    gen.add_argument("--map", help="memory map file (memmap target)")
    gen.add_argument("--rtl", nargs="+", help="RTL paths (diag target)")
    gen.add_argument("--pads", help="pad description CSV (pads target)")
    add_naming(gen)
    add_emit(gen)

    ln = sub.add_parser("lint", help="style-check RTL sources")
    ln.add_argument("paths", nargs="*", help="files or directories")

    sim = sub.add_parser("sim", help="serve the host protocol against the model")
    sim.add_argument("--map", help="memory map file")
    sim.add_argument("--db", help="register database CSV")
    sim.add_argument("--listen", type=int, help="serve on a local TCP port (0 = ephemeral)")
    sim.add_argument("--sram-mode", dest="sram_mode", help="strict_x or random:<seed>")
    sim.add_argument("--fault", help="mask_address_bit:<bit>:<region> or mask_data_bit:<bit>:<region>")
    sim.add_argument("--prompt", action="store_true", help="interactive prompt")
    add_emit(sim)

    run = sub.add_parser("run-test", help="run a test script against the model")
    run.add_argument("--script", required=True, help="test script file")
    run.add_argument("--map", help="memory map file")
    run.add_argument("--db", help="register database CSV")
    run.add_argument("--sram-mode", dest="sram_mode", help="strict_x or random:<seed>")
    run.add_argument("--fault", help="fault spec, as for sim")
    run.add_argument("--stop-on-fail", dest="stop_on_fail", action="store_true")
    add_emit(run)

    return parser


# subcommand -> handler(cfg, args)
_COMMANDS = {
    "update": lambda cfg, args: cmd_update(cfg),
    "generate": lambda cfg, args: cmd_generate(cfg),
    "lint": lambda cfg, args: cmd_lint(cfg, args.paths),
    "sim": lambda cfg, args: cmd_sim(cfg),
    "run-test": lambda cfg, args: cmd_run_test(cfg, args.script),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](_config_from_args(args), args)
    except ChipkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

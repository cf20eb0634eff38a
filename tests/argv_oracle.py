"""The reference for cli._read_argv: the argparse parser the CLI was built
on, as it was, driven by the same tables (cli.SETTINGS and cli._COMMANDS).

The reader differs on purpose where the law in tests/test_cli.py draws no
argv: it takes no abbreviated flag (argparse took --reg for --region-size),
and it reads '--' only after lint, where argparse also dropped a '--' given
as a flag's value."""

from __future__ import annotations

import argparse
import contextlib
import io

from chipkit import cli


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipkit", description="register-map generation and SoC validation toolkit")
    parser.add_argument("--config", help=f"config file (default: ${cli.CONFIG_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text)
                for name, (text, _) in cli._COMMANDS.items()}
    commands["lint"].add_argument("paths", nargs="*", help="files or directories")
    commands["run-test"].add_argument("--script", required=True, help="test script file")
    for s in cli.SETTINGS:
        options = ({"action": "store_const", "const": True} if s.parse is None
                   else {"nargs": "+"} if s.parse is cli._paths else {})
        for name in s.commands.split():
            commands[name].add_argument(s.flag, **options)
    return parser


_PARSER = build_parser()


def read_argv(argv: list) -> tuple | None:
    """(command, config file, {setting flag: value}, lint's paths, script)
    as argparse reads argv; None when it rejects argv."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = _PARSER.parse_args(argv)
    except SystemExit:
        return None
    settings = {s.flag: value for s in cli.SETTINGS
                if (value := getattr(args, s.flag[2:].replace("-", "_"), None)) is not None}
    return (args.command, args.config, settings, getattr(args, "paths", []),
            getattr(args, "script", None))

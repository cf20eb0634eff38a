"""pyproject.toml allows Python 3.10, whose re rejects possessive quantifiers
(*+, ++, ?+, {m,n}+) and atomic groups ((?>...)); 3.11 added both. Every
pattern in chipkit, compiled at module level or passed as a literal to an re
function, must parse without them."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import chipkit

try:
    from re import _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_parse

SRC = Path(chipkit.__file__).parent
_RE_FUNCTIONS = {"compile", "match", "fullmatch", "search", "sub", "subn", "split", "findall",
                 "finditer"}
_NEW_IN_3_11 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def _patterns():
    """(where, pattern text, flags) of every pattern in chipkit."""
    for info in pkgutil.iter_modules([str(SRC)]):
        module = importlib.import_module(f"chipkit.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                yield f"{info.name}.{name}", value.pattern, value.flags
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "re" \
                    and node.func.attr in _RE_FUNCTIONS and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                yield f"{path.name}:{node.lineno}", node.args[0].value, 0


def _opcodes(node):
    """The names of the opcodes in a parsed pattern, nested ones included."""
    if isinstance(node, sre_parse.SubPattern):
        for op, arg in node:
            yield str(op)
            yield from _opcodes(arg)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from _opcodes(item)


PATTERNS = list(_patterns())


def test_every_pattern_is_found():
    where = {w for w, _p, _f in PATTERNS}
    assert {"script._SCAN_RE", "script._CHECK_RE", "regdb._DB_ROW_RE", "uart_host._COMMAND_RE",
            "sv_scan._PORT_RE", "emit._NOT_ALNUM_RE"} <= where
    assert any(w.startswith("uart_host.py:") for w in where)  # a literal passed to re.split


@pytest.mark.parametrize("where, pattern, flags", PATTERNS, ids=[p[0] for p in PATTERNS])
def test_pattern_compiles_on_python_3_10(where, pattern, flags):
    used = set(_opcodes(sre_parse.parse(pattern, flags))) & _NEW_IN_3_11
    assert not used, f"{where} uses {', '.join(sorted(used))}, which Python 3.10 rejects"

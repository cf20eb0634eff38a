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


def _is_re_literal(node) -> bool:
    """Whether node is a call of an re function on a literal pattern."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "re" \
        and node.func.attr in _RE_FUNCTIONS and bool(node.args) \
        and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)


def _literals(node, scope: str = "", top: bool = True):
    """(scope, pattern text) of every literal passed to an re function below
    node. At module level the scope is the name it is assigned to; elsewhere
    it is the innermost function or class, dotted."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif top and isinstance(child, ast.Assign) and len(child.targets) == 1 \
                and isinstance(child.targets[0], ast.Name):
            inner = child.targets[0].id
        elif _is_re_literal(child):
            yield scope, child.args[0].value
        yield from _literals(child, inner, False)


# Literal cases were once named by source line, so an edit above a pattern
# renamed them. These keep those ids, bound to the literal's scope instead of
# its line; a literal not listed is named "file.py:scope".
_LINE_IDS = {
    "regdb.py:_IDENT_RE": "regdb.py:43",
    "regdb.py:_DB_ROW_RE": "regdb.py:278",
    "sv_scan.py:_MODULE_KW_RE": "sv_scan.py:121",
    "sv_scan.py:_WORD_START_RE": "sv_scan.py:122",
    "sv_scan.py:_LITERAL_RANGE_RE": "sv_scan.py:131",
    "sv_scan.py:_PAREN_RE": "sv_scan.py:144",
    "sv_scan.py:_BRACKET_OR_COMMA_RE": "sv_scan.py:145",
    "sv_scan.py:_KEYWORD_RE": "sv_scan.py:431",
    "sv_scan.py:_IDENT_BEFORE_REVERSED_RE": "sv_scan.py:432",
    "sv_scan.py:_INST_OPEN_RE": "sv_scan.py:439",
    "sv_scan.py:_INST_HEAD_REVERSED_RE": "sv_scan.py:440",
    "uart_host.py:_HEX_RE": "uart_host.py:41",
    "uart_host.py:_offending_token": "uart_host.py:58",
}


def _patterns():
    """(where, pattern text, flags) of every pattern in chipkit: each one
    compiled at module level, and each literal passed to an re function."""
    for info in pkgutil.iter_modules([str(SRC)]):
        module = importlib.import_module(f"chipkit.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                yield f"{info.name}.{name}", value.pattern, value.flags
        path = SRC / f"{info.name}.py"
        for scope, pattern in _literals(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{scope or '<module>'}"
            yield _LINE_IDS.get(where, where), pattern, 0


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
            "sv_scan._PORT_RE", "memmap._NOT_ALNUM_RE"} <= where
    assert "uart_host.py:58" in where  # a literal passed to re.split
    assert set(_LINE_IDS.values()) <= where  # no kept id names a literal that is gone
    assert len(where) == len(PATTERNS)  # no two cases share a name


@pytest.mark.parametrize("where, pattern, flags", PATTERNS, ids=[p[0] for p in PATTERNS])
def test_pattern_compiles_on_python_3_10(where, pattern, flags):
    used = set(_opcodes(sre_parse.parse(pattern, flags))) & _NEW_IN_3_11
    assert not used, f"{where} uses {', '.join(sorted(used))}, which Python 3.10 rejects"

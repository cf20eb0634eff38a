"""The traced benchmark (``bench/run.py --trace 1``) wraps chipkit's layer
functions by name, on their defining module and on the modules that bound
them with ``from ... import``; a rename or a dropped import breaks it."""

import ast
import importlib
from pathlib import Path

import pytest

from chipkit import busmodel, cli, memmap, regdb, script

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layer_functions():
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "LAYER_FUNCTIONS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {SPANS}")


@pytest.mark.parametrize("name", _layer_functions())
def test_layer_function_resolves(name):
    module, *path = name.split(".")
    owner = importlib.import_module(f"chipkit.{module}")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner)


class _Called(Exception):
    pass


def test_by_name_aliases_are_the_layer_functions(tmp_path, monkeypatch):
    assert busmodel.db_hash is regdb.db_hash
    assert cli.load_memory_map is memmap.load_memory_map
    # run-test imports load_script when it runs, so it calls a wrap of it
    def wrapped(text):
        raise _Called

    (tmp_path / "empty.txt").write_text("")
    monkeypatch.setattr(script, "load_script", wrapped)
    with pytest.raises(_Called):
        cli.cmd_run_test(cli.ProjectConfig(), str(tmp_path / "empty.txt"))

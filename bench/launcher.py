"""Run one chipkit command with its layers traced, from outside the program.

Usage: python3 launcher.py SPANS_FILE CHIPKIT_ARG...

Imports chipkit.cli, wraps the public functions of each layer on the module
that defines them and on every module that imported them by name, then runs
``cli.main`` with the remaining arguments. Each call becomes a span (id,
parent, name, start, end, value) kept in memory; the spans are written to
SPANS_FILE when the command ends. No chipkit file is changed.
"""

from __future__ import annotations

import sys
import time
from array import array

import spans

_parent = array("q")
_name = array("q")
_start = array("q")
_end = array("q")
_value = array("q")
_stack = [-1]


def _traced(index: int, fn, value_of=None):
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        sid = len(_name)
        _parent.append(_stack[-1])
        _name.append(index)
        _end.append(0)
        _value.append(0)
        _stack.append(sid)
        _start.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            _end[sid] = clock()
            _stack.pop()
        if value_of is not None:
            _value[sid] = value_of(args, result)
        return result

    return wrapper


def _install(cli) -> None:
    from chipkit import busmodel, emit, memmap, regdb, script, sv_scan, uart_host

    def text_len(args, result):
        return len(args[0])

    def source_len(args, result):
        return len(args[0].content)

    def is_error(args, result):
        return int(isinstance(result, busmodel.BusError))

    def rendered_len(args, result):
        return sum(len(text) for text in result.values())

    value_of = {
        "sv_scan.parse_modules": source_len,
        "sv_scan.lint": source_len,
        "script.load_script": text_len,
        "emit.render_targets": rendered_len,
        "busmodel.bus_read": is_error,
        "busmodel.bus_write": is_error,
    }
    owners = {"sv_scan": sv_scan, "regdb": regdb, "emit": emit, "script": script,
              "memmap": memmap, "busmodel": busmodel, "uart_host": uart_host, "cli": cli}
    # modules that bound a layer function by name with ``from ... import``
    aliases = {
        "regdb.db_hash": [busmodel],
        "script.save_script": [emit],
        "script.load_script": [cli],
        "memmap.load_memory_map": [cli],
    }
    for index, name in enumerate(spans.LAYER_FUNCTIONS):
        owner_name, *path = name.split(".")
        owner = owners[owner_name]
        for part in path[:-1]:  # a method: wrap it on its class
            owner = getattr(owner, part)
        wrapped = _traced(index, getattr(owner, path[-1]), value_of.get(name))
        setattr(owner, path[-1], wrapped)
        for module in aliases.get(name, ()):
            setattr(module, path[-1], wrapped)


def main(argv: list[str]) -> int:
    out_path, chipkit_args = argv[0], argv[1:]
    t0 = time.perf_counter_ns()
    from chipkit import cli
    import_ns = time.perf_counter_ns() - t0
    _install(cli)
    code = 1
    try:
        code = cli.main(chipkit_args)
    finally:
        sys.stdout.flush()
        spans.write(out_path, import_ns, _parent, _name, _start, _end, _value)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Span files written by the traced launcher, and the per-layer metrics made from them.

A span file is one JSON header line (layer names, import time, span count)
followed by five native-endian int64 arrays: parent span id (-1 for a root),
layer index, start ns, end ns and a per-layer value (input bytes, output
bytes or a bus error flag). A span's id is its position in the arrays.
"""

from __future__ import annotations

import json
import statistics
from array import array
from dataclasses import dataclass

# The public functions of each chipkit layer, as <module>.<name> or
# <module>.<class>.<method>; the launcher wraps exactly these.
LAYER_FUNCTIONS = (
    "cli.main",
    "sv_scan.mask_comments_and_strings",
    "sv_scan.parse_modules",
    "sv_scan.lint",
    "sv_scan.extract_csr_candidates",
    "sv_scan.extract_diag_candidates",
    "regdb.load_db",
    "regdb.update_db",
    "regdb.save_db",
    "regdb.validate_db",
    "regdb.db_hash",
    "emit.render_targets",
    "emit.emit_csr_rtl",
    "emit.emit_instantiation_template",
    "emit.emit_markdown",
    "emit.emit_sw_views",
    "emit.emit_selftest",
    "emit.emit_memmap_header",
    "emit.emit_diag_mux",
    "emit.emit_pad_script",
    "script.load_script",
    "script.save_script",
    "memmap.load_memory_map",
    "memmap.MemoryMap.region_at",
    "busmodel.build_soc",
    "busmodel.bus_read",
    "busmodel.bus_write",
    "busmodel.SramStore.fill_word",
    "busmodel.CsrBlock.read",
    "busmodel.CsrBlock.write",
    "uart_host.parse_command",
    "uart_host.execute",
    "uart_host.execute_line",
    "uart_host.run_script",
    "uart_host.serve_tcp",
)

_EMITTERS = ("emit_csr_rtl", "emit_instantiation_template", "emit_markdown", "emit_sw_views",
             "emit_selftest", "emit_memmap_header", "emit_diag_mux", "emit_pad_script")

# (metric, unit, better). Every value is per unit of work of the workload
# (regen: one edit cycle; bringup: one run-test; session: one session of a
# fixed number of lines), taken as the median over the traced units of a run.
#   <fn>.self_s       time in the function minus time in traced callees
#   <fn>.calls        calls
#   <fn>.ns_per_call  self time per call
#   <fn>.bytes_per_s  input bytes over time including callees
#   <fn>.errors       calls that returned a bus error
PER_LAYER = (
    [("sv_scan.mask_comments_and_strings.self_s", "s", "lower"),
     ("sv_scan.parse_modules.self_s", "s", "lower"),
     ("sv_scan.parse_modules.bytes_per_s", "B/s", "higher"),
     ("sv_scan.lint.self_s", "s", "lower"),
     ("sv_scan.lint.bytes_per_s", "B/s", "higher"),
     ("sv_scan.extract_csr_candidates.self_s", "s", "lower"),
     ("sv_scan.extract_diag_candidates.self_s", "s", "lower"),
     ("regdb.load_db.self_s", "s", "lower"),
     ("regdb.update_db.self_s", "s", "lower"),
     ("regdb.save_db.self_s", "s", "lower"),
     ("regdb.validate_db.self_s", "s", "lower"),
     ("regdb.db_hash.calls", "count", "lower"),
     ("regdb.db_hash.self_s", "s", "lower"),
     ("emit.render_targets.self_s", "s", "lower")]
    + [(f"emit.{name}.self_s", "s", "lower") for name in _EMITTERS]
    + [("emit.bytes_out", "B", "lower"),
       ("script.save_script.self_s", "s", "lower"),
       ("script.load_script.self_s", "s", "lower"),
       ("script.load_script.bytes_per_s", "B/s", "higher"),
       ("memmap.region_at.calls", "count", "lower"),
       ("memmap.region_at.ns_per_call", "ns", "lower"),
       ("busmodel.build_soc.self_s", "s", "lower"),
       ("busmodel.bus_read.calls", "count", "lower"),
       ("busmodel.bus_read.errors", "count", "lower"),
       ("busmodel.bus_read.ns_per_call", "ns", "lower"),
       ("busmodel.bus_write.calls", "count", "lower"),
       ("busmodel.bus_write.errors", "count", "lower"),
       ("busmodel.bus_write.ns_per_call", "ns", "lower"),
       ("busmodel.SramStore.fill_word.calls", "count", "lower"),
       ("busmodel.SramStore.fill_word.ns_per_call", "ns", "lower"),
       ("uart_host.parse_command.ns_per_call", "ns", "lower"),
       ("uart_host.execute.ns_per_call", "ns", "lower"),
       ("uart_host.run_script.self_s", "s", "lower"),
       ("uart_host.serve_tcp.self_s", "s", "lower"),
       ("uart_host.serve_tcp.overhead_us_per_line", "us", "lower"),
       ("cli.import_s", "s", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)

# metric names that leave out the class of a method
_FUNCTION_OF = {"memmap.region_at": "memmap.MemoryMap.region_at"}


def write(path, import_ns: int, parent, name, start, end, value) -> None:
    header = {"names": list(LAYER_FUNCTIONS), "import_ns": import_ns, "count": len(name)}
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n")
        for column in (parent, name, start, end, value):
            column.tofile(handle)


@dataclass
class Totals:
    calls: int = 0
    self_ns: int = 0
    incl_ns: int = 0
    value: int = 0


def read_totals(paths) -> tuple[dict[str, Totals], int]:
    """Per-layer totals over the span files of one unit of work, and the
    summed import time of chipkit in those processes."""
    totals = {fn: Totals() for fn in LAYER_FUNCTIONS}
    import_ns = 0
    for path in paths:
        if not path.exists():  # the process was killed before it wrote its spans
            continue
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            n = header["count"]
            columns = []
            for _ in range(5):
                column = array("q")
                column.fromfile(handle, n)
                columns.append(column)
        parent, name, start, end, value = columns
        import_ns += header["import_ns"]
        names = header["names"]
        child_ns = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child_ns[parent[i]] += end[i] - start[i]
        for i in range(n):
            t = totals[names[name[i]]]
            dur = end[i] - start[i]
            t.calls += 1
            t.incl_ns += dur
            t.self_ns += dur - child_ns[i]
            t.value += value[i]
    return totals, import_ns


def unit_metrics(totals: dict[str, Totals], import_ns: int) -> dict[str, float]:
    """The span-derived per-layer metrics of one unit of work."""
    out = {}
    for metric, _unit, _better in PER_LAYER:
        fn, kind = metric.rsplit(".", 1)
        t = totals.get(_FUNCTION_OF.get(fn, fn))
        if kind == "self_s":
            out[metric] = t.self_ns / 1e9
        elif kind == "calls":
            out[metric] = t.calls
        elif kind == "errors":
            out[metric] = t.value
        elif kind == "ns_per_call":
            out[metric] = t.self_ns / t.calls if t.calls else 0.0
        elif kind == "bytes_per_s":
            out[metric] = t.value * 1e9 / t.incl_ns if t.incl_ns else 0.0
    out["emit.bytes_out"] = totals["emit.render_targets"].value
    out["cli.import_s"] = import_ns / 1e9
    return out


def median_metrics(units: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over units; a metric no unit gave is 0."""
    return {metric: statistics.median(u[metric] for u in units) if units and metric in units[0]
            else 0.0 for metric, _unit, _better in PER_LAYER}

"""Metric definitions: end-to-end and per-layer, with what each should move.

The layers are ringwave's modules plus `startup` (interpreter start and
imports).  Per-layer metrics are named `<module>.<function>.<stat>` and
reported per op of the traced run.  Names, units and directions are
read from BENCHMARK.json; this module adds how each value is computed
and the end-to-end metric and workload it is expected to move, written
down before any optimisation is measured against it.
"""

from __future__ import annotations

import json
import os

LAYERS = ("startup", "cli", "constants", "geometry", "fields", "quadrature",
          "model", "renorm", "lorentz")


def units(root: str) -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, in BENCHMARK.json order."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


_STARTUP = ("op_p50_ms, ops_per_s; setup_s", "cli_cold; all")
_CLI = ("op_p50_ms", "cli_cold (tables/json), fields_csv (CSV)")
_ROWS = ("ops_per_s", "fields_csv")
_SWEEP = ("ops_per_s", "verify_sweep")
_SECTION = ("ops_per_s, op_p90_ms", "verify_sweep")
_CHAIN = ("op_p50_ms (tiny; fewer calls = duplicate work removed)",
          "cli_cold, verify_sweep")
_SHARE = ("none: shows which layer does the work", "each workload")
_TRACE = ("none: traced vs untraced rate is the tracing overhead", "each workload")

# What a per-layer metric should move, on which workload: looked up by
# the metric's longest dotted prefix listed here.
_MOVES = {
    "startup": _STARTUP,
    "cli": _CLI,
    "geometry": _ROWS,
    "fields": _ROWS,
    "fields.charge_density": _SWEEP,
    "fields.mass_density": _SWEEP,
    "quadrature": _SWEEP,
    "quadrature.section_measure": _SECTION,
    "lorentz": _SWEEP,
    "model": _CHAIN,
    "renorm": _CHAIN,
    "constants": _CHAIN,
    "trace": _TRACE,
}


def moves(name: str) -> tuple[str, str]:
    """(end-to-end metric, workload) that the per-layer metric should move."""
    if name.endswith(".share"):
        return _SHARE
    parts = name.split(".")
    for k in range(len(parts), 0, -1):
        hit = _MOVES.get(".".join(parts[:k]))
        if hit is not None:
            return hit
    raise KeyError(name)


# How a derived stat is read off a function's totals (calls, incl_ns, self_ns).
_STATS = {
    "calls": lambda t, n: t["calls"] / n,
    "us_per_call": lambda t, n: t["incl_ns"] / t["calls"] / 1e3 if t["calls"] else 0.0,
    "ms_per_call": lambda t, n: t["incl_ns"] / t["calls"] / 1e6 if t["calls"] else 0.0,
    "self_ms": lambda t, n: t["self_ns"] / n / 1e6,
}
_NONE = {"calls": 0, "incl_ns": 0, "self_ns": 0}


def layer_metrics(names, trace: dict, probes: dict) -> dict[str, float]:
    """The named per-layer values from a traced worker result and the probes."""
    summary, counts = trace["summary"], trace["counts"]
    n = counts["ops"]

    def totals(fn: str) -> dict:
        return summary.get(fn, _NONE)

    op_ns = totals("op")["incl_ns"]
    frenet = totals("geometry.frenet_at")["calls"]
    sections = totals("quadrature.section_measure")["calls"]
    special = {
        **probes,
        "cli.output_bytes": counts["output_bytes"] / n,
        "geometry.frenet_at.calls_per_row":
            frenet / counts["csv_rows"] if counts["csv_rows"] else 0.0,
        "quadrature.section_measure.calls_per_op":
            sections / counts["consistency_ops"] if counts["consistency_ops"] else 0.0,
        "quadrature.integrand_evals": trace["integrand_evals"] / n,
        "trace.untraced_ops_per_s": trace["untraced_ops_per_s"],
        "trace.traced_ops_per_s": trace["traced_ops_per_s"],
    }
    for layer in LAYERS:
        self_ns = sum(t["self_ns"] for name, t in summary.items()
                      if name.startswith(layer + "."))
        special[f"{layer}.share"] = 100.0 * self_ns / op_ns
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        else:
            fn, stat = name.rsplit(".", 1)
            out[name] = _STATS[stat](totals(fn), n)
    return out

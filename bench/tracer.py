"""In-memory span tracing of ringwave, installed from outside the package.

A span is (name, start_ns, end_ns, parent, op).  Spans are kept in flat
`array` columns so a traced run of ~10^5 kernel calls stays small, and
are written out in one piece, as JSON, when the run ends.  Self time of a span is
its duration minus the time its child spans cover; spans of one thread
nest strictly, so that is duration minus the sum of child durations.

Wrapping rebinds each traced function in *every* ringwave namespace that
holds it: `cli` and `quadrature` bind `from .fields import ...`, so
patching `ringwave.fields.field_at` alone would miss their calls.

All timestamps come from `time.perf_counter_ns`, which on Linux reads
CLOCK_MONOTONIC and is therefore comparable across processes; the
cli_cold worker relies on that to merge the spans of its traced
children into its own timeline.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter_ns

# module -> public functions wrapped in the traced run
TRACED = {
    "constants": ("codata_constants", "electron_scales"),
    "geometry": ("frenet_at", "ring_from_radius"),
    "fields": ("field_at", "sample_grid", "displacement_current",
               "charge_density", "mass_density", "twirled_field"),
    "quadrature": ("integrate_line", "section_measure", "total_charge",
                   "total_mass"),
    "model": ("semi_photon_model", "pair_threshold_photon",
              "invariant_constants", "magnetic_moment", "dispersion_omega",
              "uncertainty_min_length"),
    "renorm": ("vacuum_polarization",),
    "lorentz": ("boost_packet", "boost_plane_fields"),
    "cli": ("parse_args", "run"),
}

# Span names the benchmark itself records (not ringwave functions).
OP = "op"
STARTUP_INTERPRETER = "startup.interpreter"  # spawn -> first line of the child
STARTUP_IMPORT = "startup.import"            # `import ringwave.cli` in the child
STARTUP_TEARDOWN = "startup.teardown"        # main() returned -> child reaped

COLUMNS = ("name", "start_ns", "end_ns", "parent", "op")
_TYPECODES = {"name": "i", "start_ns": "q", "end_ns": "q", "parent": "i", "op": "i"}


class Tracer:
    """Span store plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {c: array(_TYPECODES[c]) for c in COLUMNS}
        self._stack: list[int] = []
        self.op = -1
        # computed, not observed: panels x nodes of every integrate_line call
        self.integrand_evals = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, start_ns: int | None = None) -> int:
        cols = self.cols
        idx = len(cols["name"])
        cols["name"].append(self.name_id(name))
        cols["start_ns"].append(perf_counter_ns() if start_ns is None else start_ns)
        cols["end_ns"].append(0)
        cols["parent"].append(self._stack[-1] if self._stack else -1)
        cols["op"].append(self.op)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end_ns: int | None = None) -> None:
        self.cols["end_ns"][idx] = perf_counter_ns() if end_ns is None else end_ns
        self._stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, parent: int) -> int:
        """Record a finished span under an explicit parent."""
        cols = self.cols
        idx = len(cols["name"])
        cols["name"].append(self.name_id(name))
        cols["start_ns"].append(start_ns)
        cols["end_ns"].append(end_ns)
        cols["parent"].append(parent)
        cols["op"].append(self.op)
        return idx

    def merge_child(self, child: dict, parent: int) -> None:
        """Append the spans a traced child process dumped, under `parent`."""
        base = len(self.cols["name"])
        ids = [self.name_id(n) for n in child["names"]]
        cols = self.cols
        for nid, s, e, p in zip(child["name"], child["start_ns"],
                                child["end_ns"], child["parent"]):
            cols["name"].append(ids[nid])
            cols["start_ns"].append(s)
            cols["end_ns"].append(e)
            cols["parent"].append(parent if p < 0 else base + p)
            cols["op"].append(self.op)
        self.integrand_evals += child["integrand_evals"]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        cols = self.cols
        c_name, c_start, c_end = cols["name"], cols["start_ns"], cols["end_ns"]
        c_parent, c_op = cols["parent"], cols["op"]
        stack = self._stack

        # open() and close() inlined: this runs on every per-point kernel call
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(c_name)
            c_name.append(nid)
            c_parent.append(stack[-1] if stack else -1)
            c_op.append(self.op)
            c_end.append(0)
            stack.append(idx)
            c_start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                c_end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def install(self):
        """Rebind every traced function in every ringwave namespace.

        Returns a function that puts the originals back.
        """
        modules = {m: importlib.import_module(f"ringwave.{m}") for m in TRACED}
        modules["__init__"] = importlib.import_module("ringwave")
        wrappers = {}
        for mod_name, funcs in TRACED.items():
            for fname in funcs:
                original = getattr(modules[mod_name], fname)
                wrapper = self.wrap(f"{mod_name}.{fname}", original)
                if fname == "integrate_line":
                    wrapper = self._count_evals(wrapper)
                wrappers[id(original)] = wrapper
        patched = []
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))

        def restore() -> None:
            for module, attr, value in patched:
                setattr(module, attr, value)

        return restore

    def _count_evals(self, traced):
        from ringwave.quadrature import RULE_MIDPOINT

        @functools.wraps(traced)
        def counted(f, a, b, spec):
            self.integrand_evals += spec.panels * (1 if spec.rule == RULE_MIDPOINT else 5)
            return traced(f, a, b, spec)

        return counted

    def to_dict(self) -> dict:
        """The span columns, `name` as indices into `names`."""
        out = {c: self.cols[c].tolist() for c in COLUMNS}
        out["names"] = self.names
        out["integrand_evals"] = self.integrand_evals
        return out


def self_times(tracer: Tracer) -> list[int]:
    """Per-span self time in ns: duration minus the child spans' durations."""
    cols = tracer.cols
    dur = [e - s for s, e in zip(cols["start_ns"], cols["end_ns"])]
    self_ns = list(dur)
    for i, p in enumerate(cols["parent"]):
        if p >= 0:
            self_ns[p] -= dur[i]
    return self_ns


def summarize(tracer: Tracer) -> dict:
    """Totals by span name: calls, inclusive ns, self ns."""
    cols = tracer.cols
    self_ns = self_times(tracer)
    stats = {name: [0, 0, 0] for name in tracer.names}
    for nid, s, e, sf in zip(cols["name"], cols["start_ns"], cols["end_ns"], self_ns):
        entry = stats[tracer.names[nid]]
        entry[0] += 1
        entry[1] += e - s
        entry[2] += sf
    return {name: {"calls": c, "incl_ns": i, "self_ns": sf}
            for name, (c, i, sf) in stats.items()}

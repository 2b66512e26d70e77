"""The process that runs one workload's ops; started by run.py.

Usage: python bench/worker.py '<json config>'   (cwd = checkout root)

Protocol on stdout: the line `ready` once set-up (imports and the
warm-up op) is done, then one JSON line with the results.  Everything
the ops print goes to a buffer or to their own pipes, never to this
process's stdout.

Phases: a timed phase of `seconds` of op time (trace 0), or an
untraced and a traced phase of `seconds / 2` each (trace 1).  Every
op's output is checked after the op, outside its timed interval, and
every op is run a second time, its output compared byte for byte with
the first run: untraced ops right away, traced ops once tracing is off.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from time import perf_counter_ns

import checks
import refspeed
import tracer as tr
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


class InProcess:
    """Ops are calls to ringwave.cli.main(argv) in this process."""

    REF_S = refspeed.KERNEL_REF_S

    def __init__(self, root: str) -> None:
        sys.path.insert(0, os.path.join(root, "src"))
        import ringwave.cli

        src = os.path.join(root, "src", "ringwave")
        if os.path.dirname(os.path.abspath(ringwave.cli.__file__)) != src:
            raise SystemExit(f"imported ringwave from {ringwave.cli.__file__}, not {src}")
        self.cli = ringwave.cli

    def reference(self) -> float:
        return refspeed.kernel()

    def run(self, argv: list[str], tracer: tr.Tracer | None = None):
        buf = io.StringIO()
        t0 = perf_counter_ns()
        span = tracer.open(tr.OP, t0) if tracer else None
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
        t1 = perf_counter_ns()
        if span is not None:
            tracer.close(span, t1)
        out = workloads.FIELDS_CSV if "--out" in argv else None
        if out is not None and code == 0:
            with open(out, encoding="utf-8", newline="") as fh:
                text = fh.read()
        else:
            text = buf.getvalue()
        return (t1 - t0) / 1e9, code, text

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Cold:
    """Ops are fresh `python -m ringwave.cli` subprocesses."""

    REF_S = refspeed.SPAWN_REF_S

    def __init__(self, root: str) -> None:
        self.root = root
        self.spans_path = os.path.join(root, workloads.OUT_DIR, f"child-{os.getpid()}.json")

    def reference(self) -> float:
        return refspeed.spawn(self.root)

    def run(self, argv: list[str], tracer: tr.Tracer | None = None):
        if tracer is None:
            cmd = [sys.executable, "-m", "ringwave.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "childtrace.py"),
                   self.spans_path, *argv]
        t0 = perf_counter_ns()
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, timeout=60)
        t1 = perf_counter_ns()
        if proc.stderr:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        if tracer is not None:
            self._merge(tracer, t0, t1)
        return (t1 - t0) / 1e9, proc.returncode, proc.stdout.decode()

    def _merge(self, tracer: tr.Tracer, t0: int, t1: int) -> None:
        op = tracer.add(tr.OP, t0, t1, -1)
        try:
            with open(self.spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
        except (OSError, ValueError):
            # the child died before dumping its spans; its exit code fails the op
            return
        os.remove(self.spans_path)
        tracer.add(tr.STARTUP_INTERPRETER, t0, child["t0_ns"], op)
        tracer.merge_child(child, op)
        tracer.add(tr.STARTUP_TEARDOWN, child["main_end_ns"], t1, op)

    def peak_rss_kib(self) -> int:
        # only op children (and the warm-up child) are ever waited for here
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def timed_phase(runner, stream, seconds: float, records: list, tracer=None) -> float:
    """Closed loop, one client: run ops until `seconds` of op time are measured.

    Returns the summed raw op latency.  Right before each op the runner's
    reference work is timed (refspeed), and the op's latency is also
    recorded scaled to the reference machine's speed.  After each op,
    outside its timed interval, its output is checked and, when
    untraced, the op is replayed at once.
    """
    busy = 0.0
    while busy < seconds:
        argv = next(stream)
        if tracer is not None:
            tracer.op = len(records)
        ref = runner.reference()
        latency, code, text = runner.run(argv, tracer)
        busy += latency
        rec = {
            "argv": argv,
            "latency_s": latency,
            "ref_s": ref,
            "scaled_s": latency * runner.REF_S / ref,
            "problems": checks.check(argv, code, text),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "bytes": len(text.encode()),
            "traced": tracer is not None,
        }
        records.append(rec)
        if tracer is None:
            replay(runner, [rec])
    return busy


def replay(runner, records: list) -> None:
    """Run each op again; its output must match the first run byte for byte."""
    for rec in records:
        _, code, text = runner.run(rec["argv"])
        if code != 0:
            rec["problems"].append(f"replay exit code {code}")
        elif hashlib.sha256(text.encode()).hexdigest() != rec["sha256"]:
            rec["problems"].append("replay output differs from the first run")


def trace_counts(records: list) -> dict:
    traced = [r for r in records if r["traced"]]
    return {
        "ops": len(traced),
        "csv_rows": sum(int(checks.option(r["argv"], "--samples", "256"))
                        for r in traced if r["argv"][0] == "fields"),
        "consistency_ops": sum(r["argv"][0] == "consistency" for r in traced),
        "output_bytes": sum(r["bytes"] for r in traced),
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    root = os.getcwd()
    workload = cfg["workload"]
    runner = (Cold if workload == "cli_cold" else InProcess)(root)
    for argv in workloads.WARMUP[workload]:
        _, code, text = runner.run(argv)
        warm_problems = checks.check(argv, code, text)
        if warm_problems:  # the timed ops will fail the same checks and be counted
            print(f"warm-up op failed: {warm_problems}", file=sys.stderr)
    print("ready", flush=True)
    if cfg["setup_only"]:
        return 0

    stream = workloads.ops(workload, cfg["seed"])
    records: list = []
    result: dict = {}
    if not cfg["trace"]:
        result["busy_s"] = timed_phase(runner, stream, cfg["seconds"], records)
        result["peak_rss_kib"] = runner.peak_rss_kib()
    else:
        half = cfg["seconds"] / 2.0
        timed_phase(runner, stream, half, records)
        result["untraced_ops_per_s"] = len(records) / sum(r["scaled_s"] for r in records)
        tracer = tr.Tracer()
        restore = tracer.install() if workload != "cli_cold" else None
        n_before = len(records)
        timed_phase(runner, stream, half, records, tracer)
        traced = records[n_before:]
        result["traced_ops_per_s"] = len(traced) / sum(r["scaled_s"] for r in traced)
        if restore is not None:
            restore()
        replay(runner, traced)
        with open(cfg["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)
        result["spans"] = {"path": cfg["spans_path"], "spans": len(tracer.cols["name"])}
        result["summary"] = tr.summarize(tracer)
        result["integrand_evals"] = tracer.integrand_evals
        result["counts"] = trace_counts(records)
    result["records"] = records
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

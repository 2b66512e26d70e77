"""ringwave benchmark: one workload, one seed, end-to-end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli_cold,fields_csv,verify_sweep}
                         --seed N --seconds S --trace {0,1}

--trace 0 prints the end-to-end metrics (ops_per_s, op_p50_ms,
op_p90_ms, setup_s, peak_rss_mib), with tracing off.  Times are scaled
to the reference machine's speed by a reference timing taken right
before each op and around each set-up (bench/refspeed.py); the raw
times are printed beside them.  --trace 1 prints the per-layer metrics
of a traced run, each with the end-to-end metric and workload it should
move.  The last stdout line is always one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A fuller record
(provenance, every op latency, every failed check) goes to
.bench_out/result-<workload>-s<seed>-t<trace>.json.

The package is run from ./src of the checkout; nothing is installed.
See bench/NOTES.md for why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

import layers
import refspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 7          # timed set-ups per run; setup_s is their median
PROBE_REPS = 9      # fresh interpreters per start-up probe (trace runs)
TAIL_SAMPLES = 10   # samples that must lie beyond the reported tail percentile

PROBES = {
    "startup.numpy_import_ms": "import numpy",
    "startup.ringwave_import_ms": "import ringwave.cli",
}
_PROBE_CODE = ("import time; t = time.perf_counter_ns(); {}; "
               "print(time.perf_counter_ns() - t)")


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 1


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(root: str, env: dict, cfg: dict):
    """Start a worker; return (process, seconds until it reported ready)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not become ready (got {line!r})")
    return proc, ready


def finish_worker(proc, timeout: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_probes(root: str, env: dict) -> dict[str, float]:
    """Fresh-interpreter start-up costs, medians over PROBE_REPS (ms)."""
    samples: dict[str, list[float]] = {"startup.interpreter_ms": []}
    samples.update({name: [] for name in PROBES})
    for _ in range(PROBE_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        samples["startup.interpreter_ms"].append((perf_counter() - t0) * 1e3)
        for name, stmt in PROBES.items():
            out = subprocess.run([sys.executable, "-c", _PROBE_CODE.format(stmt)],
                                 cwd=root, env=env, check=True,
                                 capture_output=True, text=True).stdout
            samples[name].append(int(out) / 1e6)
    return {name: statistics.median(v) for name, v in samples.items()}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): p90, or the highest percentile that still has
    TAIL_SAMPLES samples beyond it when there are fewer than 100 ops, but
    never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n // 2, min(math.ceil(0.9 * n) - 1, n - 1 - TAIL_SAMPLES))
    return 100.0 * (k + 1) / n, xs[k]


def git_commit(root: str) -> str | None:
    try:
        # the ceiling keeps git from looking above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: str, args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    with open(os.path.join(root, "src", "ringwave", "__init__.py"), encoding="utf-8") as fh:
        version = re.search(r'__version__ = "([^"]+)"', fh.read())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "ringwave": version.group(1) if version else None,
        "git_commit": git_commit(root),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ringwave", "cli.py")):
        return fail(f"no ringwave sources under {root}/src; run from a checkout root")
    e2e_units, layer_units = layers.units(root)
    os.makedirs(os.path.join(root, workloads.OUT_DIR), exist_ok=True)
    env = child_env(root)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "setup_only": False,
           "spans_path": os.path.join(root, workloads.OUT_DIR, f"spans-{tag}.json")}

    # timed ops, their replays and checks take about 2 x seconds
    timeout = 60.0 + 4.0 * args.seconds
    try:
        if args.trace:
            proc, _ = spawn_worker(root, env, cfg)
            res = finish_worker(proc, timeout)
            probes = run_probes(root, env)
        else:
            # each set-up is bracketed by two reference spawns
            setups = []  # (raw seconds, mean of the two reference seconds)
            ref = refspeed.spawn(root, env)
            for _ in range(SETUPS):
                proc, ready = spawn_worker(root, env, {**cfg, "setup_only": True})
                proc.communicate(timeout=timeout)
                if proc.returncode != 0:
                    raise RuntimeError(f"set-up worker exited with {proc.returncode}")
                ref_after = refspeed.spawn(root, env)
                setups.append((ready, (ref + ref_after) / 2.0))
                ref = ref_after
            proc, _ = spawn_worker(root, env, cfg)
            res = finish_worker(proc, timeout)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        return fail(str(exc))

    records = res["records"]
    attempted = len(records)
    failed_ops = [r for r in records if r["problems"]]
    prov = provenance(root, args)

    print(f"ringwave benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(prov))
    rows = []
    if args.trace:
        values = layers.layer_metrics(layer_units, res, probes)
        for name, value in values.items():
            moves, on = layers.moves(name)
            rows.append((name, value, layer_units[name], f"moves {moves} on {on}"))
    else:
        scaled = [r["scaled_s"] for r in records]
        raw = [r["latency_s"] for r in records]
        pct, p_tail = tail(scaled)
        raw_setups = [ready for ready, _ in setups]
        values = {
            "ops_per_s": attempted / sum(scaled),
            "op_p50_ms": statistics.median(scaled) * 1e3,
            "op_p90_ms": p_tail * 1e3,
            "setup_s": statistics.median(
                ready * refspeed.SPAWN_REF_S / ref for ready, ref in setups),
            "peak_rss_mib": res["peak_rss_kib"] / 1024.0,
        }
        notes = {
            "ops_per_s": f"{attempted} ops; raw {attempted / res['busy_s']:.4g} "
                         f"({res['busy_s']:.3f} s of op time)",
            "op_p50_ms": f"n={attempted}; raw {statistics.median(raw) * 1e3:.4g}",
            "op_p90_ms": f"p{pct:.1f} of n={attempted}; raw {tail(raw)[1] * 1e3:.4g}",
            "setup_s": f"median of {SETUPS}; raw " + ", ".join(f"{s:.3f}" for s in raw_setups),
            "peak_rss_mib": ("largest op child" if args.workload == "cli_cold"
                             else "the worker running the ops"),
        }
        rows = [(name, values[name], e2e_units[name], notes[name]) for name in e2e_units]
    rows.append(("fail_ratio", len(failed_ops) / attempted if attempted else 1.0,
                 "ratio", f"{len(failed_ops)} of {attempted} ops failed a check"))
    for name, value, unit, note in rows:
        print(f"  {name:<42} {value:>14.6g} {unit:<10} {note}")
    for rec in failed_ops[:5]:
        print(f"  FAILED {' '.join(rec['argv'])[:100]}: {'; '.join(rec['problems'])}")

    result = {
        "correct": attempted > 0 and not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, _, unit, _ in rows if name in values},
    }
    with open(os.path.join(root, workloads.OUT_DIR, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "provenance": prov,
                   "latencies_s": [r["latency_s"] for r in records],
                   "reference_s": [r["ref_s"] for r in records],
                   "failures": [{"argv": r["argv"][:8], "problems": r["problems"]}
                                for r in failed_ops],
                   "spans": res.get("spans"),
                   "notes": {name: note for name, _, _, note in rows}}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

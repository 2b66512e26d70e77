"""Reference timings that put op latencies on the reference machine's clock.

The shared 2-vCPU VMs this benchmark was built on change speed by up to
~1.5x for seconds to minutes at a time, for every process alike (see
NOTES.md, "Steadiness").  Raw wall times of a 15 s run then say more
about the machine's state during the run than about the program.  So
right before each op, and around each set-up, the benchmark times a
fixed piece of reference work that does not touch ringwave, and reports
the op's latency scaled by how fast the reference ran:

    scaled = raw * REF_S / reference_s

REF_S is the reference's median on the reference machine (2-vCPU
Intel Xeon VM, Python 3.11.7, numpy 2.4.6), so scaled times read as
that machine's times.  The reference is the kind of work the op does:

* `kernel()` for in-process ops: a Python loop of math calls and
  3-vectors in numpy, the same mix as ringwave's per-point kernels;
* `spawn()` for fresh processes (cli_cold ops, set-ups): one
  `python -c pass`, i.e. process spawn and interpreter start.

A change to ringwave cannot speed up or slow down either reference, so
a faster program still shows as a faster scaled time.  Raw times are
kept beside the scaled ones in every report.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter_ns

KERNEL_REF_S = 0.0118   # median of kernel() on the reference machine
SPAWN_REF_S = 0.050     # median of spawn() on the reference machine


def kernel() -> float:
    """Seconds taken by a fixed loop of math and small-numpy calls."""
    # numpy is loaded already in the processes that call this (they import
    # ringwave); importing it here keeps it out of the cli_cold worker
    import numpy as np

    tangent = np.array([0.0, 1.0, 0.0])
    t0 = perf_counter_ns()
    s = 0.0
    for i in range(400):
        x = 0.001 * i
        v = np.array([math.cos(x), math.sin(x), 0.25])
        w = np.cross(tangent, v)
        s += float(np.dot(w, w)) + math.sqrt(1.0 + x * x)
    return (perf_counter_ns() - t0) / 1e9


def spawn(cwd: str, env: dict | None = None) -> float:
    """Seconds from spawning `python -c pass` to reaping it."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env, check=True)
    return (perf_counter_ns() - t0) / 1e9

"""Seeded operation streams for the three workloads.

Each workload is an endless generator of CLI argument lists (the argv
after `ringwave`).  The seed draws every argument value and the order
of operations; the program only ever sees the generated argv.  The
streams are built in shuffled blocks with a fixed mix, so that a run's
median and tail do not depend on the seed.
"""

from __future__ import annotations

import random

# Relative to the checkout root, which is the working directory of every op.
OUT_DIR = ".bench_out"
FIELDS_CSV = f"{OUT_DIR}/fields.csv"

SUBCOMMANDS = ("constants", "photon", "semiphoton", "invariants", "fields",
               "consistency", "dispersion")
KINDS = ("photon", "semiplus", "semiminus")

# Warm-up ops per workload, run during set-up and never timed.  They
# take the code paths of the timed ops at the smallest size, so that
# setup_s is spawn, imports and first calls, not a repeat of an op.
WARMUP = {
    "cli_cold": [["constants"]],
    "fields_csv": [["fields", "--samples", "2", "--out", FIELDS_CSV]],
    "verify_sweep": [
        ["consistency", "--toroidal-jacobian", "--panels", "2", "--format", "json"],
        ["invariants", "--beta-grid=0.5", "--format", "json"],
    ],
}


def cli_cold(rng: random.Random):
    """Round-robin over all seven subcommands at light arguments.

    Every op is a fresh interpreter, so the start-up layer does almost
    all of the work.  Each round visits the subcommands once, in seeded
    order, with a seeded output format.
    """
    while True:
        for sub in rng.sample(SUBCOMMANDS, len(SUBCOMMANDS)):
            argv = [sub]
            if sub == "semiphoton":
                argv += ["--zeta", f"{rng.uniform(0.05, 1.0):.6f}"]
                if rng.random() < 0.5:
                    argv.append("--thomas")
            elif sub == "fields":
                argv += ["--kind", rng.choice(KINDS)]
            if sub != "fields":
                argv += ["--format", rng.choice(("table", "json"))]
            yield argv


def fields_csv(rng: random.Random):
    """CSV field sampling at ~2000 rows per op, written with --out.

    The per-row kernels (frenet_at, field_at, displacement_current) and
    17-digit formatting do the work.  Sample counts stay within +-5% so
    op latencies are comparable across seeds.
    """
    while True:
        argv = ["fields", "--kind", rng.choice(KINDS),
                "--samples", str(rng.randint(1900, 2100)), "--out", FIELDS_CSV]
        if rng.random() < 0.5:
            argv += ["--amplitude", f"{10.0 ** rng.uniform(-3.0, 3.0):.6g}"]
        yield argv


# Panel ranges are matched so that both rules cost the same within a
# group (+-5%, measured): on the flat measure a midpoint op needs ~5.3x
# the Gauss panels for the same time, with the Jacobian's nested
# integral ~9x.  Unequal costs would split the tail group in two, and
# the reported tail percentile (which depends on the op count) would
# jump between the halves.  Op costs below are on a 2-vCPU Xeon VM; at
# ~110 ms per op on average a 15 s run holds >= 100 ops, so the tail
# is a true p90.

def _flat_consistency(rng: random.Random) -> list[str]:
    # ~55 ms: cheaper than an invariants op
    if rng.random() < 0.5:
        return ["consistency", "--rule", "gauss_legendre_5",
                "--panels", str(rng.randint(250, 270)), "--format", "json"]
    return ["consistency", "--rule", "midpoint",
            "--panels", str(rng.randint(1320, 1430)), "--format", "json"]


def _jacobian_consistency(rng: random.Random) -> list[str]:
    # ~170 ms: dearer than an invariants op
    if rng.random() < 0.5:
        panels, rule = rng.randint(44, 46), "gauss_legendre_5"
    else:
        panels, rule = rng.randint(400, 420), "midpoint"
    return ["consistency", "--rule", rule, "--panels", str(panels),
            "--toroidal-jacobian", "--format", "json"]


def _invariants(rng: random.Random) -> list[str]:
    # ~100 ms
    betas = ",".join(f"{rng.uniform(-0.99, 0.99):.6f}" for _ in range(500))
    return ["invariants", f"--beta-grid={betas}", "--format", "json"]


def verify_sweep(rng: random.Random):
    """Verification commands: flat and Jacobian consistency, dense boosts.

    Blocks of three flat-measure consistency ops, three 500-beta
    invariants ops and three Jacobian consistency ops, shuffled.  The
    invariants ops have a fixed size and sit between the two consistency
    groups in cost, so the median op is an invariants op and the tail is
    a Jacobian op whatever the seed.
    """
    makers = [_flat_consistency] * 3 + [_invariants] * 3 + [_jacobian_consistency] * 3
    while True:
        rng.shuffle(makers)
        for make in makers:
            yield make(rng)


WORKLOADS = {
    "cli_cold": cli_cold,
    "fields_csv": fields_csv,
    "verify_sweep": verify_sweep,
}


def ops(workload: str, seed: int):
    return WORKLOADS[workload](random.Random(seed))

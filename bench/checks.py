"""Output checks for one ringwave CLI op.

`check(argv, code, text)` returns a list of problems; an empty list
means the op passed.  Tables carry 6 significant digits, so a value
read from a table is compared to the precision the table shows; JSON
and CSV values are compared at the stated tolerances.
"""

from __future__ import annotations

import json
import math

FACTOR_TOL = 1e-12          # semi-photon charge/mass factor vs 0.5
NEUTRALITY = 1e-6           # |photon charge| / |semi-photon charge|
INVARIANT_MAX_DEV = 1e-9
# alpha_s vs (2/pi) zeta^2, from JSON.  The program reaches alpha_s
# through ~18 rounded operations (r_s, S_c, E_o, q_s, q_s^2/(hbar c)),
# whose first-order worst case is ~4e-15; 1e-15 is exceeded by correct
# code at some zeta (1.3e-15 seen over 2e5 seeded zetas).
ALPHA_REL_TOL = 4e-15
TABLE_REL_TOL = 1e-5        # a value shown with 6 significant digits
EH_REL_TOL = 1e-12          # |E| = |H| on every CSV row
# The composite midpoint rule is only O(h^2): over a quarter wave split
# into P panels its relative error is at most (pi/2)^3/(24 P^2) for the
# charge lobe (cos) and (pi/2P)^2/6 for the mass lobe (cos^2), so a
# midpoint factor is checked against 0.5 within 0.5 * 0.42 / P^2.
MIDPOINT_REL_ERR_P2 = 0.42

CSV_HEADER = "l,x,y,z,Ex,Ey,Ez,Hx,Hy,Hz,jn,jtau"


def option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    for i, arg in enumerate(argv):
        if arg == flag and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    return default


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _table_values(text: str) -> dict[str, str]:
    """name -> value column of a `name  value  unit` table."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            out[parts[0]] = parts[1]
    return out


def _finite_numbers(values) -> list[str]:
    bad = [v for v in values
           if not isinstance(v, (int, float)) or not math.isfinite(v)]
    return [f"non-finite or non-numeric value {v!r}" for v in bad[:3]]


def check_fields(argv: list[str], text: str) -> list[str]:
    samples = int(option(argv, "--samples", "256"))
    if not text.endswith("\n"):
        return ["CSV does not end with a newline"]
    rows = text[:-1].split("\n")
    problems = []
    if rows[0] != CSV_HEADER:
        problems.append(f"CSV header is {rows[0]!r}")
    if len(rows) != samples + 1:
        problems.append(f"CSV has {len(rows)} rows, want {samples + 1}")
    for n, row in enumerate(rows[1:], start=1):
        try:
            v = [float(x) for x in row.split(",")]
        except ValueError:
            problems.append(f"row {n} does not parse: {row[:60]!r}")
            break
        if len(v) != 12 or not all(map(math.isfinite, v)):
            problems.append(f"row {n} has {len(v)} values or a non-finite one")
            break
        e = math.hypot(v[4], v[5], v[6])
        h = math.hypot(v[7], v[8], v[9])
        if abs(e - h) > EH_REL_TOL * max(e, h):
            problems.append(f"row {n}: |E| = {e!r} but |H| = {h!r}")
            break
    return problems


def check_consistency(argv: list[str], text: str) -> list[str]:
    tol = FACTOR_TOL
    if option(argv, "--rule") == "midpoint":
        tol += 0.5 * MIDPOINT_REL_ERR_P2 / int(option(argv, "--panels", "64")) ** 2
    if option(argv, "--format", "table") == "json":
        data = json.loads(text)
        photon_q = data["photon_charge"]["value"]
        semi_q = data["semi_photon_charge"]["value"]
        factors = {name: data[name]["discrepancy_factor"]
                   for name in ("semi_photon_charge", "semi_photon_mass")}
    else:
        tol = max(tol, TABLE_REL_TOL)
        rows = {line.split()[0]: line.split()[1:] for line in text.splitlines()[1:]}
        photon_q = float(rows["photon_charge"][0])
        semi_q = float(rows["semi_photon_charge"][0])
        factors = {name: float(rows[name][2])
                   for name in ("semi_photon_charge", "semi_photon_mass")}
    problems = [f"{name} factor {f!r} is not 0.5 within {tol:g}"
                for name, f in factors.items()
                if not (isinstance(f, float) and abs(f - 0.5) <= tol)]
    if not abs(photon_q) < NEUTRALITY * abs(semi_q):
        problems.append(f"photon charge {photon_q!r} not below "
                        f"{NEUTRALITY:g} x semi-photon charge {semi_q!r}")
    return problems


def check_invariants(argv: list[str], text: str) -> list[str]:
    grid = option(argv, "--beta-grid")
    n_beta = 9 if grid is None else len([b for b in grid.split(",") if b.strip()])
    if option(argv, "--format", "table") == "json":
        data = json.loads(text)
        ok, dev, n_frames = data["pass"], data["max_deviation"], len(data["frames"])
        problems = _finite_numbers([v for f in data["frames"] for v in f.values()])
    else:
        lines = text.splitlines()
        ok = lines[-1] == "PASS"
        dev = float(lines[-2].split()[2])
        n_frames = len(lines) - 3
        problems = []
    if ok is not True:
        problems.append("invariants gate did not report PASS")
    if not dev <= INVARIANT_MAX_DEV:
        problems.append(f"max_deviation {dev!r} exceeds {INVARIANT_MAX_DEV:g}")
    if n_frames != n_beta:
        problems.append(f"{n_frames} frames for {n_beta} betas")
    return problems


def check_semiphoton(argv: list[str], text: str) -> list[str]:
    zeta = float(option(argv, "--zeta", "1.0"))
    expected = (2.0 / math.pi) * zeta * zeta
    if option(argv, "--format", "table") == "json":
        alpha, tol = json.loads(text)["model"]["alpha_s"], ALPHA_REL_TOL
    else:
        alpha, tol = float(_table_values(text)["alpha_s"]), TABLE_REL_TOL
    if not _rel_close(alpha, expected, tol):
        return [f"alpha_s {alpha!r} != (2/pi) zeta^2 = {expected!r} within {tol:g}"]
    return []


def check_dispersion(argv: list[str], text: str) -> list[str]:
    if option(argv, "--format", "table") == "json":
        data, tol = json.loads(text), FACTOR_TOL
    else:
        data = {k: float(v) for k, v in _table_values(text).items()}
        tol = TABLE_REL_TOL
    problems = _finite_numbers(data.values())
    # the two uncertainty-bound forms differ by the CODATA rounding of
    # alpha and e; the program itself only promises 1e-9
    for a, b, t in (("omega_at_k0_m_e", "m_e_c2_over_hbar", tol),
                    ("omega_massless_at_k_ref", "c_times_k_ref", tol),
                    ("lambda_min_planck_form", "lambda_min_alpha_form",
                     max(tol, INVARIANT_MAX_DEV))):
        if not _rel_close(data[a], data[b], t):
            problems.append(f"{a} = {data[a]!r} but {b} = {data[b]!r}")
    return problems


def check_record(argv: list[str], text: str) -> list[str]:
    """constants and photon: every value a finite positive number."""
    if option(argv, "--format", "table") == "json":
        values = list(json.loads(text).values())
    else:
        values = [float(v) for v in _table_values(text).values()]
    problems = _finite_numbers(values)
    problems += [f"non-positive value {v!r}" for v in values if not v > 0][:3]
    if argv[0] == "constants" and len(values) != 9:
        problems.append(f"{len(values)} constants, want 9")
    return problems


CHECKS = {
    "fields": check_fields,
    "consistency": check_consistency,
    "invariants": check_invariants,
    "semiphoton": check_semiphoton,
    "dispersion": check_dispersion,
    "constants": check_record,
    "photon": check_record,
}


def check(argv: list[str], code: int, text: str) -> list[str]:
    """Every problem with one op's exit code and output."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return CHECKS[argv[0]](argv, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output does not parse: {type(exc).__name__}: {exc}"]

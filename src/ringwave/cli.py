"""Command-line front end.

Examples:
    ringwave constants
    ringwave photon --format json
    ringwave semiphoton --zeta 0.8 --thomas
    ringwave invariants --beta-grid=-0.99,-0.5,0,0.5,0.99
    ringwave fields --kind semiplus --samples 512 --out fields.csv
    ringwave consistency --panels 128
    ringwave dispersion

Exit codes: 0 success, 1 a physics check failed, 2 usage error,
3 could not write --out.  Output is byte-deterministic for a fixed
invocation: human tables carry 6 significant digits, CSV 17, JSON
full-precision floats.

Each _cmd_* imports the modules it runs when it runs, and json loads
only for --format json, so a short command does not pay start-up time
for the others (tests/test_lazy_import.py pins the modules per command).
Likewise the parser is built for the chosen subcommand only: the others
are registered with their help, but no parser is built for them.  Each
option's default lives in that parser, which reads the field kinds and
quadrature rules from their own modules; run takes its argparse.Namespace.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable

from .constants import PhysicalConstants, codata_constants, electron_scales
from .errors import EvaluationError, RingwaveError

INVARIANT_THRESHOLD = 1e-9
DEFAULT_BETA_GRID = (-0.99, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.99)

# a `fields` CSV row; z, Ez, Hx, Hy are always 0, and + 0.0 folds -0.0 to 0
_CSV_ROW = "%.17g,%.17g,%.17g,0,%.17g,%.17g,0,0,0,%.17g,%.17g,%.17g"


def _g6(v: float) -> str:
    return f"{float(v):.6g}"


def _table(rows: list[tuple[str, str, str]]) -> str:
    width = max(len(name) for name, _, _ in rows)
    vwidth = max(len(value) for _, value, _ in rows)
    lines = [
        f"{name:<{width}}  {value:>{vwidth}}  {unit}".rstrip()
        for name, value, unit in rows
    ]
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    import json

    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or infinity has no JSON spelling
        raise EvaluationError(f"cannot write JSON: {exc}") from None


def _ranged(kind: type, lo: float, hi: float, bounds: str) -> Callable[[str], float]:
    """argparse type: a finite kind(text) in the interval lo..hi.

    bounds gives the interval's brackets, "[" / "]" closed and "(" / ")"
    open, as in "(]" for 0 < v <= 1.
    """
    interval = f"{bounds[0]}{lo:g}, {hi:g}{bounds[1]}"

    def parse(text: str):
        try:
            v = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not {'an integer' if kind is int else 'a number'}: {text!r}")
        inside = ((lo < v if bounds[0] == "(" else lo <= v)
                  and (v < hi if bounds[1] == ")" else v <= hi))
        if not (math.isfinite(v) and inside):
            raise argparse.ArgumentTypeError(
                f"must be a finite number in {interval}, got {v}")
        return v

    return parse


_beta_arg = _ranged(float, -1.0, 1.0, "()")


def _beta_grid_arg(text: str) -> tuple[float, ...]:
    betas = tuple(_beta_arg(part) for part in text.split(",") if part.strip() != "")
    if not betas:
        raise argparse.ArgumentTypeError("beta grid must not be empty")
    return betas


def _subparser(chosen: str | None, **kwargs) -> argparse.ArgumentParser | None:
    """The chosen subcommand's parser, its options in help order; else None,
    as only the chosen subcommand parses: the others are never built."""
    if chosen is None:
        return None
    p = argparse.ArgumentParser(**kwargs)
    if chosen in ("semiphoton", "consistency"):
        p.add_argument("--zeta", type=_ranged(float, 0.0, 1.0, "(]"), default=1.0,
                       help="torus thinness ratio in (0, 1], default %(default)g")
    if chosen == "semiphoton":
        p.add_argument("--thomas", action="store_true",
                       help="apply the Thomas-precession factor 2 to mu_s")
    elif chosen == "invariants":
        p.add_argument("--beta-grid", type=_beta_grid_arg, default=DEFAULT_BETA_GRID,
                       metavar="B1,B2,...",
                       help="comma-separated boost speeds, each |beta| < 1")
    elif chosen == "fields":
        from .fields import KIND_PHOTON, TWIRLED_KINDS

        p.add_argument("--kind", choices=sorted(TWIRLED_KINDS), default=KIND_PHOTON)
        p.add_argument("--samples", type=_ranged(int, 2, math.inf, "[)"), default=256)
        p.add_argument("--amplitude", type=_ranged(float, 0.0, math.inf, "()"),
                       help="field amplitude in statV/cm; default is the"
                            " zeta=1 semi-photon amplitude")
        p.add_argument("--out", help="write CSV to this path instead of stdout")
        return p
    elif chosen == "consistency":
        from .quadrature import RULE_GAUSS5, RULE_MIDPOINT, QuadratureSpec

        p.add_argument("--panels", type=_ranged(int, 1, math.inf, "[)"),
                       default=QuadratureSpec.panels)
        p.add_argument("--rule", choices=(RULE_GAUSS5, RULE_MIDPOINT),
                       default=QuadratureSpec.rule)
        p.add_argument("--toroidal-jacobian", action="store_true",
                       dest="include_toroidal_jacobian",
                       help="integrate the exact torus volume element")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", help="write output to this path instead of stdout")
    return p


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser for one subcommand, built once; each parse fills a new namespace.

    Every subcommand is registered, so the top-level help and the usage
    errors list them all; only command's own subparser is built.
    """
    parser = argparse.ArgumentParser(
        prog="ringwave",
        description="Ring-wave model of the photon and the electron-positron pair",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_subparser)
    for name, (help, _) in _COMMANDS.items():
        sub.add_parser(name, help=help, chosen=name if name == command else None)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse and validate the command line; every option left out takes
    its default from the parser.

    The subcommand is the first argument that is not an option; the top
    level takes no option but -h.
    """
    argv = sys.argv[1:] if argv is None else argv
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    return _parser(command if command in _COMMANDS else None).parse_args(argv)


def _named_values(args: argparse.Namespace,
                  data: list[tuple[str, float, str]]) -> tuple[str, int]:
    """A JSON object of name: value, or a table of (name, value, unit) rows."""
    if args.format == "json":
        return _json_text({name: value for name, value, _ in data}), 0
    return _table([(name, _g6(value), unit) for name, value, unit in data]), 0


def _cmd_constants(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    scales = electron_scales(k)
    return _named_values(args, [
        ("c", k.c, "cm/s"),
        ("hbar", k.hbar, "erg*s"),
        ("h", k.h, "erg*s"),
        ("e", k.e, "statC"),
        ("m_e", k.m_e, "g"),
        ("alpha_exp", k.alpha_exp, ""),
        ("r_0", scales.r_0, "cm"),
        ("lambda_bar_c", scales.lambda_bar_c, "cm"),
        ("r_c", scales.lambda_bar_c, "cm"),
    ])


_PHOTON_UNITS = {
    "energy": "erg", "momentum": "g*cm/s", "omega_p": "rad/s",
    "lambda_p": "cm", "r_p": "cm", "s_p": "cm^2", "volume": "cm^3",
    "spin": "erg*s", "mass_equivalent": "g", "n": "", "nu": "1/s",
}

_SEMI_UNITS = {
    "zeta": "", "e_o": "statV/cm", "r_s": "cm", "omega_s": "rad/s",
    "q_s": "statC", "m_s": "g", "alpha_s": "", "sigma_s": "erg*s",
    "mu_s": "erg/G", "sign": "",
}

_RENORM_UNITS = {
    "eps_v": "", "alpha_bare": "", "alpha_exp": "", "q_bare": "statC",
    "q_exp": "statC", "r_bare": "cm", "r_0": "cm",
}


def _cmd_photon(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    from .model import pair_threshold_photon

    record = pair_threshold_photon(k).asdict()
    return _named_values(args, [(name, value, _PHOTON_UNITS[name])
                                  for name, value in record.items()])


def _cmd_semiphoton(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    from .model import magnetic_moment, semi_photon_model
    from .renorm import vacuum_polarization

    model = semi_photon_model(args.zeta, k)
    record = model.asdict()
    record["mu_s"] = magnetic_moment(
        model.q_s, model.r_s, model.omega_s, k.c, thomas=args.thomas
    )
    vp = None
    if model.alpha_s > k.alpha_exp:
        vp = vacuum_polarization(model.alpha_s, k)

    if args.format == "json":
        return _json_text({
            "model": record,
            "thomas": args.thomas,
            "renormalization": vp.asdict() if vp is not None else None,
        }), 0

    rows = [("[model]", "", "")]
    for name, value in record.items():
        text = value if isinstance(value, str) else _g6(value)
        rows.append((name, text, _SEMI_UNITS[name]))
    rows.append(("thomas", "on" if args.thomas else "off", ""))
    if vp is not None:
        rows.append(("[renormalization]", "", ""))
        for name, value in vp.asdict().items():
            rows.append((name, _g6(value), _RENORM_UNITS[name]))
        rows.append(("q_bare/e", _g6(vp.q_bare / k.e), ""))
    else:
        rows.append(("[renormalization]", "skipped", ""))
        rows.append(("reason", "alpha_s <= alpha_exp", ""))
    return _table(rows), 0


def _cmd_invariants(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    from .lorentz import WavePacket, boost_packet
    from .model import pair_threshold_photon, semi_photon_model

    photon = pair_threshold_photon(k)
    amp = semi_photon_model(1.0, k).e_o
    packet = WavePacket(amp, photon.omega_p, photon.energy, photon.volume)
    frames = []
    deviations = []
    for beta in args.beta_grid:
        report = boost_packet(packet, beta)
        prim = report.primed
        c1, c2, c3 = report.invariants
        frames.append({
            "beta": beta,
            "omega": prim.omega,
            "e_o": prim.e_o,
            "energy": prim.energy,
            "volume": prim.volume,
            "c1": c1,
            "c2": c2,
            "c3": c3,
        })
        deviations.append(report.ratio_deviations)
    # max() can drop a NaN; keep it, so that the gate below fails on it
    max_dev = math.nan if any(map(math.isnan, deviations)) else max(deviations)
    ok = max_dev <= INVARIANT_THRESHOLD

    if args.format == "json":
        return _json_text({
            "frames": frames,
            "max_deviation": None if math.isnan(max_dev) else max_dev,
            "threshold": INVARIANT_THRESHOLD,
            "pass": ok,
        }), 0 if ok else 1

    lines = ["  ".join(f"{name:>13}" for name in frames[0])]
    for frame in frames:
        lines.append("  ".join(f"{_g6(value):>13}" for value in frame.values()))
    lines.append(f"max deviation: {_g6(max_dev)} (threshold {INVARIANT_THRESHOLD:g})")
    lines.append("PASS" if ok else "FAIL")
    return "\n".join(lines) + "\n", 0 if ok else 1


def _cmd_fields(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    from .fields import _grid, _point, twirled_field
    from .geometry import ring_from_radius
    from .model import pair_threshold_photon, semi_photon_model

    photon = pair_threshold_photon(k)
    ring = ring_from_radius(photon.r_p, k.c)
    amp = args.amplitude
    if amp is None:
        amp = semi_photon_model(1.0, k).e_o
    cfg = twirled_field(args.kind, amp, ring)
    lines = ["l,x,y,z,Ex,Ey,Ez,Hx,Hy,Hz,jn,jtau"]
    for l in _grid(cfg, args.samples):
        x, y, ex, ey, hz, jn, jtau = _point(cfg, l)
        lines.append(_CSV_ROW % (l + 0.0, x + 0.0, y + 0.0, ex + 0.0, ey + 0.0,
                                 hz + 0.0, jn + 0.0, jtau + 0.0))
    return "\n".join(lines) + "\n", 0


def _cmd_consistency(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    from .fields import KIND_PHOTON, KIND_SEMI_PLUS, twirled_field
    from .geometry import ring_from_radius
    from .model import semi_photon_model
    from .quadrature import QuadratureSpec, total_charge, total_mass

    zeta = args.zeta
    spec = QuadratureSpec(args.panels, args.rule, args.include_toroidal_jacobian)
    model = semi_photon_model(zeta, k)
    ring = ring_from_radius(model.r_s, k.c)
    photon_cfg = twirled_field(KIND_PHOTON, model.e_o, ring)
    semi_cfg = twirled_field(KIND_SEMI_PLUS, model.e_o, ring)
    reports = {
        "photon_charge": total_charge(photon_cfg, zeta, spec),
        "semi_photon_charge": total_charge(semi_cfg, zeta, spec),
        "semi_photon_mass": total_mass(semi_cfg, zeta, spec),
    }

    if args.format == "json":
        return _json_text({name: r.asdict() for name, r in reports.items()}), 0

    header = (f"{'quantity':<20}  {'integrated':>13}  {'closed form':>13}  "
              f"{'factor':>7}")
    lines = [header]
    for name, report in reports.items():
        factor = ("n/a" if report.discrepancy_factor is None
                  else _g6(report.discrepancy_factor))
        lines.append(f"{name:<20}  {_g6(report.value):>13}  "
                     f"{_g6(report.closed_form):>13}  {factor:>7}")
    return "\n".join(lines) + "\n", 0


def _cmd_dispersion(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    from .model import dispersion_omega, pair_threshold_photon, uncertainty_min_length

    photon = pair_threshold_photon(k)
    k_ref = 1.0 / photon.r_p
    lam_planck, lam_alpha = uncertainty_min_length(photon.energy, k)
    return _named_values(args, [
        ("omega_at_k0_m_e", dispersion_omega(0.0, k.m_e, k), "rad/s"),
        ("m_e_c2_over_hbar", k.m_e * k.c * k.c / k.hbar, "rad/s"),
        ("omega_massless_at_k_ref", dispersion_omega(k_ref, 0.0, k), "rad/s"),
        ("c_times_k_ref", k.c * k_ref, "rad/s"),
        ("k_ref", k_ref, "1/cm"),
        ("lambda_min_planck_form", lam_planck, "cm"),
        ("lambda_min_alpha_form", lam_alpha, "cm"),
        ("lambda_p", photon.lambda_p, "cm"),
    ])


# name: (help, handler), in the order the top-level help lists them
_COMMANDS = {
    "constants": ("universal constants table", _cmd_constants),
    "photon": ("pair-threshold photon record", _cmd_photon),
    "semiphoton": ("semi-photon record and renormalization", _cmd_semiphoton),
    "invariants": ("Lorentz-boost invariance sweep", _cmd_invariants),
    "fields": ("sample E, H, and currents to CSV", _cmd_fields),
    "consistency": ("integrated charge/mass vs stated closed forms", _cmd_consistency),
    "dispersion": ("dispersion relation and uncertainty bound", _cmd_dispersion),
}


def run(args: argparse.Namespace) -> int:
    """Execute parsed arguments; returns the process exit code."""
    k = codata_constants()
    try:
        text, code = _COMMANDS[args.command][1](args, k)
    except RingwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return code


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

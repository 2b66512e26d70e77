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

Each _cmd_* imports the modules it runs when it runs, and no command
imports json, so a short command does not pay start-up time for the
others (tests/test_lazy_import.py pins the modules per command).
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
from .errors import DomainError, EvaluationError, RingwaveError, _require_number

INVARIANT_THRESHOLD = 1e-9
DEFAULT_BETA_GRID = (-0.99, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.99)
# the numbers of an invariants frame, in the order each row writes them
_FRAME_KEYS = ("beta", "omega", "e_o", "energy", "volume", "c1", "c2", "c3")

# a `fields` CSV row; z, Ez, Hx, Hy are always 0, and + 0.0 folds -0.0 to 0
_CSV_ROW = "%.17g,%.17g,%.17g,0,%.17g,%.17g,0,0,0,%.17g,%.17g,%.17g"


def _g6(v: float) -> str:
    return f"{float(v):.6g}"


# the printed unit of each dimensional row, by row name, for every command;
# a name not in the table is a pure number
_UNITS = {
    "c": "cm/s", "hbar": "erg*s", "h": "erg*s", "e": "statC", "m_e": "g",
    "r_0": "cm", "lambda_bar_c": "cm", "r_c": "cm",
    "energy": "erg", "momentum": "g*cm/s", "omega_p": "rad/s", "lambda_p": "cm",
    "r_p": "cm", "s_p": "cm^2", "volume": "cm^3", "spin": "erg*s",
    "mass_equivalent": "g", "nu": "1/s",
    "e_o": "statV/cm", "r_s": "cm", "omega_s": "rad/s", "q_s": "statC", "m_s": "g",
    "sigma_s": "erg*s", "mu_s": "erg/G", "q_bare": "statC", "q_exp": "statC", "r_bare": "cm",
    "omega_at_k0_m_e": "rad/s", "m_e_c2_over_hbar": "rad/s",
    "omega_massless_at_k_ref": "rad/s", "c_times_k_ref": "rad/s", "k_ref": "1/cm",
    "lambda_min_planck_form": "cm", "lambda_min_alpha_form": "cm",
}


def _table(data: dict[str, float | str]) -> str:
    """One row per name: the name, its value (a number to 6 digits) and its unit."""
    rows = [(name, value if isinstance(value, str) else _g6(value), _UNITS.get(name, ""))
            for name, value in data.items()]
    width = max(len(name) for name, _, _ in rows)
    vwidth = max(len(value) for _, value, _ in rows)
    lines = [
        f"{name:<{width}}  {value:>{vwidth}}  {unit}".rstrip()
        for name, value, unit in rows
    ]
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2, allow_nan=False) and a newline, written in one
    pass: with indent set, json runs its pure-Python encoder.  Unlike json's,
    each key must be a str; json is imported only for a string that is not
    printable ASCII free of '"' and '\\'."""
    return _json(obj, "\n") + "\n"


def _plain(text: str) -> bool:
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


@functools.cache
def _object(keys: tuple[str, ...], nl: str) -> str:
    """A JSON object of keys with '%s' for each value, built once per (keys, nl):
    the commands write a fixed set of record shapes, so the cache stays small."""
    if not _plain("".join(keys)):  # one check for all the keys
        keys = [_json(key, nl)[1:-1] for key in keys]
    inner = nl + "  "
    return "{" + inner + f",{inner}".join(
        [f'"{key.replace("%", "%%")}": %s' for key in keys]) + nl + "}"


def _json(obj, nl: str) -> str:
    """obj as JSON; nl opens each of its nested lines (a newline and the indent)."""
    inner = nl + "  "
    if not obj and isinstance(obj, (dict, list, tuple)):
        return "{}" if isinstance(obj, dict) else "[]"
    if isinstance(obj, dict):
        template = _object(tuple(obj), nl)
        values = tuple(obj.values())
        # %s of a float is float.__repr__, as json writes it
        if set(map(type, values)) != {float} or not all(map(math.isfinite, values)):
            values = tuple([_json(value, inner) for value in values])
        return template % values
    if isinstance(obj, (list, tuple)):
        return "[" + inner + f",{inner}".join([_json(v, inner) for v in obj]) + nl + "]"
    if isinstance(obj, str):
        if _plain(obj):
            return f'"{obj}"'
        import json

        return json.dumps(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):  # a NaN or infinity has no JSON spelling
            raise EvaluationError("cannot write JSON: Out of range float values"
                                  f" are not JSON compliant: {float.__repr__(obj)}")
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _ranged(kind: type, lo: float, hi: float, bounds: str) -> Callable[[str], float]:
    """argparse type: kind(text), then errors._require_number(v, "", lo, hi, bounds)."""

    def parse(text: str):
        try:
            v = kind(text)
            _require_number(v, "", lo, hi, bounds)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not {'an integer' if kind is int else 'a number'}: {text!r}") from None
        return v

    return parse


_beta_arg = _ranged(float, -1, 1, "()")


def _beta_grid_arg(text: str) -> tuple[float, ...]:
    """Every comma-separated entry is a beta: a blank one is not a number."""
    return tuple(map(_beta_arg, text.split(",")))


def _subparser(chosen: str | None, **kwargs) -> argparse.ArgumentParser | None:
    """The chosen subcommand's parser, its options in help order; else None,
    as only the chosen subcommand parses: the others are never built."""
    if chosen is None:
        return None
    p = argparse.ArgumentParser(**kwargs)
    if chosen in ("semiphoton", "consistency"):
        p.add_argument("--zeta", type=_ranged(float, 0, 1, "(]"), default=1.0,
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
        p.add_argument("--amplitude", type=_ranged(float, 0, math.inf, "()"),
                       help="field amplitude in statV/cm; default is the"
                            " zeta=1 semi-photon amplitude")
        p.add_argument("--out", help="write CSV to this path instead of stdout")
        return p
    elif chosen == "consistency":
        from .quadrature import RULES, QuadratureSpec

        p.add_argument("--panels", type=_ranged(int, 1, math.inf, "[)"),
                       default=QuadratureSpec.panels)
        p.add_argument("--rule", choices=RULES, default=QuadratureSpec.rule)
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


def _named_values(args: argparse.Namespace, data: dict[str, float]) -> tuple[str, int]:
    """A JSON object of name: value, or a _table of them."""
    return _json_text(data) if args.format == "json" else _table(data), 0


def _cmd_constants(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    r_0, lambda_bar_c = electron_scales(k)
    return _named_values(args, {
        "c": k.c, "hbar": k.hbar, "h": 2.0 * math.pi * k.hbar, "e": k.e, "m_e": k.m_e,
        "alpha_exp": k.alpha_exp, "r_0": r_0, "lambda_bar_c": lambda_bar_c,
        "r_c": lambda_bar_c,
    })


def _cmd_photon(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    from .model import pair_threshold_photon

    return _named_values(args, pair_threshold_photon(k).asdict())


def _cmd_semiphoton(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    from .model import magnetic_moment, semi_photon_model
    from .renorm import vacuum_polarization

    model = semi_photon_model(args.zeta, k)
    record = model.asdict()
    record["mu_s"] = magnetic_moment(
        model.q_s, model.r_s, model.omega_s, k.c, thomas=args.thomas
    )
    vp = vacuum_polarization(model.alpha_s, k) if model.alpha_s > k.alpha_exp else None

    if args.format == "json":
        return _json_text({
            "model": record,
            "thomas": args.thomas,
            "renormalization": vp.asdict() if vp is not None else None,
        }), 0

    rows = {"[model]": "", **record, "thomas": "on" if args.thomas else "off"}
    if vp is not None:
        rows |= {"[renormalization]": "", **vp.asdict(), "q_bare/e": vp.q_bare / k.e}
    else:
        rows |= {"[renormalization]": "skipped", "reason": "alpha_s <= alpha_exp"}
    return _table(rows), 0


def _cmd_invariants(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    from .lorentz import WavePacket, boost_packet
    from .model import pair_threshold_photon, semi_photon_model

    photon = pair_threshold_photon(k)
    amp = semi_photon_model(1.0, k).e_o
    packet = WavePacket(amp, photon.omega_p, photon.energy, photon.volume)
    as_json = args.format == "json"
    # each frame is one row, written straight to text: a JSON object from its
    # cached template, or a table line of 6-digit columns
    row, text = ((_object(_FRAME_KEYS, "\n    "), float.__repr__) if as_json
                 else ("  ".join(["%13.6g"] * 5 + ["%13s"] * 3), _g6))
    # c1-c3 are invariants, so a grid repeats a few values of each: write each
    # value's text once.  Exact, as boost_packet refuses a ratio that is 0.0,
    # subnormal, negative or not finite: no -0.0 meets 0.0, and no NaN is a key
    ratio = functools.cache(text)
    rows, max_dev = [], -math.inf
    for beta, ((e_o, omega, energy, volume), (c1, c2, c3), drift) in zip(
            args.beta_grid, boost_packet(packet, args.beta_grid)):
        values = (beta, omega, e_o, energy, volume, c1, c2, c3)
        if as_json and not all(map(math.isfinite, values)):
            _json(values, "")  # raises json's error for the first of them
        rows.append(row % (beta, omega, e_o, energy, volume, ratio(c1), ratio(c2), ratio(c3)))
        # a running maximum that keeps a NaN, so that the gate below fails on it
        if drift > max_dev or math.isnan(drift):
            max_dev = drift
    ok = bool(rows) and max_dev <= INVARIANT_THRESHOLD  # no frame checks nothing

    if as_json:
        return _object(("frames", "max_deviation", "threshold", "pass"), "\n") % (
            "[\n    " + ",\n    ".join(rows) + "\n  ]",
            _json(None if math.isnan(max_dev) else max_dev, ""),
            _json(INVARIANT_THRESHOLD, ""), _json(ok, ""),
        ) + "\n", 0 if ok else 1

    return "\n".join(["  ".join(f"{name:>13}" for name in _FRAME_KEYS), *rows,
                      f"max deviation: {_g6(max_dev)} (threshold {INVARIANT_THRESHOLD:g})",
                      "PASS" if ok else "FAIL"]) + "\n", 0 if ok else 1


def _cmd_fields(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    from .fields import _grid, _points, twirled_field
    from .geometry import ring_from_radius
    from .model import semi_photon_model

    model = semi_photon_model(1.0, k)
    ring = ring_from_radius(model.r_s, k.c)
    amp = model.e_o if args.amplitude is None else args.amplitude
    cfg = twirled_field(args.kind, amp, ring)
    lines = ["l,x,y,z,Ex,Ey,Ez,Hx,Hy,Hz,jn,jtau"]
    ls = _grid(cfg, args.samples)
    for l, (x, y, ex, ey, hz, jn, jtau) in zip(ls, _points(cfg, ls)):
        lines.append(_CSV_ROW % (l + 0.0, x + 0.0, y + 0.0, ex + 0.0, ey + 0.0,
                                 hz + 0.0, jn + 0.0, jtau + 0.0))
    return "\n".join(lines) + "\n", 0


def _cmd_consistency(args: argparse.Namespace, k: PhysicalConstants) -> tuple[str, int]:
    from .quadrature import QuadratureSpec, consistency_reports

    spec = QuadratureSpec(args.panels, args.rule, args.include_toroidal_jacobian)
    reports = consistency_reports(args.zeta, spec, k)

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
    return _named_values(args, {
        "omega_at_k0_m_e": dispersion_omega(0.0, k.m_e, k),
        "m_e_c2_over_hbar": k.m_e * k.c * k.c / k.hbar,
        "omega_massless_at_k_ref": dispersion_omega(k_ref, 0.0, k),
        "c_times_k_ref": k.c * k_ref,
        "k_ref": k_ref,
        "lambda_min_planck_form": lam_planck,
        "lambda_min_alpha_form": lam_alpha,
        "lambda_p": photon.lambda_p,
    })


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

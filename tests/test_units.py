"""Results do not depend on the unit system (property tests).

Measuring length, mass and time in units a, b and t times smaller than
the cm, g and s scales each constant by its dimension: c by a/t, hbar by
b a^2/t, the statcoulomb e by b^(1/2) a^(3/2)/t and m_e by b, while
alpha_exp is a pure number.  Every number that `constants`, `photon`,
`semiphoton` and `dispersion` print must then scale by a^p b^q t^r, with
(p, q, r) read from the unit the table prints beside it (cli._UNITS; a
row without a unit is a pure number and must stay the same), and so must
every number of an `invariants` frame, by the unit FRAME_UNITS gives it.
A value test that derives its expectation from the same closed form as
the code cannot see a misplaced c or hbar, nor a wrong printed unit; here
either moves an output away from its unit's power of a, b or t.

The factors span 1e-20 to 1e27, where no overflow guard fires: the
guards keep tests of their own.  Each bound is a first-order count of
the rounded operations behind the output, in units of U.  Every
dimensionless output has the same exact value in every unit system, so
two systems differ by at most twice the count of one evaluation.
"""

import argparse
import json
import math

from hypothesis import given
from hypothesis import strategies as st

from ringwave import (
    RULE_GAUSS5,
    RULE_MIDPOINT,
    PhysicalConstants,
    QuadratureSpec,
    codata_constants,
    consistency_reports,
    pair_threshold_photon,
    semi_photon_model,
    uncertainty_min_length,
    vacuum_polarization,
)
from ringwave.cli import _COMMANDS, _UNITS, DEFAULT_BETA_GRID

K = codata_constants()
U = 2.0 ** -53  # unit roundoff of a double

CHARGE = (1.5, 0.5, -1.0)  # statC = g^1/2 cm^3/2 / s
# powers (p, q, r) of cm, g and s in each unit that a printed unit is
# written in: statV = statC/cm, and the gauss G = statV/cm
BASE_UNITS = {
    "cm": (1, 0, 0), "g": (0, 1, 0), "s": (0, 0, 1), "rad": (0, 0, 0),
    "erg": (2, 1, -2), "statC": CHARGE, "statV": (0.5, 0.5, -1), "G": (-0.5, 0.5, -1),
}
# the consistency reports' value, closed_form and abs_error by report name;
# their table prints no unit
DIMENSIONS = {"semi_photon_charge": CHARGE, "semi_photon_mass": (0, 1, 0)}
# the unit of each number of an invariants frame; its table prints none
FRAME_UNITS = {"beta": "", "omega": "rad/s", "e_o": "statV/cm", "energy": "erg",
               "volume": "cm^3", "c1": "statV*s/cm", "c2": "erg*s", "c3": "cm^3/s"}
# the commands whose printed numbers each carry the unit of cli._UNITS
PRINTING = ("constants", "photon", "semiphoton", "dispersion")


def _dimension(unit: str) -> tuple[float, float, float]:
    """(p, q, r) of a printed unit such as "g*cm/s", "cm^2" or "1/s"; "" is a pure number."""
    power = [0.0, 0.0, 0.0]
    numerator, _, denominator = unit.partition("/")
    for sign, side in ((1, numerator), (-1, denominator)):
        for factor in side.split("*") if side not in ("", "1") else ():
            base, _, exponent = factor.partition("^")
            for i, x in enumerate(BASE_UNITS[base]):
                power[i] += sign * int(exponent or 1) * x
    return tuple(power)


# First-order rounding counts of one evaluation, in units of U.
# The longest chain of a printed number from the constants: alpha_s takes
# 36 (counted in bench/checks.py for ALPHA_REL_TOL), mu_s 32.
MODEL_OPS = 40
# The scaled constants are 2 (c), 4 (hbar), 5 (e) and 1 (m_e) roundings
# off, raised to a field's powers: volume ~ (hbar/(m_e c))^3 takes 21.  The
# expected factor a^p b^q t^r takes 5 more.
INPUT_OPS = 26


def _line_ops(spec: QuadratureSpec) -> int:
    """integrate_line over same-signed terms: each node's arc length is ~8
    roundings off, which the phase and cosine pass on (squared for the mass)
    as at most 2 (pi/2)^2 ~ 5 times as many relative to the lobe; the
    density adds ~10, and the weight, panel and total sums 8 + panels."""
    return 60 + spec.panels


SCALE = st.floats(-20.0, 27.0).map(lambda x: 10.0 ** x)
ZETA = st.floats(1e-3, 1.0)
SPEC = st.builds(QuadratureSpec, st.sampled_from([1, 2, 16]),
                 st.sampled_from([RULE_GAUSS5, RULE_MIDPOINT]), st.booleans())


def _scaled(a: float, b: float, t: float) -> PhysicalConstants:
    return PhysicalConstants(K.c * a / t, K.hbar * b * a * a / t,
                             K.e * math.sqrt(b) * a ** 1.5 / t, K.m_e * b, K.alpha_exp)


def _dimensionless(k: PhysicalConstants, zeta: float, spec: QuadratureSpec) -> dict:
    """name -> (value, ops of one evaluation): ratios of the records at zeta, the
    screening of the ring model's bare coupling 2/pi, and the consistency reports."""
    photon, semi = pair_threshold_photon(k), semi_photon_model(zeta, k)
    vp, reports = vacuum_polarization(2.0 / math.pi, k), consistency_reports(zeta, spec, k)
    charge, mass = reports["semi_photon_charge"], reports["semi_photon_mass"]
    line = _line_ops(spec)
    return {
        "alpha_s": (semi.alpha_s, 36),
        "eps_v": (vp.eps_v, 3),  # 2/pi over alpha_exp
        "q_bare/e": (vp.q_bare / k.e, 5),  # sqrt halves eps_v's 3; times e, over e
        # 2 pi hbar c / (2 m_e c^2) over 2 pi hbar / (2 m_e c)
        "lambda_min/lambda_p": (uncertainty_min_length(photon.energy, k)[0]
                                / photon.lambda_p, 11),
        # the closed form's roundings that the sum's terms do not share
        "charge discrepancy_factor": (charge.discrepancy_factor, line + 10),
        "mass discrepancy_factor": (mass.discrepancy_factor, line + 10),
        "section_factor": (charge.section_factor, 2 * line + 2),  # two nested sums
    }


@given(SCALE, SCALE, SCALE, ZETA, SPEC)
def test_dimensionless_outputs_do_not_depend_on_the_units(a, b, t, zeta, spec):
    here = _dimensionless(K, zeta, spec)
    there = _dimensionless(_scaled(a, b, t), zeta, spec)
    for name, (value, ops) in here.items():
        assert abs(there[name][0] / value - 1.0) <= 2 * ops * U, (name, value, there[name][0])


@given(SCALE, SCALE, SCALE, ZETA, SPEC)
def test_photon_charge_stays_the_same_fraction_of_the_semi_photon_charge(a, b, t, zeta, spec):
    # exactly 0 with a fine rule, so compared absolutely: the photon's terms
    # sum to at most 3 times the semi-photon charge in magnitude
    ratios = []
    for k in (K, _scaled(a, b, t)):
        reports = consistency_reports(zeta, spec, k)
        assert reports["photon_charge"].closed_form == 0.0
        ratios.append(reports["photon_charge"].value / reports["semi_photon_charge"].value)
    bound = 2 * _line_ops(spec) * (3.0 + abs(ratios[0])) * U
    assert abs(ratios[1] - ratios[0]) <= bound, ratios


def _printed(k: PhysicalConstants, zeta: float, thomas: bool) -> dict:
    """(command, ..., row name) -> every value PRINTING writes with --format json."""
    args = argparse.Namespace(format="json", zeta=zeta, thomas=thomas)
    values = {}

    def walk(path: tuple, obj) -> None:
        if isinstance(obj, dict):
            for name, value in obj.items():
                walk(path + (name,), value)
        else:
            values[path] = obj

    for command in PRINTING:
        text, code = _COMMANDS[command][1](args, k)
        assert code == 0, command
        walk((command,), json.loads(text))
    return values


def _close(name, new: float, old: float, power, a: float, b: float, t: float, ops: int) -> None:
    p, q, r = power
    expected = old * a ** p * b ** q * t ** r
    assert abs(new / expected - 1.0) <= ops * U, (name, old, new, expected)


def test_every_unit_names_a_printed_row():
    printed = {path[-1] for path in _printed(K, 1.0, False)}  # zeta 1 prints the screening
    assert set(_UNITS) <= printed, set(_UNITS) - printed


@given(SCALE, SCALE, SCALE, ZETA, st.booleans())
def test_printed_numbers_scale_by_their_printed_unit(a, b, t, zeta, thomas):
    here = _printed(K, zeta, thomas)
    there = _printed(_scaled(a, b, t), zeta, thomas)
    assert here.keys() == there.keys()
    for path, old in here.items():
        if type(old) is float:
            power = _dimension(_UNITS.get(path[-1], ""))
            _close(path, there[path], old, power, a, b, t, 2 * MODEL_OPS + INPUT_OPS)
        else:  # the sign, thomas, a skipped screening
            assert there[path] == old, path


@given(SCALE, SCALE, SCALE, ZETA, SPEC)
def test_consistency_reports_scale_by_their_dimension(a, b, t, zeta, spec):
    here = consistency_reports(zeta, spec, K)
    there = consistency_reports(zeta, spec, _scaled(a, b, t))
    # the amplitude's chain and two nested sums at most, for each system
    ops = 2 * (MODEL_OPS + 2 * _line_ops(spec)) + INPUT_OPS
    for name, power in DIMENSIONS.items():
        old, new = here[name], there[name]
        _close(name, new.value, old.value, power, a, b, t, ops)
        _close(name, new.closed_form, old.closed_form, power, a, b, t, ops)
        # value is about half the closed form, so their difference is at
        # most 3 times as far off as either
        _close(name, new.abs_error, old.abs_error, power, a, b, t, 3 * ops)


def _frame_ops(beta: float) -> dict:
    """Rounding counts of each number of an invariants frame in one system.

    The packet's numbers take MODEL_OPS each from the constants, and the
    boost 1 more: a product with the Doppler factor, which like gamma depends
    on beta alone and so rounds alike in every system.  The amplitude takes
    gamma (E_o - beta E_o) and its hypot, 3 more, and the subtraction
    magnifies the rounding of beta E_o by |beta|/(1 - beta) < 1/(1 - |beta|).
    A ratio adds its two numbers' counts and 1."""
    number, amplitude = MODEL_OPS + 1, MODEL_OPS + 3 + 1.0 / (1.0 - abs(beta))
    return {"omega": number, "energy": number, "volume": number, "e_o": amplitude,
            "c1": amplitude + number + 1, "c2": 2 * number + 1, "c3": 2 * number + 1}


def _drift_ops(beta: float) -> float:
    """Roundings of one system's drift at beta that another system does not
    share: the amplitude's 3 and its magnification, omega's Doppler product,
    c1 before and after the boost, and their quotient (its - 1 is exact);
    c2's and c3's drifts take 5, as no subtraction magnifies them."""
    return 7 + 1.0 / (1.0 - abs(beta))


@given(SCALE, SCALE, SCALE, st.floats(-0.999999, 0.999999))
def test_invariants_frames_scale_by_their_dimension(a, b, t, beta):
    grid = DEFAULT_BETA_GRID + (beta,)
    args = argparse.Namespace(format="json", beta_grid=grid)
    here, there = (json.loads(_COMMANDS["invariants"][1](args, k)[0])
                   for k in (K, _scaled(a, b, t)))
    for old, new in zip(here["frames"], there["frames"]):
        assert old.keys() == FRAME_UNITS.keys()
        assert new["beta"] == old["beta"]
        for name, ops in _frame_ops(old["beta"]).items():
            power = _dimension(FRAME_UNITS[name])
            _close(name, new[name], old[name], power, a, b, t, 2 * ops + INPUT_OPS)
    # rounding noise, so compared absolutely: both drifts hold the same
    # beta-only roundings, and each its own
    bound = 2 * max(map(_drift_ops, grid)) * U
    assert abs(there["max_deviation"] - here["max_deviation"]) <= bound
    assert there["pass"] == here["pass"]

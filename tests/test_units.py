"""Results do not depend on the unit system (property tests).

Measuring length, mass and time in units a, b and t times smaller than
the cm, g and s scales each constant by its dimension: c by a/t, hbar by
b a^2/t, the statcoulomb e by b^(1/2) a^(3/2)/t and m_e by b, while
alpha_exp is a pure number.  Every dimensionless output must then stay
the same, and every dimensional record field must scale by a^p b^q t^r,
with (p, q, r) read from DIMENSIONS.  A value test that derives its
expectation from the same closed form as the code cannot see a
misplaced c or hbar; here it moves an output by a power of a, b or t.

The factors span 1e-20 to 1e27, where no overflow guard fires: the
guards keep tests of their own.  Each bound is a first-order count of
the rounded operations behind the output, in units of U.  Every
dimensionless output has the same exact value in every unit system, so
two systems differ by at most twice the count of one evaluation.
"""

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

K = codata_constants()
U = 2.0 ** -53  # unit roundoff of a double

CHARGE = (1.5, 0.5, -1.0)  # statC = g^1/2 cm^3/2 / s
# powers (p, q, r) of cm, g and s in the unit of each record field; the
# consistency reports' value, closed_form and abs_error by report name
DIMENSIONS = {
    # PhotonModel
    "energy": (2, 1, -2), "momentum": (1, 1, -1), "omega_p": (0, 0, -1),
    "lambda_p": (1, 0, 0), "r_p": (1, 0, 0), "s_p": (2, 0, 0), "volume": (3, 0, 0),
    "spin": (2, 1, -1), "mass_equivalent": (0, 1, 0), "n": (0, 0, 0), "nu": (0, 0, -1),
    # SemiPhotonModel: statV/cm = statC/cm^2, erg/G = statC cm
    "zeta": (0, 0, 0), "e_o": (-0.5, 0.5, -1), "r_s": (1, 0, 0), "omega_s": (0, 0, -1),
    "q_s": CHARGE, "m_s": (0, 1, 0), "alpha_s": (0, 0, 0), "sigma_s": (2, 1, -1),
    "mu_s": (2.5, 0.5, -1),
    # VacuumPolarization
    "eps_v": (0, 0, 0), "alpha_bare": (0, 0, 0), "alpha_exp": (0, 0, 0),
    "q_bare": CHARGE, "q_exp": CHARGE, "r_bare": (1, 0, 0), "r_0": (1, 0, 0),
    # IntegralReport
    "semi_photon_charge": CHARGE, "semi_photon_mass": (0, 1, 0),
}

# First-order rounding counts of one evaluation, in units of U.
# The longest chain of a model or renorm field from the constants: alpha_s
# takes 36 (counted in bench/checks.py for ALPHA_REL_TOL), mu_s 32.
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


def _records(k: PhysicalConstants, zeta: float, spec: QuadratureSpec):
    """The records the CLI prints: the photon, the semi-photon at zeta, the
    screening of the ring model's bare coupling 2/pi, the consistency reports."""
    return (pair_threshold_photon(k), semi_photon_model(zeta, k),
            vacuum_polarization(2.0 / math.pi, k), consistency_reports(zeta, spec, k))


def _dimensionless(k: PhysicalConstants, zeta: float, spec: QuadratureSpec) -> dict:
    """name -> (value, ops of one evaluation)."""
    photon, semi, vp, reports = _records(k, zeta, spec)
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


def _close(name: str, new: float, old: float, a: float, b: float, t: float, ops: int) -> None:
    p, q, r = DIMENSIONS[name]
    expected = old * a ** p * b ** q * t ** r
    assert abs(new / expected - 1.0) <= ops * U, (name, old, new, expected)


@given(SCALE, SCALE, SCALE, ZETA, SPEC)
def test_record_fields_scale_by_their_dimension(a, b, t, zeta, spec):
    here = _records(K, zeta, spec)
    there = _records(_scaled(a, b, t), zeta, spec)
    for old, new in zip(here[:3], there[:3]):
        for name, value in old.asdict().items():
            if isinstance(value, str):  # the sign
                assert getattr(new, name) == value
            else:
                _close(name, getattr(new, name), value, a, b, t, 2 * MODEL_OPS + INPUT_OPS)
    # the amplitude's chain and two nested sums at most, for each system
    ops = 2 * (MODEL_OPS + 2 * _line_ops(spec)) + INPUT_OPS
    for name in ("semi_photon_charge", "semi_photon_mass"):
        old, new = here[3][name], there[3][name]
        _close(name, new.value, old.value, a, b, t, ops)
        _close(name, new.closed_form, old.closed_form, a, b, t, ops)
        # value is about half the closed form, so their difference is at
        # most 3 times as far off as either
        _close(name, new.abs_error, old.abs_error, a, b, t, 3 * ops)

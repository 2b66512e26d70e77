"""Deterministic quadrature of ring-wave charge and mass.

Every volume integral of the model factorizes into (cross-section
measure) x (line integral along the ring), because the densities
depend on arc length only.  The cross-section measure is S_c = pi
r_c^2 by default; the exact toroidal volume element can be switched
on to quantify how little it matters.  Each integral is a node list
(_nodes) and one sum (_sum); a line integral reads both densities from
one pass of the field kernel per wave, and consistency_reports computes
one section measure for its three reports.

Where the as-integrated value and the stated closed form disagree by
a constant factor, both are reported and the closed form stays
canonical for the derived-constants chain; the discrepancy_factor
field makes the gap visible instead of absorbing it.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import (_DERIVED, DomainError, EvaluationError, _Record, _require_count,
                     _require_number)
from .constants import PhysicalConstants
from .fields import (KIND_PHOTON, KIND_SEMI_PLUS, FieldConfiguration, _charge_column,
                     _mass_column, _points, twirled_field)
from .geometry import TorusShape, ring_from_radius
from .model import semi_photon_model

RULE_GAUSS5 = "gauss_legendre_5"
RULE_MIDPOINT = "midpoint"
RULES = (RULE_GAUSS5, RULE_MIDPOINT)  # also the CLI's `consistency --rule` values

# 5-point Gauss-Legendre nodes and weights on [-1, 1], ascending; exact
# through polynomial degree 9 per panel.  Closed forms (Abramowitz &
# Stegun 25.4.29):
#   nodes   0, +-(1/3) sqrt(5 -+ 2 sqrt(10/7))
#   weights 128/225, (322 +- 13 sqrt(70))/900
# written as the exact values to 17 significant digits, so each parses
# to the correctly rounded double (the closed forms evaluated in double
# can land 1 ulp off) and the weights sum to exactly 2.0.
_GL5_NODES = (
    -0.90617984593866399,
    -0.53846931010568309,
    0.0,
    0.53846931010568309,
    0.90617984593866399,
)
_GL5_WEIGHTS = (
    0.23692688505618909,
    0.47862867049936647,
    0.56888888888888889,
    0.47862867049936647,
    0.23692688505618909,
)


class QuadratureSpec(_Record):
    """Composite-rule parameters.

    panels : number of equal subintervals, an int >= 1 (not a bool)
    rule : gauss_legendre_5 or midpoint
    include_toroidal_jacobian : a bool; integrate the exact torus volume
        element over the cross-section instead of the flat measure pi r_c^2
    """

    panels: int = 64
    rule: str = RULE_GAUSS5
    include_toroidal_jacobian: bool = False

    def __post_init__(self) -> None:
        _require_count(self.panels, "panel count", 1)
        if self.rule not in RULES:
            raise DomainError(f"unknown quadrature rule {self.rule!r}")
        if type(self.include_toroidal_jacobian) is not bool:
            raise DomainError(f"include_toroidal_jacobian must be a bool, "
                              f"got {self.include_toroidal_jacobian!r}")


class IntegralReport(_Record):
    """Numerical value next to the stated closed form.

    section_factor is the ratio of the cross-section measure actually
    used to pi r_c^2 (1.0 unless the toroidal volume element is
    enabled).  Set at construction: abs_error = |value - closed_form|,
    and discrepancy_factor = value/closed_form when the closed form is
    nonzero, else None.
    """

    value: float
    closed_form: float
    abs_error: float = _DERIVED
    discrepancy_factor: float | None = _DERIVED
    section_factor: float

    def __post_init__(self) -> None:
        closed = self.closed_form
        object.__setattr__(self, "abs_error", abs(self.value - closed))
        object.__setattr__(self, "discrepancy_factor",
                           self.value / closed if closed != 0.0 else None)


def _nodes(a: float, b: float, spec: QuadratureSpec) -> list[float]:
    """Every node of the composite rule over [a, b], left to right: the
    panel midpoints, or each panel's Gauss nodes in turn."""
    if not (a < b and math.isfinite(b - a)):  # refuses NaN and infinite bounds
        raise DomainError(f"need a < b with a finite width, got [{a}, {b}]")
    h = (b - a) / spec.panels
    mids = [a + i * h + 0.5 * h for i in range(spec.panels)]
    if spec.rule == RULE_MIDPOINT:
        return mids
    offsets = [0.5 * h * node for node in _GL5_NODES]
    return [mid + offset for mid in mids for offset in offsets]


def _sum(a: float, b: float, xs: list[float], fxs: list[float], spec: QuadratureSpec) -> float:
    """The rule's sum over [a, b] of the values at its nodes, panel by panel, left to right;
    refuses a non-finite value (naming its node) or sum: either makes the total non-finite."""
    h = (b - a) / spec.panels
    total = 0.0
    # left to right on purpose: sum() is compensated from Python 3.12, so bits would vary by version
    if spec.rule == RULE_MIDPOINT:
        for fx in fxs:
            total += fx * h
    else:
        values = iter(fxs)
        for _ in range(spec.panels):
            panel = 0.0
            for weight, fx in zip(_GL5_WEIGHTS, values):  # stops at the fifth weight
                panel += weight * fx
            total += panel * 0.5 * h
    if not math.isfinite(total):
        for x, fx in zip(xs, fxs):
            if not math.isfinite(fx):
                raise EvaluationError(f"integrand not finite at l = {x}")
        raise EvaluationError(f"integral over [{a}, {b}] overflows")
    return total


def integrate_line(f: Callable[[float], float], a: float, b: float, spec: QuadratureSpec) -> float:
    """Composite quadrature of f over [a, b]: f at each node, left to right, and one sum."""
    nodes = _nodes(a, b, spec)
    return _sum(a, b, nodes, [f(x) for x in nodes], spec)


def section_measure(shape: TorusShape, spec: QuadratureSpec) -> float:
    """Cross-section measure used to factorize volume integrals, computed
    once per total_charge, total_mass or consistency_reports call.

    Flat measure: S_c = pi r_c^2.  With the toroidal volume element the
    measure is the section integral of (1 + (rho/r_s) cos theta) rho
    d rho d theta, whose cos theta term integrates to zero, so the two
    agree in exact arithmetic only: the rule's error over the section
    stays, and section_factor shows it (0.5 with one midpoint panel on
    the horn torus r_c = r_s).  Its theta nodes are placed, and cos theta
    tabulated, once per measure; the rule still forms (nodes per axis)^2
    products, one per (rho, theta) node pair.
    """
    if not spec.include_toroidal_jacobian:
        return shape.section_area
    r_c, r_s, two_pi = shape.r_c, shape.r_s, 2.0 * math.pi
    thetas, rhos = _nodes(0.0, two_pi, spec), _nodes(0.0, r_c, spec)
    cosines = [math.cos(t) for t in thetas]
    over_theta = [_sum(0.0, two_pi, thetas, [(1.0 + (rho / r_s) * c) * rho for c in cosines],
                       spec) for rho in rhos]
    return _sum(0.0, r_c, rhos, over_theta, spec)


def _section(cfg: FieldConfiguration, zeta: float, spec: QuadratureSpec) -> tuple[float, float]:
    """(measure used, pi r_c^2) of the torus of thinness zeta on the wave's ring."""
    _require_number(zeta, "zeta", 0.0, 1.0, "(]")
    r_k = cfg.geometry.r_k
    shape = TorusShape(r_k, zeta * r_k)
    return section_measure(shape, spec), shape.section_area


def _integral_reports(cfg: FieldConfiguration, section: tuple[float, float],
                      spec: QuadratureSpec, *columns: Callable) -> list[IntegralReport]:
    """s_used x the line integral of each density column of fields over the Hz of
    one _points pass, next to its closed form at s_flat; section = (s_used, s_flat).
    The semi-photon support [0, lambda/2] stands for the symmetric lobe centred on
    the field crest, integrated as twice the quarter wave next to the crest (the
    naive [0, lambda/2] integral of the signed density would vanish by odd symmetry
    about lambda/4 and say nothing); the photon's support is its full period."""
    s_used, s_flat = section
    photon, ring = cfg.kind == KIND_PHOTON, cfg.geometry
    closed_forms = {_charge_column: (0.0 if photon else cfg.sign) * cfg.e_o * s_flat / math.pi,
                    _mass_column: cfg.e_o * cfg.e_o * s_flat / (4.0 * ring.omega_K * ring.c)}
    lo, hi = cfg.support
    hi = hi if photon else 0.5 * (lo + hi)
    nodes = _nodes(lo, hi, spec)
    hz = [row[4] for row in _points(cfg, nodes)]  # each row is dropped once read
    lobes = 1.0 if photon else 2.0
    return [IntegralReport(s_used * (lobes * _sum(lo, hi, nodes, column(cfg, hz), spec)),
                           closed_forms[column], s_used / s_flat) for column in columns]


def total_charge(cfg: FieldConfiguration, zeta: float, spec: QuadratureSpec) -> IntegralReport:
    """Charge of the configuration on the torus of thinness zeta.

    Closed form: 0 for the full photon (the two lobes cancel), and
    +-(1/pi) E_o S_c for the semi-photon kinds.  The as-integrated
    lobe value is E_o S_c / 2pi, half the stated closed form; the
    factor is reported, and the closed form stays canonical downstream.
    """
    return _integral_reports(cfg, _section(cfg, zeta, spec), spec, _charge_column)[0]


def total_mass(cfg: FieldConfiguration, zeta: float, spec: QuadratureSpec) -> IntegralReport:
    """Field mass of a semi-photon on the torus of thinness zeta.

    Closed form E_o^2 S_c / (4 omega c).  The as-integrated value is
    half of it, the same factor the charge shows; reported, not
    absorbed.
    """
    if cfg.kind == KIND_PHOTON:
        raise DomainError(f"mass integral is defined for semi-photon kinds, got {cfg.kind!r}")
    return _integral_reports(cfg, _section(cfg, zeta, spec), spec, _mass_column)[0]


def consistency_reports(zeta: float, spec: QuadratureSpec,
                        k: PhysicalConstants) -> dict[str, IntegralReport]:
    """The `consistency` command's reports: total_charge of the photon, and
    total_charge and total_mass of the plus semi-photon, at the E_o of
    semi_photon_model(zeta, k) on its ring, from one section measure and
    one _points pass per wave."""
    model = semi_photon_model(zeta, k)
    ring = ring_from_radius(model.r_s, k.c)
    photon = twirled_field(KIND_PHOTON, model.e_o, ring)
    semi = twirled_field(KIND_SEMI_PLUS, model.e_o, ring)
    section = _section(semi, zeta, spec)
    [photon_charge] = _integral_reports(photon, section, spec, _charge_column)
    charge, mass = _integral_reports(semi, section, spec, _charge_column, _mass_column)
    return {"photon_charge": photon_charge, "semi_photon_charge": charge, "semi_photon_mass": mass}

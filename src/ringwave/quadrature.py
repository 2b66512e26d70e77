"""Deterministic quadrature of ring-wave charge, mass, and spin.

Every volume integral of the model factorizes into (cross-section
measure) x (line integral along the ring), because the densities
depend on arc length only.  The cross-section measure is S_c = pi
r_c^2 by default; the exact toroidal volume element can be switched
on to quantify how little it matters.

Where the as-integrated value and the stated closed form disagree by
a constant factor, both are reported and the closed form stays
canonical for the derived-constants chain; the discrepancy_factor
field makes the gap visible instead of absorbing it.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import _DERIVED, DomainError, EvaluationError, _Record
from .fields import KIND_PHOTON, FieldConfiguration, charge_density, mass_density
from .geometry import TorusShape

RULE_GAUSS5 = "gauss_legendre_5"
RULE_MIDPOINT = "midpoint"

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
        if not (type(self.panels) is int and self.panels >= 1):
            raise DomainError(f"panel count must be an integer >= 1, got {self.panels!r}")
        if self.rule not in (RULE_GAUSS5, RULE_MIDPOINT):
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


def integrate_line(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec,
) -> float:
    """Composite quadrature of f over [a, b], summed left to right."""
    if not (a < b and math.isfinite(b - a)):  # refuses NaN and infinite bounds
        raise DomainError(f"need a < b with a finite width, got [{a}, {b}]")
    h = (b - a) / spec.panels
    total = 0.0
    for i in range(spec.panels):
        lo = a + i * h
        if spec.rule == RULE_MIDPOINT:
            x = lo + 0.5 * h
            fx = f(x)
            if not math.isfinite(fx):
                raise EvaluationError(f"integrand not finite at l = {x}")
            total += fx * h
        else:
            mid = lo + 0.5 * h
            panel = 0.0
            for node, weight in zip(_GL5_NODES, _GL5_WEIGHTS):
                x = mid + 0.5 * h * node
                fx = f(x)
                if not math.isfinite(fx):
                    raise EvaluationError(f"integrand not finite at l = {x}")
                panel += weight * fx
            total += panel * 0.5 * h
    if not math.isfinite(total):
        raise EvaluationError(f"integral over [{a}, {b}] overflows")
    return total


def section_measure(shape: TorusShape, spec: QuadratureSpec) -> float:
    """Cross-section measure used to factorize volume integrals.

    Flat measure: S_c = pi r_c^2.  With the toroidal volume element the
    measure is the section integral of (1 + (rho/r_s) cos theta) rho
    d rho d theta, whose cos theta term integrates to zero exactly, so
    the two agree for any density constant across the section.
    """
    if not spec.include_toroidal_jacobian:
        return shape.section_area

    def over_theta(rho: float) -> float:
        jac = lambda theta: (1.0 + (rho / shape.r_s) * math.cos(theta)) * rho
        return integrate_line(jac, 0.0, 2.0 * math.pi, spec)

    return integrate_line(over_theta, 0.0, shape.r_c, spec)


def _lobe_integral(
    cfg: FieldConfiguration,
    density: Callable[[float], float],
    spec: QuadratureSpec,
) -> float:
    """Line integral of a density over the configured support.

    The photon support is the full period.  The semi-photon support
    [0, lambda/2] stands for the symmetric lobe centred on the field
    crest, so it is integrated as twice the quarter wave next to the
    crest (the naive [0, lambda/2] integral of the signed density
    would vanish by odd symmetry about lambda/4 and say nothing).
    """
    lo, hi = cfg.support
    if cfg.kind == KIND_PHOTON:
        return integrate_line(density, lo, hi, spec)
    return 2.0 * integrate_line(density, lo, 0.5 * (lo + hi), spec)


def _integral_report(
    cfg: FieldConfiguration,
    zeta: float,
    spec: QuadratureSpec,
    density: Callable[[float], float],
    closed_form: Callable[[float], float],
) -> IntegralReport:
    """Section measure x line integral of density over the torus of
    thinness zeta on the wave's ring, next to closed_form(pi r_c^2)."""
    r_k = cfg.geometry.r_k
    shape = TorusShape(r_k, zeta * r_k)
    s_flat = shape.section_area
    s_used = section_measure(shape, spec)
    value = s_used * _lobe_integral(cfg, density, spec)
    return IntegralReport(value, closed_form(s_flat), s_used / s_flat)


def total_charge(cfg: FieldConfiguration, zeta: float, spec: QuadratureSpec) -> IntegralReport:
    """Charge of the configuration on the torus of thinness zeta.

    Closed form: 0 for the full photon (the two lobes cancel), and
    +-(1/pi) E_o S_c for the semi-photon kinds.  The as-integrated
    lobe value is E_o S_c / 2pi, half the stated closed form; the
    factor is reported, and the closed form stays canonical downstream.
    """
    sign = 0.0 if cfg.kind == KIND_PHOTON else cfg.sign
    return _integral_report(cfg, zeta, spec, lambda l: charge_density(cfg, l),
                            lambda s_flat: sign * cfg.e_o * s_flat / math.pi)


def total_mass(cfg: FieldConfiguration, zeta: float, spec: QuadratureSpec) -> IntegralReport:
    """Field mass of a semi-photon on the torus of thinness zeta.

    Closed form E_o^2 S_c / (4 omega c).  The as-integrated value is
    half of it, the same factor the charge shows; reported, not
    absorbed.
    """
    if cfg.kind == KIND_PHOTON:
        raise DomainError(f"mass integral is defined for semi-photon kinds, got {cfg.kind!r}")
    omega, c = cfg.geometry.omega_K, cfg.geometry.c
    return _integral_report(
        cfg, zeta, spec, lambda l: mass_density(cfg, l),
        lambda s_flat: cfg.e_o * cfg.e_o * s_flat / (4.0 * omega * c),
    )

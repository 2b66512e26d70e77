"""Lorentz boosts of a plane-wave packet and invariance checks.

The three packet ratios E_o/omega, energy/omega, volume*omega are
claimed frame-invariant.  omega transforms through the wave
four-vector (Doppler factor), E_o through the electromagnetic
field-transformation law applied to explicit E and H vectors.  The
packet's photon and wavelength counts are frame-invariant, so energy
follows omega and volume the wavelength: the Doppler factor multiplies
energy and divides volume.  Only c1 is an independent check; c2 and c3
keep their unboosted values by algebra, and their drift is rounding
only.  Open item 4 of ROADMAP.md plans routes of their own for them,
and a gate that holds closer than ~1e-8 to beta = +1, where it fails.
A number or ratio that is subnormal, before or after the boost, is
refused: its coarse rounding would read as drift.  boost_packet boosts a
whole grid of betas, each alone: a frame does not depend on the others.

A packet travels along +x, E along +y and H along +z, and is boosted
along x: positive beta means the new frame recedes from the wave
(redshift), negative beta that it approaches (blueshift).  A boost
across the direction of travel is not modelled.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable

from .errors import DomainError, _Record, _require_number, _Vec3
from .model import _ratios


class WavePacket(_Record):
    """Monochromatic packet of plane waves travelling along +x.

    e_o statV/cm; omega rad/s; energy erg; volume cm^3.
    """

    e_o: float
    omega: float
    energy: float
    volume: float

    def __post_init__(self) -> None:
        _require_number(self.e_o, "packet e_o")
        _require_number(self.omega, "packet omega")
        _require_number(self.energy, "packet energy")
        _require_number(self.volume, "packet volume")


def boost_plane_fields(e: _Vec3, h: _Vec3, beta: _Vec3) -> tuple[_Vec3, _Vec3]:
    """Transform E and H into a frame moving at beta (units of c).

    Gaussian-unit law: E' = g(E + beta x H) - (g^2/(g+1))(beta . E) beta
    and the same with E <-> H, beta -> -beta under the cross product.
    Refuses |beta| >= 1, a NaN beta, and any E' or H' that is not
    finite: a NaN or infinite input gives one, and so does an overflow.
    """
    # by component, in the vector law's order of operations: each dot product
    # sums left to right, each cross component is one difference of products
    ex, ey, ez = e
    hx, hy, hz = h
    bx, by, bz = beta
    b2 = bx * bx + by * by + bz * bz
    if not b2 < 1.0:  # also a NaN beta
        raise DomainError(f"|beta| must be a finite number below 1, got {beta}")
    gamma = 1.0 / math.sqrt(1.0 - b2)
    coef = gamma * gamma / (gamma + 1.0)
    b_e = coef * (bx * ex + by * ey + bz * ez)
    b_h = coef * (bx * hx + by * hy + bz * hz)
    e_prime = (gamma * (ex + (by * hz - bz * hy)) - b_e * bx,
               gamma * (ey + (bz * hx - bx * hz)) - b_e * by,
               gamma * (ez + (bx * hy - by * hx)) - b_e * bz)
    h_prime = (gamma * (hx - (by * ez - bz * ey)) - b_h * bx,
               gamma * (hy - (bz * ex - bx * ez)) - b_h * by,
               gamma * (hz - (bx * ey - by * ex)) - b_h * bz)
    if not all(map(math.isfinite, e_prime + h_prime)):
        raise DomainError(f"boosted fields are not finite: E' = {e_prime}, H' = {h_prime}")
    return e_prime, h_prime


def boost_packet(p: WavePacket, betas: Iterable[float]
                 ) -> list[tuple[tuple[float, ...], tuple[float, float, float], float]]:
    """Boost the packet along x at each beta in (-1, 1): per beta, (the primed (e_o, omega,
    energy, volume), their ratios (c1, c2, c3), the ratios' worst drift |a/b - 1| from the
    packet's own).  Refuses a number or ratio that is 0.0 or subnormal, whose rounding is
    coarse: the packet's once per call, even for no beta, and a primed one at its beta."""
    e_o, omega, energy, volume = numbers = (p.e_o, p.omega, p.energy, p.volume)  # checked
    before = _ratios(*numbers)
    if min(*numbers, *before) < sys.float_info.min:  # the drift divides by each ratio
        raise DomainError(f"a number or ratio of {p} underflows to 0.0"
                          f" or a subnormal: ratios {before}")
    e, h = (0.0, e_o, 0.0), (0.0, 0.0, e_o)  # a packet along +x: E along +y, H along +z
    reports = []
    for beta in betas:
        _require_number(beta, "beta", -1.0, 1.0)
        # field-transformation route for the amplitude; |H'| = |E'| is tested, not used
        e_prime, _ = boost_plane_fields(e, h, (beta, 0.0, 0.0))
        e_o_prime = math.hypot(*e_prime)  # E'.E' would over- or underflow first
        doppler = math.sqrt((1.0 - beta) / (1.0 + beta))
        # photon and wavelength counts are frame-invariant: energy follows omega, volume lambda
        primed = (e_o_prime, omega * doppler, energy * doppler, volume / doppler)
        after = _ratios(*primed)
        if min(*primed, *after) < sys.float_info.min:
            raise DomainError(f"a number or ratio of {p} boosted at beta {beta} underflows"
                              f" to 0.0 or a subnormal: {primed}, ratios {after}")
        drift = max(abs(after[0] / before[0] - 1.0), abs(after[1] / before[1] - 1.0),
                    abs(after[2] / before[2] - 1.0))
        reports.append((primed, after, drift))
    return reports

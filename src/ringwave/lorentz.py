"""Lorentz boosts of a plane-wave packet and invariance checks.

The three packet ratios E_o/omega, energy/omega, volume*omega are
claimed frame-invariant.  The check here is deliberately
non-circular: omega transforms through the wave four-vector (Doppler
factor), E_o through the electromagnetic field-transformation law
applied to explicit E and H vectors, energy through photon-count
preservation, and volume through the boost-invariant count of
wavelengths in the packet.  Only after all four transform separately
are the ratios compared.

A packet is boosted along its own propagation direction: positive
beta means the new frame recedes from the wave (redshift), negative
beta that it approaches (blueshift).  A boost along any other axis is
not modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .constants import C_LIGHT, HBAR
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

_Vec3 = tuple[float, float, float]


@dataclass(frozen=True)
class WavePacket:
    """Monochromatic packet of plane waves.

    e_o statV/cm; omega rad/s; energy erg; volume cm^3; direction is
    the unit propagation vector.
    """

    e_o: float
    omega: float
    energy: float
    volume: float
    direction: tuple[float, float, float]

    def __post_init__(self) -> None:
        for name in ("e_o", "omega", "energy", "volume"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"packet {name} must be finite and positive: {value}")
        norm = math.sqrt(sum(d * d for d in self.direction))
        if not abs(norm - 1.0) <= 1e-12:  # also refuses a NaN component
            raise DomainError(f"direction must be a unit vector, |d| = {norm}")


@dataclass(frozen=True)
class BoostReport:
    """One boost: the primed packet and the worst invariant-ratio drift."""

    beta: float
    primed: WavePacket
    ratio_deviations: float


def _dot(u: _Vec3, v: _Vec3) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u: _Vec3, v: _Vec3) -> _Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _norm(v: _Vec3) -> float:
    return math.sqrt(_dot(v, v))


def _boost_fields(e: _Vec3, h: _Vec3, beta: _Vec3) -> tuple[_Vec3, _Vec3]:
    """Gaussian-unit field transformation on 3-tuples; see boost_plane_fields."""
    b2 = _dot(beta, beta)
    if b2 >= 1.0:
        raise DomainError("|beta| must be below 1")
    gamma = 1.0 / math.sqrt(1.0 - b2)
    coef = gamma * gamma / (gamma + 1.0)
    b_x_h = _cross(beta, h)
    b_x_e = _cross(beta, e)
    b_e = coef * _dot(beta, e)
    b_h = coef * _dot(beta, h)
    e_prime = tuple(gamma * (e[i] + b_x_h[i]) - b_e * beta[i] for i in range(3))
    h_prime = tuple(gamma * (h[i] - b_x_e[i]) - b_h * beta[i] for i in range(3))
    return e_prime, h_prime


def boost_plane_fields(
    e_vec: np.ndarray,
    h_vec: np.ndarray,
    beta_vec: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Transform E and H into a frame moving at beta_vec (units of c).

    Gaussian-unit law: E' = g(E + beta x H) - (g^2/(g+1))(beta . E) beta
    and the same with E <-> H, beta -> -beta under the cross product.
    """
    import numpy as np

    e_prime, h_prime = _boost_fields(tuple(e_vec), tuple(h_vec), tuple(beta_vec))
    return np.array(e_prime), np.array(h_prime)


def _transverse_basis(direction: _Vec3) -> tuple[_Vec3, _Vec3]:
    """Deterministic orthonormal pair perpendicular to direction."""
    ref = (0.0, 0.0, 1.0)
    if abs(_dot(direction, ref)) > 0.9:
        ref = (1.0, 0.0, 0.0)
    e1 = _cross(ref, direction)
    n1 = _norm(e1)
    e1 = tuple(x / n1 for x in e1)
    return e1, _cross(direction, e1)


def boost_packet(p: WavePacket, beta: float) -> BoostReport:
    """Boost the packet at beta along its direction and audit the invariants."""
    if not math.isfinite(beta) or abs(beta) >= 1.0:
        raise DomainError(f"|beta| must be a finite number below 1, got {beta}")
    if beta == 0.0:
        return BoostReport(beta=beta, primed=replace(p), ratio_deviations=0.0)

    k_hat = p.direction
    doppler = math.sqrt((1.0 - beta) / (1.0 + beta))
    omega_prime = p.omega * doppler

    # field-transformation route for the amplitude
    e1, h1 = _transverse_basis(k_hat)
    e_prime, h_prime = _boost_fields(
        tuple(p.e_o * x for x in e1),
        tuple(p.e_o * x for x in h1),
        tuple(beta * x for x in k_hat),
    )
    e_o_prime = _norm(e_prime)
    del h_prime  # magnitude equality is a tested property, not an input

    # photon count is frame-independent: energy = N hbar omega in every frame
    n_photons = p.energy / (HBAR * p.omega)
    energy_prime = n_photons * HBAR * omega_prime

    # wavelength count is frame-independent: volume = S N_lambda lambda
    lam = 2.0 * math.pi * C_LIGHT / p.omega
    lam_prime = 2.0 * math.pi * C_LIGHT / omega_prime
    volume_prime = (p.volume / lam) * lam_prime

    primed = WavePacket(
        e_o=e_o_prime,
        omega=omega_prime,
        energy=energy_prime,
        volume=volume_prime,
        direction=p.direction,
    )
    deviations = (
        abs((primed.e_o / primed.omega) / (p.e_o / p.omega) - 1.0),
        abs((primed.energy / primed.omega) / (p.energy / p.omega) - 1.0),
        abs((primed.volume * primed.omega) / (p.volume * p.omega) - 1.0),
    )
    return BoostReport(beta=beta, primed=primed, ratio_deviations=max(deviations))


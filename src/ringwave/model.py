"""Derived-constants chain of the ring-wave model.

The pair-threshold photon (energy 2 m_e c^2) fixes every geometric
scale: ring radius r_p = hbar/(2 m_e c), wavelength 2 pi r_p, angular
frequency 2 m_e c^2 / hbar.  Splitting that photon in half gives the
two semi-photons modelling the electron and positron.  Imposing
m_s = m_e on the semi-photon mass integral solves for the field
amplitude E_o, the charge q_s = zeta^2 E_o r_s^2 follows, and the
coupling alpha_s = q_s^2/(hbar c) collapses to (2/pi) zeta^2 with
every scale cancelling.
"""

from __future__ import annotations

import math
import sys

from .constants import PhysicalConstants
from .errors import DomainError, EvaluationError, _Record, _require_number

SIGN_PLUS = "plus"
SIGN_MINUS = "minus"


class PhotonModel(_Record):
    """Ring-photon parameters.

    energy erg; momentum g*cm/s; omega_p rad/s; lambda_p cm; r_p cm;
    s_p cross-section cm^2; volume cm^3; spin erg*s; mass_equivalent g;
    n photon count; nu linear frequency 1/s.
    """

    energy: float
    momentum: float
    omega_p: float
    lambda_p: float
    r_p: float
    s_p: float
    volume: float
    spin: float
    mass_equivalent: float
    n: float
    nu: float


class SemiPhotonModel(_Record):
    """Half of the pair-threshold photon: the electron/positron record.

    zeta : torus thinness ratio r_c/r_s
    e_o : field amplitude solved from the mass integral (statV/cm)
    r_s : ring radius (cm); omega_s : angular frequency (rad/s)
    q_s : charge, signed (statC); m_s : mass, imposed = m_e (g)
    alpha_s : q_s^2/(hbar c) = (2/pi) zeta^2
    sigma_s : spin hbar/2 (erg*s); mu_s : magnetic moment (erg/G)
    sign : "plus" or "minus"
    """

    zeta: float
    e_o: float
    r_s: float
    omega_s: float
    q_s: float
    m_s: float
    alpha_s: float
    sigma_s: float
    mu_s: float
    sign: str


def pair_threshold_photon(k: PhysicalConstants) -> PhotonModel:
    """The photon at the electron-positron production threshold."""
    energy = 2.0 * k.m_e * k.c * k.c
    omega = energy / k.hbar
    r_p = k.hbar / (2.0 * k.m_e * k.c)
    lambda_p = 2.0 * math.pi * r_p
    s_p = math.pi * r_p * r_p
    return PhotonModel(
        energy=energy, momentum=energy / k.c, omega_p=omega, lambda_p=lambda_p,
        r_p=r_p, s_p=s_p, volume=lambda_p * s_p, spin=k.hbar,
        mass_equivalent=energy / (k.c * k.c), n=1.0, nu=omega / (2.0 * math.pi),
    )


def invariant_constants(
    e_o: float, omega: float, energy: float, volume: float
) -> tuple[float, float, float]:
    """The three frame-invariant packet ratios (c1, c2, c3), each finite:
    E_o/omega, energy/omega and volume*omega.  For a physical photon c2
    is hbar.
    """
    for name, value in (("e_o", e_o), ("energy", energy), ("volume", volume)):
        _require_number(value, f"packet {name}", -math.inf)
    _require_number(omega, "frequency")
    return _ratios(e_o, omega, energy, volume)


def _ratios(e_o: float, omega: float, energy: float, volume: float) -> tuple[float, float, float]:
    """invariant_constants of numbers already checked; refuses an overflow."""
    ratios = (e_o / omega, energy / omega, volume * omega)
    if not all(map(math.isfinite, ratios)):
        raise DomainError(f"packet ratios of {e_o}, {omega}, {energy}, {volume}"
                          f" are not finite: {ratios}")
    return ratios


def uncertainty_min_length(energy: float, k: PhysicalConstants) -> tuple[float, float]:
    """Smallest packet length allowed by the uncertainty relation.

    Returns the bound in both algebraic forms, 2 pi hbar c / energy and
    (2 pi / alpha)(e^2 / energy), which must agree to 1e-9 relative.  An
    energy whose bound is below the smallest normal double is refused:
    there the forms round apart.
    """
    _require_number(energy, "energy")
    planck_form = 2.0 * math.pi * k.hbar * k.c / energy
    if planck_form < sys.float_info.min:
        raise DomainError(f"energy {energy} puts the bound below the smallest"
                          f" normal double: {planck_form}")
    alpha_form = (2.0 * math.pi / k.alpha_exp) * (k.e * k.e / energy)
    if abs(alpha_form / planck_form - 1.0) > 1e-9:
        raise EvaluationError(
            "uncertainty-bound forms disagree beyond 1e-9: "
            f"{planck_form} vs {alpha_form}"
        )
    return planck_form, alpha_form


def dispersion_omega(k_wave: float, mass: float, k: PhysicalConstants) -> float:
    """Frequency of a wave of wavenumber k_wave carrying rest mass.

    omega = sqrt(c^2 k^2 + m^2 c^4 / hbar^2); hypot keeps the massless
    branch exactly ck and the k = 0 branch exactly m c^2/hbar.  A
    frequency that overflows is refused.
    """
    _require_number(k_wave, "wave number", 0.0, math.inf, "[)")
    _require_number(mass, "mass", 0.0, math.inf, "[)")
    omega = math.hypot(k.c * k_wave, mass * k.c * k.c / k.hbar)
    if not math.isfinite(omega):
        raise DomainError(f"frequency overflows at k = {k_wave}, mass = {mass}")
    return omega


def magnetic_moment(
    q: float,
    r_s: float,
    omega_s: float,
    c: float,
    thomas: bool = False,
) -> float:
    """Moment of the ring current I = q omega/2pi over area pi r_s^2.

    Gaussian current-loop formula mu = I S / c; the optional Thomas
    factor, a bool, doubles it.  A moment that overflows is refused.
    """
    if type(thomas) is not bool:
        raise DomainError(f"thomas must be a bool, got {thomas!r}")
    _require_number(q, "charge", -math.inf)
    for name, value in (("ring radius", r_s), ("ring frequency", omega_s), ("wave speed", c)):
        _require_number(value, name)
    mu = (q * omega_s / (2.0 * math.pi)) * (math.pi * r_s * r_s) / c * (2.0 if thomas else 1.0)
    if not math.isfinite(mu):
        raise DomainError(f"magnetic moment overflows at q = {q}, r_s = {r_s}")
    return mu


def semi_photon_model(
    zeta: float,
    k: PhysicalConstants,
    sign: str = SIGN_PLUS,
) -> SemiPhotonModel:
    """Build the semi-photon record for thinness ratio zeta.

    m_s = m_e is the imposed anchor; the amplitude E_o is solved from
    the mass closed form m_s = E_o^2 S_c/(4 omega_s c) with
    S_c = pi zeta^2 r_s^2.  Radius and frequency are those of the
    pair-threshold photon.  The spin is hbar/2 by construction: r_s =
    hbar/(2 m_e c) is sigma_s/p_s.  Raises EvaluationError when zeta is
    so small that E_o overflows.
    """
    _require_number(zeta, "zeta", 0.0, 1.0, "(]")
    if sign not in (SIGN_PLUS, SIGN_MINUS):
        raise DomainError(f"sign must be plus or minus, got {sign!r}")
    photon = pair_threshold_photon(k)
    r_s, omega_s = photon.r_p, photon.omega_p
    m_s = k.m_e
    s_c = math.pi * (zeta * r_s) ** 2
    e_o = math.sqrt(4.0 * m_s * omega_s * k.c / s_c) if s_c > 0.0 else math.inf
    if not math.isfinite(e_o):
        raise EvaluationError(f"field amplitude E_o overflows at zeta = {zeta}")
    q_mag = zeta * zeta * e_o * r_s * r_s
    q_s = q_mag if sign == SIGN_PLUS else -q_mag
    return SemiPhotonModel(
        zeta=zeta, e_o=e_o, r_s=r_s, omega_s=omega_s, q_s=q_s, m_s=m_s,
        alpha_s=q_mag * q_mag / (k.hbar * k.c), sigma_s=0.5 * k.hbar,
        mu_s=magnetic_moment(q_s, r_s, omega_s, k.c), sign=sign,
    )


"""Universal constants and electron length scales, Gaussian CGS throughout.

Values are CODATA 2018.  The elementary charge is carried in
electrostatic units (statcoulomb) so that the fine-structure constant
is alpha = e^2 / (hbar c) with no vacuum-permittivity factor.

hbar is stored, and h is 2 pi hbar wherever it is needed.  hbar is the
exact h = 6.62607015e-27 over 2 pi in double precision, so 2 pi hbar gives
h back bit for bit; the rounded published decimal 1.054571817e-27, which
it matches to 7e-10, would break h = 2 pi hbar at the 4e-10 level.
"""

from __future__ import annotations

import math

from .errors import _Record, _require_number


class PhysicalConstants(_Record):
    """Bundle of universal constants; the Planck constant h is 2 pi hbar.

    c : speed of light (cm/s)
    hbar : reduced Planck constant (erg*s)
    e : elementary charge (statC)
    m_e : electron mass (g)
    alpha_exp : measured fine-structure constant (dimensionless)
    """

    c: float
    hbar: float
    e: float
    m_e: float
    alpha_exp: float

    def __post_init__(self) -> None:
        for name in self.fields:
            _require_number(getattr(self, name), f"constant {name}")


def codata_constants() -> PhysicalConstants:
    """Return the CODATA 2018 constants in Gaussian CGS units."""
    return PhysicalConstants(
        c=2.99792458e10,  # cm/s (exact)
        hbar=6.62607015e-27 / (2.0 * math.pi),  # erg*s: the exact h over 2 pi
        e=4.803204712570263e-10,  # statC
        m_e=9.1093837015e-28,  # g
        alpha_exp=7.2973525693e-3,  # dimensionless, measured
    )


def electron_scales(k: PhysicalConstants) -> tuple[float, float]:
    """(r_0, lambda_bar_c) in cm from k: the classical electron radius
    e^2 / (m_e c^2) and the reduced Compton wavelength hbar / (m_e c).
    Refuses constants for which m_e c^2 or a scale over- or underflows."""
    m_c = k.m_e * k.c
    _require_number(m_c * k.c, f"m_e c^2 of {k}")  # so m_e c is finite and positive too
    r_0, lambda_bar_c = k.e * k.e / (m_c * k.c), k.hbar / m_c
    _require_number(r_0, f"r_0 of {k}")
    _require_number(lambda_bar_c, f"lambda_bar_c of {k}")
    return r_0, lambda_bar_c

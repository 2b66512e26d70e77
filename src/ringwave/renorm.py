"""Vacuum-polarization arithmetic linking bare and measured charge.

The vacuum screens the bare charge like a dielectric: the measured
coupling is the bare one divided by an effective permittivity eps_v.
With alpha_bare = 2/pi from the ring model and the measured
fine-structure constant, eps_v = alpha_bare/alpha_exp comes out near
87.2 and the bare charge is sqrt(eps_v) elementary charges.  The bare
interaction radius r_0/alpha_exp lands on the reduced Compton
wavelength.
"""

from __future__ import annotations

import math

from .constants import PhysicalConstants, electron_scales
from .errors import _Record, _require_number


class VacuumPolarization(_Record):
    """Screening summary.

    eps_v : vacuum dielectric permeability, alpha_bare/alpha_exp
    alpha_bare, alpha_exp : couplings before and after screening
    q_bare, q_exp : charges before and after screening (statC)
    r_bare : bare interaction radius r_0/alpha_exp (cm)
    r_0 : classical electron radius (cm)
    """

    eps_v: float
    alpha_bare: float
    alpha_exp: float
    q_bare: float
    q_exp: float
    r_bare: float
    r_0: float


def vacuum_polarization(alpha_bare: float, k: PhysicalConstants) -> VacuumPolarization:
    """Screen a bare coupling down to the measured one.

    Requires alpha_bare > alpha_exp: screening only ever weakens the
    interaction.  A coupling whose eps_v overflows is refused, and so are
    constants whose r_0 or r_bare over- or underflows.  q_bare = e sqrt(eps_v)
    needs no check: it lies between e and sqrt(e^2 eps_v), both finite.
    """
    _require_number(alpha_bare, "bare coupling", k.alpha_exp)
    eps_v = alpha_bare / k.alpha_exp
    _require_number(eps_v, f"eps_v of bare coupling {alpha_bare}")
    r_0, _ = electron_scales(k)
    r_bare = r_0 / k.alpha_exp
    _require_number(r_bare, f"r_bare of r_0 = {r_0} and alpha_exp = {k.alpha_exp}")
    return VacuumPolarization(
        eps_v=eps_v, alpha_bare=alpha_bare, alpha_exp=k.alpha_exp,
        q_bare=k.e * math.sqrt(eps_v), q_exp=k.e, r_bare=r_bare, r_0=r_0,
    )

"""Field configurations and pointwise densities of the ring wave.

A plane-polarized wave of amplitude E_o is wound once around a ring
whose circumference equals the wavelength.  The electric vector lies
along the outward radial direction of the ring plane, the magnetic
vector along -z, the ring axis, both modulated by the same cos(k l)
envelope fixed to the ring.  The "semi photon" kinds carry the same
envelope on half of the ring only and model the electron (plus) and
positron (minus); the minus kind is the pointwise negation of the
plus kind.  The charge and mass densities are closed-form columns
over the field kernel's rows, read from Hz = -a.

Time derivatives are taken along the material point circulating at
the wave speed through the static envelope: for a quantity Q(l)
attached to the moving point, dQ/dt = c dQ/dl.  That single
convention produces both terms of the displacement-current split
(the radial rate term and the curvature term omega_K E tau) and is
the one the finite-difference oracles in the tests differentiate.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import _DERIVED, DomainError, _Record, _require_count, _require_number, _Vec3
from .geometry import RingGeometry, _outward

# the kinds are also the CLI's `fields --kind` values
KIND_PHOTON = "photon"
KIND_SEMI_PLUS = "semiplus"
KIND_SEMI_MINUS = "semiminus"

TWIRLED_KINDS = (KIND_PHOTON, KIND_SEMI_PLUS, KIND_SEMI_MINUS)
_E_O_SQUARE_MAX = 1.3407807929942596e154  # the largest E_o whose square is finite
_SUPPORT_ULPS = 4  # how far past either end of its support a wave reaches, in ulps of lambda


class FieldConfiguration(_Record):
    """Immutable description of one wave configuration.

    kind : one of photon / semiplus / semiminus
    e_o : field amplitude (statV/cm), positive
    geometry : the ring the wave is wound on; its circumference is the
        wavelength, so its K and omega_K are the wave number and frequency

    Set at construction:
    support : arc-length interval carrying the field, [0, lambda] for the
        photon and [0, lambda/2] for the semi-photon kinds
    """

    kind: str
    e_o: float
    geometry: RingGeometry
    support: tuple[float, float] = _DERIVED

    def __post_init__(self) -> None:
        if self.kind not in TWIRLED_KINDS:
            raise DomainError(f"not a twirled kind: {self.kind!r}")
        _require_number(self.e_o, "field amplitude")
        if not math.isfinite(self.e_o * self.geometry.omega_K):  # bounds |jn| and |jtau|
            raise DomainError(f"displacement current overflows at amplitude {self.e_o:g}")
        lam = self.geometry.circumference
        hi = lam if self.kind == KIND_PHOTON else 0.5 * lam
        object.__setattr__(self, "support", (0.0, hi))

    @property
    def sign(self) -> float:
        return -1.0 if self.kind == KIND_SEMI_MINUS else 1.0


def twirled_field(kind: str, e_o: float, ring: RingGeometry) -> FieldConfiguration:
    """Wind one wave period onto the ring.

    The frequency is fixed by the ring: omega = omega_K = c/r_k, so the
    circumference holds exactly one wavelength.  Semi-photon kinds get
    half the ring as support.
    """
    return FieldConfiguration(kind, e_o, ring)


def _ring_phase(cfg: FieldConfiguration, l: float) -> float | None:
    """Phase k l of a finite l (_points refuses any other), l wrapped by one
    circumference.  None outside the configured support, which reaches
    _SUPPORT_ULPS ulps of the circumference past either end, for rounding:
    just before the start the phase is k l itself, a little below 0.
    """
    ring, end = cfg.geometry, cfg.support[1]
    lam = ring.circumference
    lw = l % lam
    if lw > end:
        tol = _SUPPORT_ULPS * math.ulp(lam)
        if lw >= lam - tol:  # just before the start: l wrapped up by one circumference
            lw -= lam
        elif lw > end + tol:
            return None
    return ring.K * lw


def _points(cfg: FieldConfiguration, ls: Iterable[float]) -> Iterator[tuple[float, ...]]:
    """x, y, Ex, Ey, Hz, jn, jtau at each arc length of ls, as floats, one
    row yielded per l, so a caller holds only the rows it keeps.

    The one evaluation behind field_at, sample_grid, displacement_current, the `fields`
    CSV and the density columns, so the one envelope a = sign E_o cos(k l) = -Hz.  Its
    coefficients are computed once per call, in the one-point order of operations, so a
    row does not depend on the rest of ls; _outward refuses a non-finite l first.
    """
    ring = cfg.geometry
    r_k = ring.r_k
    amp = cfg.sign * cfg.e_o  # a = amp cos(theta)
    rate = -cfg.sign * cfg.e_o * ring.omega_K
    inv4pi = 1.0 / (4.0 * math.pi)
    radial, curvature = -inv4pi, inv4pi * ring.omega_K
    for l in ls:
        cp, sp = _outward(ring, l)
        theta = _ring_phase(cfg, l)
        a = da_dt = 0.0
        if theta is not None:
            a = amp * math.cos(theta)
            da_dt = rate * math.sin(theta)  # c a'(l): the envelope rate seen by the moving point
        yield r_k * cp, r_k * sp, a * cp, a * sp, -a, radial * da_dt, curvature * a


def _grid(cfg: FieldConfiguration, n: int) -> list[float]:
    """n equally spaced arc lengths over the support, endpoints inclusive:
    linspace(lo, hi, n) bit for bit (i*step + lo, the last point hi)."""
    _require_count(n, "sample count", 2)
    lo, hi = cfg.support
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def field_at(cfg: FieldConfiguration, l: float) -> tuple[_Vec3, _Vec3]:
    """E and H vectors at arc length l.

    E = a(l) * r_out, H = a(l) * (tau x r_out), so that E x H points
    along the direction of travel and |E| = |H| holds pointwise.  In the
    ring plane tau x r_out = -z, so H = -a(l) z.
    """
    [(_, _, ex, ey, hz, _, _)] = _points(cfg, (l,))
    return (ex, ey, 0.0), (0.0, 0.0, hz)


def sample_grid(cfg: FieldConfiguration, n: int) -> list[tuple[float, _Vec3, _Vec3]]:
    """(l, E, H) at n equally spaced arc lengths over the support, ends included."""
    ls = _grid(cfg, n)
    return [(l, (r[2], r[3], 0.0), (0.0, 0.0, r[4])) for l, r in zip(ls, _points(cfg, ls))]


def displacement_current(cfg: FieldConfiguration, l: float) -> tuple[float, float]:
    """Displacement current (1/4pi) dE/dt as (j_n, j_tau) (statA/cm^2),
    the signed coefficients along the centripetal normal n and the
    tangent tau of frenet_at.

    Differentiating E(l(t)) = a(l(t)) r_out(l(t)) along the material
    trajectory l(t) = l + c t gives

        (1/4pi) dE/dt = -(1/4pi) c a'(l) n  +  (1/4pi) omega_K a(l) tau

    because r_out = -n and d r_out / dl = K tau.  The first term is the
    radial rate of the envelope, the second the curvature (ring
    current) term.  Both vanish outside the support.
    """
    return next(_points(cfg, (l,)))[5:]


def _charge_column(cfg: FieldConfiguration, hz: Iterable[float]) -> list[float]:
    """Charge density rho_p = (1/4pi)(omega/c) a = (1/4pi) a/r at each Hz = -a of
    _points rows: signed with the field, so it flips every half period."""
    k = cfg.geometry.K / (4.0 * math.pi)
    return [k * -h for h in hz]


def _mass_column(cfg: FieldConfiguration, hz: Iterable[float]) -> list[float]:
    """Mass density rho_eps/c^2 = a^2/4pi/c^2 at each Hz = -a, c the ring's wave speed:
    the energy density (E^2 + H^2)/8pi is a^2/4pi, as |E| = |H| = |a|.  Refuses, before
    it reads Hz, an E_o that FieldConfiguration takes but whose square overflows."""
    if cfg.e_o > _E_O_SQUARE_MAX:
        raise DomainError(f"energy density overflows at amplitude {cfg.e_o:g}")
    four_pi, c2 = 4.0 * math.pi, cfg.geometry.c * cfg.geometry.c
    return [h * h / four_pi / c2 for h in hz]  # Hz^2 = a^2


def charge_density(cfg: FieldConfiguration, l: float) -> float:
    """Charge density at arc length l: _charge_column's one-point case."""
    return _charge_column(cfg, (row[4] for row in _points(cfg, (l,))))[0]


def mass_density(cfg: FieldConfiguration, l: float) -> float:
    """Mass density at arc length l: _mass_column's one-point case."""
    return _mass_column(cfg, (row[4] for row in _points(cfg, (l,))))[0]

"""Field configurations and pointwise densities of the ring wave.

A plane-polarized wave of amplitude E_o is wound once around a ring
whose circumference equals the wavelength.  The electric vector lies
along the outward radial direction of the ring plane, the magnetic
vector along -z, the ring axis, both modulated by the same cos(k l)
envelope fixed to the ring.  The "semi photon" kinds carry the same
envelope on half of the ring only and model the electron (plus) and
positron (minus); the minus kind is the pointwise negation of the
plus kind.  The charge, energy and mass densities are closed-form
scalars of arc length.

Time derivatives are taken along the material point circulating at
the wave speed through the static envelope: for a quantity Q(l)
attached to the moving point, dQ/dt = c dQ/dl.  That single
convention produces both terms of the displacement-current split
(the radial rate term and the curvature term omega_K E tau) and is
the one the finite-difference oracles in the tests differentiate.
"""

from __future__ import annotations

import math

from .errors import _DERIVED, DomainError, _Record, _require_positive, _Vec3
from .geometry import RingGeometry, _outward

# the kinds are also the CLI's `fields --kind` values
KIND_PHOTON = "photon"
KIND_SEMI_PLUS = "semiplus"
KIND_SEMI_MINUS = "semiminus"

TWIRLED_KINDS = (KIND_PHOTON, KIND_SEMI_PLUS, KIND_SEMI_MINUS)
_E_O_SQUARE_MAX = 1.3407807929942596e154  # the largest E_o whose square is finite


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
        _require_positive({"field amplitude": self.e_o})
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


def amplitude_at(cfg: FieldConfiguration, l: float) -> float:
    """Signed radial field amplitude a(l) = sign * E_o cos(k l).

    Zero outside the configured support, after wrapping l by one
    circumference.
    """
    theta = _ring_phase(cfg, l)
    return 0.0 if theta is None else _envelope(cfg, theta)


def _envelope(cfg: FieldConfiguration, theta: float) -> float:
    """a = sign * E_o cos(theta) at ring phase theta."""
    return cfg.sign * cfg.e_o * math.cos(theta)


def _ring_phase(cfg: FieldConfiguration, l: float) -> float | None:
    """Phase k l, l wrapped by one circumference.

    None outside the configured support, which ends at support[1] give
    or take rounding.  Refuses a NaN or infinite l, which wraps to NaN;
    a point on the support pays no check for it.
    """
    ring = cfg.geometry
    lw = l % ring.circumference
    if not lw <= cfg.support[1]:  # past the support, or NaN
        if not math.isfinite(l):
            raise DomainError(f"arc length must be finite: {l}")
        if not math.isclose(lw, cfg.support[1]):
            return None
    return ring.K * lw


def _point(cfg: FieldConfiguration, l: float) -> tuple[float, ...]:
    """x, y, Ex, Ey, Hz, jn, jtau at arc length l, as floats.

    The one evaluation behind field_at, displacement_current and the
    `fields` CSV; those two give the physics.  _outward refuses a
    non-finite l before _ring_phase needs to.
    """
    ring = cfg.geometry
    cp, sp = _outward(ring, l)
    theta = _ring_phase(cfg, l)
    a = da_dt = 0.0
    if theta is not None:
        a = _envelope(cfg, theta)
        # envelope rate seen by the moving point: c a'(l)
        da_dt = -cfg.sign * cfg.e_o * ring.omega_K * math.sin(theta)
    inv4pi = 1.0 / (4.0 * math.pi)
    return (ring.r_k * cp, ring.r_k * sp, a * cp, a * sp, -a,
            -inv4pi * da_dt, inv4pi * ring.omega_K * a)


def _grid(cfg: FieldConfiguration, n: int) -> list[float]:
    """n equally spaced arc lengths over the support, endpoints inclusive:
    linspace(lo, hi, n) bit for bit (i*step + lo, the last point hi)."""
    if n < 2:
        raise DomainError("need at least 2 samples")
    lo, hi = cfg.support
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def field_at(cfg: FieldConfiguration, l: float) -> tuple[_Vec3, _Vec3]:
    """E and H vectors at arc length l.

    E = a(l) * r_out, H = a(l) * (tau x r_out), so that E x H points
    along the direction of travel and |E| = |H| holds pointwise.  In the
    ring plane tau x r_out = -z, so H = -a(l) z.
    """
    _, _, ex, ey, hz, _, _ = _point(cfg, l)
    return (ex, ey, 0.0), (0.0, 0.0, hz)


def sample_grid(cfg: FieldConfiguration, n: int) -> list[tuple[float, _Vec3, _Vec3]]:
    """(l, E, H) at n equally spaced arc lengths over the support, ends included."""
    return [(l, *field_at(cfg, l)) for l in _grid(cfg, n)]


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
    return _point(cfg, l)[5:]


def charge_density(cfg: FieldConfiguration, l: float) -> float:
    """Charge density rho_p(l) = (1/4pi)(omega/c) E(l) = (1/4pi) E(l)/r.

    Signed with the field, so it flips every half period.
    """
    return cfg.geometry.K / (4.0 * math.pi) * amplitude_at(cfg, l)


def energy_density(cfg: FieldConfiguration, l: float) -> float:
    """Energy density (E^2 + H^2)/8pi = a(l)^2/4pi, as |E| = |H| = |a(l)|;
    refuses an amplitude E_o that FieldConfiguration takes but whose square overflows."""
    if cfg.e_o > _E_O_SQUARE_MAX:
        raise DomainError(f"energy density overflows at amplitude {cfg.e_o:g}")
    a = amplitude_at(cfg, l)
    return a * a / (4.0 * math.pi)


def mass_density(cfg: FieldConfiguration, l: float) -> float:
    """Mass density rho_eps(l)/c^2 at the ring's wave speed c."""
    c = cfg.geometry.c
    return energy_density(cfg, l) / (c * c)

"""Ring geometry, Frenet frame, and torus measures.

The ring lies in the z = 0 plane, centred on the origin, traversed
counter-clockwise when seen from +z; a clockwise ring is its mirror
image in y, with the same charge, mass and invariants.  Arc length l
parameterises the circle; the phase angle is l / r_k.
The normal vector used throughout is the centripetal one (pointing at
the axis), so the Frenet relation reads dT/dl = +K n.
"""

from __future__ import annotations

import math

from .errors import _DERIVED, DomainError, _Record, _require_number, _Vec3


class RingGeometry(_Record):
    """A circle of radius r_k travelled at the wave speed c.

    r_k : ring radius (cm)
    c : wave speed (cm/s)

    Set at construction, for the wave wound on the ring:
    K : curvature 1/r_k, its wave number (1/cm)
    omega_K : angular speed c/r_k, its frequency (rad/s)
    circumference : 2 pi r_k, its wavelength (cm)
    """

    r_k: float
    c: float
    K: float = _DERIVED
    omega_K: float = _DERIVED
    circumference: float = _DERIVED

    def __post_init__(self) -> None:
        _require_number(self.r_k, "ring radius")
        _require_number(self.c, "wave speed")
        derived = {"K": 1.0 / self.r_k, "omega_K": self.c / self.r_k,
                   "circumference": 2.0 * math.pi * self.r_k}
        for name, value in derived.items():
            _require_number(value, f"ring of radius {self.r_k} at speed {self.c}: {name}")
            object.__setattr__(self, name, value)


class TorusShape(_Record):
    """Torus with ring radius r_s and cross-section radius r_c.

    The thinness ratio zeta = r_c / r_s must lie in (0, 1]; zeta = 1 is
    the degenerate horn torus.
    """

    r_s: float
    r_c: float

    def __post_init__(self) -> None:
        _require_number(self.r_s, "torus ring radius")
        _require_number(self.r_c, "torus section radius", 0.0, self.r_s, "(]")  # zeta in (0, 1]
        _require_number(self.section_area, f"torus section area at r_c = {self.r_c}")

    @property
    def section_area(self) -> float:
        """Flat cross-section measure pi r_c^2."""
        return math.pi * self.r_c * self.r_c


def ring_from_radius(r_k: float, c: float) -> RingGeometry:
    """Build the ring record for radius r_k and wave speed c."""
    return RingGeometry(r_k, c)


def _outward(ring: RingGeometry, l: float) -> tuple[float, float]:
    """Outward radial unit vector (cos phi, sin phi), phi = l / r_k; refuses
    a phi that is not finite (l NaN or infinite, or l / r_k overflowing)."""
    phi = l / ring.r_k
    if not math.isfinite(phi):
        raise DomainError(f"arc length {l} has no finite phase on a ring of radius {ring.r_k}")
    return math.cos(phi), math.sin(phi)


def frenet_at(ring: RingGeometry, l: float) -> tuple[_Vec3, _Vec3, _Vec3]:
    """(position, unit tangent, centripetal unit normal) at arc length l: the
    right-handed moving frame, periodic in l with the circumference as period."""
    cp, sp = _outward(ring, l)
    return (ring.r_k * cp, ring.r_k * sp, 0.0), (-sp, cp, 0.0), (-cp, -sp, 0.0)


def normal_rate(ring: RingGeometry, v: float, l: float) -> _Vec3:
    """Time derivative of the centripetal normal for a point moving at v.

    With phase phi advancing at v K, d n / d t = -v K tangent: the
    normal swings backward along the direction of travel.
    """
    _require_number(v, "speed", 0.0, math.inf, "[)")
    if not math.isfinite(v * ring.K):
        raise DomainError(f"normal rate v K overflows at speed {v}")
    return tuple(-v * ring.K * t for t in frenet_at(ring, l)[1])

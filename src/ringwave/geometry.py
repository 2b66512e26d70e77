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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class RingGeometry:
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
    K: float = field(init=False)
    omega_K: float = field(init=False)
    circumference: float = field(init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_k) and self.r_k > 0.0):
            raise DomainError(f"ring radius must be finite and positive: {self.r_k}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise DomainError(f"wave speed must be finite and positive: {self.c}")
        derived = {"K": 1.0 / self.r_k, "omega_K": self.c / self.r_k,
                   "circumference": 2.0 * math.pi * self.r_k}
        for name, value in derived.items():
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(
                    f"ring of radius {self.r_k} at speed {self.c} has {name} = {value}"
                )
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class FrenetFrame:
    """Right-handed moving frame at a point of the ring."""

    position: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray


@dataclass(frozen=True)
class TorusShape:
    """Torus with ring radius r_s and cross-section radius r_c.

    The thinness ratio zeta = r_c / r_s must lie in (0, 1]; zeta = 1 is
    the degenerate horn torus.
    """

    r_s: float
    r_c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_s) and self.r_s > 0.0):
            raise DomainError(f"torus ring radius must be finite and positive: {self.r_s}")
        if not (math.isfinite(self.r_c) and self.r_c > 0.0):
            raise DomainError(f"torus section radius must be finite and positive: {self.r_c}")
        if self.r_c > self.r_s:
            raise DomainError(
                f"section radius {self.r_c} exceeds ring radius {self.r_s}"
                " (zeta must lie in (0, 1])"
            )
        if not (math.isfinite(self.section_area) and self.section_area > 0.0):
            raise DomainError(f"torus section area is {self.section_area} at r_c = {self.r_c}")

    @property
    def section_area(self) -> float:
        """Flat cross-section measure pi r_c^2."""
        return math.pi * self.r_c * self.r_c


def ring_from_radius(r_k: float, c: float) -> RingGeometry:
    """Build the ring record for radius r_k and wave speed c."""
    return RingGeometry(r_k, c)


def _outward(ring: RingGeometry, l: float) -> tuple[float, float]:
    """Outward radial unit vector (cos phi, sin phi), phi = l / r_k."""
    phi = l / ring.r_k
    return math.cos(phi), math.sin(phi)


def frenet_at(ring: RingGeometry, l: float) -> FrenetFrame:
    """Position, unit tangent and centripetal unit normal at arc length l.

    Periodic in l with period equal to the circumference.
    """
    import numpy as np

    cp, sp = _outward(ring, l)
    position = np.array([ring.r_k * cp, ring.r_k * sp, 0.0])
    tangent = np.array([-sp, cp, 0.0])
    normal = np.array([-cp, -sp, 0.0])  # points at the ring axis
    return FrenetFrame(position=position, tangent=tangent, normal=normal)


def normal_rate(ring: RingGeometry, v: float, l: float) -> np.ndarray:
    """Time derivative of the centripetal normal for a point moving at v.

    With phase phi advancing at v K, d n / d t = -v K tangent: the
    normal swings backward along the direction of travel.
    """
    if not (math.isfinite(v * ring.K) and v >= 0.0):  # also refuses NaN and inf
        raise DomainError(f"speed must be non-negative with v K finite: {v}")
    frame = frenet_at(ring, l)
    return -v * ring.K * frame.tangent


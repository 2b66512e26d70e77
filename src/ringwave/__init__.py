"""Ring-wave model of the photon and the electron-positron pair.

A plane electromagnetic wave wound onto a circular ring of one
wavelength circumference, in Gaussian CGS units: geometry and Frenet
kinematics, field sampling, displacement-current decomposition,
charge/mass quadrature over the torus, the derived coupling constant
2/pi, vacuum-polarization screening, and Lorentz-invariance checks.
"""

from .constants import (
    ElectronScales,
    PhysicalConstants,
    codata_constants,
    electron_scales,
)
from .errors import (
    DomainError,
    EvaluationError,
    RingwaveError,
    UnsupportedConfigurationError,
)
from .fields import (
    KIND_PHOTON,
    KIND_SEMI_MINUS,
    KIND_SEMI_PLUS,
    CurrentDecomposition,
    FieldConfiguration,
    FieldSample,
    charge_density,
    displacement_current,
    energy_density,
    field_at,
    mass_density,
    sample_grid,
    twirled_field,
)
from .geometry import (
    FrenetFrame,
    RingGeometry,
    TorusShape,
    frenet_at,
    normal_rate,
    ring_from_radius,
)
from .lorentz import (
    BoostReport,
    WavePacket,
    boost_packet,
    boost_plane_fields,
)
from .model import (
    InvariantConstants,
    PhotonModel,
    SemiPhotonModel,
    dispersion_omega,
    invariant_constants,
    magnetic_moment,
    pair_threshold_photon,
    semi_photon_model,
    split_photon,
    uncertainty_min_length,
)
from .quadrature import (
    RULE_GAUSS5,
    RULE_MIDPOINT,
    IntegralReport,
    QuadratureSpec,
    integrate_line,
    section_measure,
    total_charge,
    total_mass,
)
from .renorm import (
    VacuumPolarization,
    vacuum_polarization,
)

__version__ = "0.1.0"

__all__ = [
    "ElectronScales",
    "PhysicalConstants",
    "codata_constants",
    "electron_scales",
    "DomainError",
    "EvaluationError",
    "RingwaveError",
    "UnsupportedConfigurationError",
    "KIND_PHOTON",
    "KIND_SEMI_MINUS",
    "KIND_SEMI_PLUS",
    "CurrentDecomposition",
    "FieldConfiguration",
    "FieldSample",
    "charge_density",
    "displacement_current",
    "energy_density",
    "field_at",
    "mass_density",
    "sample_grid",
    "twirled_field",
    "FrenetFrame",
    "RingGeometry",
    "TorusShape",
    "frenet_at",
    "normal_rate",
    "ring_from_radius",
    "BoostReport",
    "WavePacket",
    "boost_packet",
    "boost_plane_fields",
    "InvariantConstants",
    "PhotonModel",
    "SemiPhotonModel",
    "dispersion_omega",
    "invariant_constants",
    "magnetic_moment",
    "pair_threshold_photon",
    "semi_photon_model",
    "split_photon",
    "uncertainty_min_length",
    "RULE_GAUSS5",
    "RULE_MIDPOINT",
    "IntegralReport",
    "QuadratureSpec",
    "integrate_line",
    "section_measure",
    "total_charge",
    "total_mass",
    "VacuumPolarization",
    "vacuum_polarization",
    "__version__",
]

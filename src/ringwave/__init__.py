"""Ring-wave model of the photon and the electron-positron pair.

A plane electromagnetic wave wound onto a circular ring of one
wavelength circumference, in Gaussian CGS units: geometry and Frenet
kinematics, field sampling, displacement-current decomposition,
charge/mass quadrature over the torus, the derived coupling constant
2/pi, vacuum-polarization screening, and Lorentz-invariance checks.

The package loads lazily (PEP 562): `import ringwave` imports no
submodule, and a public name imports its home module on first access.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "constants": ("PhysicalConstants", "codata_constants", "electron_scales"),
    "errors": ("DomainError", "EvaluationError", "RingwaveError"),
    "fields": ("KIND_PHOTON", "KIND_SEMI_MINUS", "KIND_SEMI_PLUS",
               "FieldConfiguration", "charge_density", "displacement_current",
               "field_at", "mass_density", "sample_grid", "twirled_field"),
    "geometry": ("RingGeometry", "TorusShape", "frenet_at", "normal_rate",
                 "ring_from_radius"),
    "lorentz": ("WavePacket", "boost_packet", "boost_plane_fields"),
    "model": ("PhotonModel", "SemiPhotonModel", "dispersion_omega",
              "invariant_constants", "magnetic_moment", "pair_threshold_photon",
              "semi_photon_model", "uncertainty_min_length"),
    "quadrature": ("RULE_GAUSS5", "RULE_MIDPOINT", "IntegralReport",
                   "QuadratureSpec", "consistency_reports", "integrate_line",
                   "section_measure", "total_charge", "total_mass"),
    "renorm": ("VacuumPolarization", "vacuum_polarization"),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return __all__

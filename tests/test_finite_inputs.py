"""Every validator and guarded function refuses NaN and infinity with
DomainError (property tests).

st.floats() draws NaN, both infinities, zero, negatives, subnormals and
huge values, so each property also pins which finite values pass.  A
record also refuses finite inputs whose derived values over- or
underflow; the examples pin one such input each.  Every numeric
parameter also refuses True and False: one number check,
errors._require_number, decides for all of them.
"""

import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ringwave import (
    KIND_PHOTON,
    KIND_SEMI_PLUS,
    DomainError,
    PhysicalConstants,
    QuadratureSpec,
    TorusShape,
    WavePacket,
    boost_packet,
    boost_plane_fields,
    charge_density,
    codata_constants,
    dispersion_omega,
    displacement_current,
    electron_scales,
    field_at,
    frenet_at,
    integrate_line,
    invariant_constants,
    magnetic_moment,
    mass_density,
    normal_rate,
    pair_threshold_photon,
    ring_from_radius,
    sample_grid,
    semi_photon_model,
    total_charge,
    twirled_field,
    uncertainty_min_length,
    vacuum_polarization,
)
from ringwave.cli import parse_args
from ringwave.fields import _points

K = codata_constants()
PHOTON = pair_threshold_photon(K)
RING = ring_from_radius(PHOTON.r_p, K.c)
PACKET = WavePacket(e_o=1.0, omega=PHOTON.omega_p, energy=PHOTON.energy,
                    volume=PHOTON.volume)
ANY_FLOAT = st.floats()
SEMI = twirled_field(KIND_SEMI_PLUS, 1.0, RING)  # has points off its support

# every public function of arc length l, and the field kernel behind them
ARC_LENGTH_FUNCTIONS = {
    "_points": lambda l: next(_points(SEMI, (l,))),
    "charge_density": lambda l: charge_density(SEMI, l),
    "mass_density": lambda l: mass_density(SEMI, l),
    "frenet_at": lambda l: frenet_at(RING, l),
    "normal_rate": lambda l: normal_rate(RING, 1.0, l),
    "field_at": lambda l: field_at(SEMI, l),
    "displacement_current": lambda l: displacement_current(SEMI, l),
}


def _finite_positive(*values: float) -> bool:
    return all(math.isfinite(v) and v > 0.0 for v in values)


def _finite_non_negative(*values: float) -> bool:
    return all(math.isfinite(v) and v >= 0.0 for v in values)


def _floats(value) -> list[float]:
    """Every float in a result: a float, tuple or record of them."""
    if isinstance(value, float):
        return [value]
    parts = value.asdict().values() if hasattr(value, "asdict") else value
    return [x for part in parts for x in _floats(part)]


@given(ANY_FLOAT, ANY_FLOAT)
@example(1e-200, 1e-200)  # pi r_c^2 underflows to 0
@example(1e200, 1e200)  # pi r_c^2 overflows
def test_torus_shape_takes_finite_positive_radii_with_zeta_at_most_1(r_s, r_c):
    if _finite_positive(r_s, r_c, math.pi * r_c * r_c) and r_c <= r_s:
        shape = TorusShape(r_s, r_c)
        assert shape.r_c / shape.r_s <= 1.0  # may underflow to 0.0
    else:
        with pytest.raises(DomainError):
            TorusShape(r_s, r_c)


@given(ANY_FLOAT, ANY_FLOAT)
@example(1e-320, 1.0)  # K = 1/r_k overflows
@example(1e-300, 1e10)  # omega_K = c/r_k overflows, K does not
@example(1e10, 5e-324)  # omega_K underflows to 0
@example(1e308, 1.0)  # the circumference overflows
def test_ring_takes_finite_positive_radius_and_speed(r_k, c):
    if _finite_positive(r_k, c) and _finite_positive(1.0 / r_k, c / r_k, 2.0 * math.pi * r_k):
        assert ring_from_radius(r_k, c).r_k == r_k
    else:
        with pytest.raises(DomainError):
            ring_from_radius(r_k, c)


@given(st.sampled_from(K.init_fields), ANY_FLOAT)
def test_physical_constants_take_finite_positive_values(name, value):
    if _finite_positive(value):
        assert getattr(K.replace(**{name: value}), name) == value
    else:
        with pytest.raises(DomainError):
            K.replace(**{name: value})


POSITIVE_FLOAT = st.floats(0.0, exclude_min=True, allow_infinity=False)


@given(st.sampled_from(K.init_fields), POSITIVE_FLOAT)
@example("e", 1e200)  # r_0 overflows
@example("c", 1e-200)  # m_e c^2 underflows to 0, which r_0 divides by
@example("m_e", 1e300)  # m_e c^2 overflows, so r_0 underflows
def test_electron_scales_are_finite_and_positive(name, value):
    k = K.replace(**{name: value})
    m_e_c2 = k.m_e * k.c * k.c
    if _finite_positive(m_e_c2) and _finite_positive(k.e * k.e / m_e_c2, k.hbar / (k.m_e * k.c)):
        assert electron_scales(k) == (k.e * k.e / m_e_c2, k.hbar / (k.m_e * k.c))
    else:
        with pytest.raises(DomainError):
            electron_scales(k)


@given(st.sampled_from(K.init_fields), POSITIVE_FLOAT,
       st.sampled_from(K.init_fields), POSITIVE_FLOAT)
@example("e", 1e200, "e", 1e200)  # r_0, and so r_bare, overflows
@example("m_e", 1e-300, "alpha_exp", 1e-60)  # r_bare = r_0 / alpha_exp overflows, r_0 does not
def test_vacuum_polarization_fields_are_finite_and_positive(name, value, name2, value2):
    k = K.replace(**{name: value, name2: value2})
    try:
        r_0 = electron_scales(k)[0]
    except DomainError:
        r_0 = math.inf
    eps_v = 1.0 / k.alpha_exp
    if k.alpha_exp < 1.0 and _finite_positive(eps_v, r_0, r_0 / k.alpha_exp):
        assert _finite_positive(*_floats(vacuum_polarization(1.0, k)))
    else:
        with pytest.raises(DomainError):
            vacuum_polarization(1.0, k)


def test_bare_charge_stays_finite_at_the_largest_charge_and_coupling():
    # q_bare = e sqrt(eps_v) <= sqrt(e^2 eps_v), so vacuum_polarization does
    # not check it: here e^2, eps_v and q_bare all reach ~1.8e308
    e = 1.3407807929942596e154  # the largest e whose e^2 is finite
    vp = vacuum_polarization(sys.float_info.max, PhysicalConstants(1.0, 1.0, e, 1.0, 1.0))
    assert _finite_positive(*_floats(vp)) and vp.q_bare > 1e308


@given(st.sampled_from(["e_o", "omega", "energy", "volume"]), ANY_FLOAT)
def test_wave_packet_takes_finite_positive_values(name, value):
    if _finite_positive(value):
        assert getattr(PACKET.replace(**{name: value}), name) == value
    else:
        with pytest.raises(DomainError):
            PACKET.replace(**{name: value})


@given(ANY_FLOAT)
def test_field_amplitude_is_finite_positive_and_keeps_the_current_finite(e_o):
    if _finite_positive(e_o, e_o * RING.omega_K):
        assert twirled_field(KIND_PHOTON, e_o, RING).e_o == e_o
    else:
        with pytest.raises(DomainError):
            twirled_field(KIND_PHOTON, e_o, RING)


@given(ANY_FLOAT, ANY_FLOAT)
def test_integrate_line_needs_ordered_bounds_of_finite_width(a, b):
    spec = QuadratureSpec(panels=2)
    if a < b and math.isfinite(b - a):
        assert math.isfinite(integrate_line(lambda x: 1.0, a, b, spec))
    else:
        with pytest.raises(DomainError):
            integrate_line(lambda x: 1.0, a, b, spec)


@given(st.one_of(st.integers(), ANY_FLOAT))
@example(2.5)
@example(2.0)  # a whole float is still not a panel count
@example(True)  # nor is a bool
def test_quadrature_spec_takes_an_integer_panel_count_of_at_least_1(panels):
    if type(panels) is int and panels >= 1:
        assert QuadratureSpec(panels=panels).panels == panels
    else:
        with pytest.raises(DomainError):
            QuadratureSpec(panels=panels)


@given(ANY_FLOAT)
@example(math.nan)
@example(5e-324)  # E_o/omega overflows
def test_invariant_constants_take_a_finite_positive_frequency(omega):
    if _finite_positive(omega) and math.isfinite(1.0 / omega):
        assert invariant_constants(1.0, omega, 1.0, 1.0) == (
            1.0 / omega, 1.0 / omega, omega)
    else:
        with pytest.raises(DomainError):
            invariant_constants(1.0, omega, 1.0, 1.0)


@given(st.sampled_from(["e_o", "energy", "volume"]), ANY_FLOAT)
@example("e_o", math.nan)
@example("energy", math.inf)
@example("volume", -math.inf)
@example("volume", sys.float_info.max)  # volume * omega overflows
def test_invariant_constants_take_a_finite_amplitude_energy_and_volume(name, value):
    args = {"e_o": 1.0, "omega": 2.0, "energy": 1.0, "volume": 1.0}
    args[name] = value
    ratios = (args["e_o"] / 2.0, args["energy"] / 2.0, args["volume"] * 2.0)
    if all(map(math.isfinite, ratios)):
        assert invariant_constants(**args) == ratios
    else:
        with pytest.raises(DomainError):
            invariant_constants(**args)


# past an energy of ~8.9e291 the bound 2 pi hbar c / E is subnormal, where
# its two forms round apart: that energy is refused, not the model blamed
@given(ANY_FLOAT)
@example(math.inf)  # 2 pi hbar c / inf = 0 was then divided by
@example(1e300)  # the bound is the subnormal 1.99e-316
@example(5e-324)  # the smallest energy; its bound is still finite
def test_uncertainty_length_takes_a_finite_positive_energy(energy):
    two_pi_hbar_c = 2.0 * math.pi * K.hbar * K.c
    if _finite_positive(energy) and two_pi_hbar_c / energy >= sys.float_info.min:
        assert uncertainty_min_length(energy, K)[0] == two_pi_hbar_c / energy
    else:
        with pytest.raises(DomainError):
            uncertainty_min_length(energy, K)


@given(ANY_FLOAT, ANY_FLOAT)
@example(math.nan, K.m_e)
@example(1.0, math.inf)
@example(1e300, 0.0)  # c k overflows
@example(0.0, 1e300)  # m c^2/hbar overflows
def test_dispersion_takes_a_finite_non_negative_wave_number_and_mass(k_wave, mass):
    if _finite_non_negative(k_wave, mass) and math.isfinite(
            math.hypot(K.c * k_wave, mass * K.c * K.c / K.hbar)):
        assert dispersion_omega(k_wave, mass, K) >= 0.0
    else:
        with pytest.raises(DomainError):
            dispersion_omega(k_wave, mass, K)


@given(ANY_FLOAT)
@example(math.nan)
@example(math.inf)
@example(1.4e306)  # eps_v = alpha_bare / alpha_exp overflows above ~1.31e306
@example(1e308)
def test_vacuum_polarization_takes_a_finite_coupling_above_the_measured(alpha_bare):
    if alpha_bare > K.alpha_exp and _finite_positive(alpha_bare, alpha_bare / K.alpha_exp):
        assert vacuum_polarization(alpha_bare, K).eps_v == alpha_bare / K.alpha_exp
    else:
        with pytest.raises(DomainError):
            vacuum_polarization(alpha_bare, K)


@given(ANY_FLOAT)
@example(math.nan)
@example(1e300)  # v K overflows
def test_normal_rate_takes_a_non_negative_speed_whose_rate_is_finite(v):
    if _finite_non_negative(v, v * RING.K):
        # at l = 0 the tangent is +y, so the rate is -v K along y
        assert normal_rate(RING, v, 0.0)[1] == -v * RING.K
    else:
        with pytest.raises(DomainError):
            normal_rate(RING, v, 0.0)


@pytest.mark.parametrize("name", sorted(ARC_LENGTH_FUNCTIONS))
@given(l=ANY_FLOAT)
@example(l=math.nan)
@example(l=math.inf)
@example(l=-math.inf)
@example(l=1e300)  # l / r_k overflows, though l wrapped by the circumference does not
def test_arc_length_functions_refuse_an_arc_length_without_a_finite_phase(name, l):
    try:
        result = ARC_LENGTH_FUNCTIONS[name](l)
    except DomainError:
        assert not math.isfinite(l / RING.r_k)
    else:
        assert math.isfinite(l) and all(map(math.isfinite, _floats(result)))


@given(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)
@example(math.nan, 0.0, 0.0)  # a NaN beta passed `b2 >= 1.0` and gave NaN fields
@example(0.6, 0.8, 0.0)  # |beta| = 1
@example(0.0, 0.0, -math.inf)
def test_boost_plane_fields_takes_a_beta_below_1_in_norm(bx, by, bz):
    beta = (bx, by, bz)
    if bx * bx + by * by + bz * bz < 1.0:
        e_p, h_p = boost_plane_fields((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), beta)
        assert all(map(math.isfinite, e_p + h_p))
    else:
        with pytest.raises(DomainError):
            boost_plane_fields((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), beta)


@given(st.lists(ANY_FLOAT, min_size=6, max_size=6))
@example([math.nan, 0.0, 0.0, 0.0, 0.0, 0.0])
@example([0.0, 0.0, 0.0, 0.0, 0.0, math.inf])
@example([0.0, 1e308, 0.0, 0.0, 0.0, -1e308])  # finite fields whose boost overflows
def test_boost_plane_fields_refuses_fields_that_are_or_become_non_finite(components):
    e, h = tuple(components[:3]), tuple(components[3:])
    try:
        e_p, h_p = boost_plane_fields(e, h, (0.6, 0.0, 0.0))
    except DomainError:
        # at gamma = 1.25 no finite field up to 1e300 overflows; NaN fails too
        assert not all(abs(c) <= 1e300 for c in components)
    else:
        assert all(map(math.isfinite, e_p + h_p))


# no valid CLI input reaches these: semiphoton passes a finite q_s, r_s, omega_s
@given(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, st.booleans())
@example(math.nan, 1.0, 1.0, 1.0, False)
@example(1.0, 1.0, 1.0, 0.0, False)  # c = 0 would divide by zero
@example(1e300, 1e300, 1e300, 1e-300, False)  # the moment overflows
@example(1e308, 1.0, 1.0, 0.5, True)  # only the Thomas factor overflows
def test_magnetic_moment_takes_a_finite_charge_and_a_finite_positive_ring(
        q, r_s, omega_s, c, thomas):
    mu = math.nan
    if math.isfinite(q) and _finite_positive(r_s, omega_s, c):
        mu = (q * omega_s / (2.0 * math.pi)) * (math.pi * r_s * r_s) / c
        mu = 2.0 * mu if thomas else mu
    if math.isfinite(mu):
        assert magnetic_moment(q, r_s, omega_s, c, thomas=thomas) == mu
    else:
        with pytest.raises(DomainError):
            magnetic_moment(q, r_s, omega_s, c, thomas=thomas)


def _replacing(make, base: dict, name: str):
    """The call make(**base) with the argument name set to the value."""
    return lambda value: make(**{**base, name: value})


# every numeric parameter that a validator checks, as a call given the value
_MOMENT = {"q": 1.0, "r_s": 1.0, "omega_s": 1.0, "c": 1.0}
_RATIOS = {"e_o": 1.0, "omega": 2.0, "energy": 1.0, "volume": 1.0}
NUMBER_PARAMETERS = {
    **{f"PhysicalConstants.{n}": _replacing(K.replace, {}, n) for n in K.init_fields},
    "RingGeometry.r_k": lambda v: ring_from_radius(v, K.c),
    "RingGeometry.c": lambda v: ring_from_radius(PHOTON.r_p, v),
    "TorusShape.r_s": lambda v: TorusShape(v, 0.5),
    "TorusShape.r_c": lambda v: TorusShape(2.0, v),
    "FieldConfiguration.e_o": lambda v: twirled_field(KIND_PHOTON, v, RING),
    **{f"WavePacket.{n}": _replacing(PACKET.replace, {}, n) for n in WavePacket.init_fields},
    "QuadratureSpec.panels": lambda v: QuadratureSpec(panels=v),
    **{f"invariant_constants.{n}": _replacing(invariant_constants, _RATIOS, n)
       for n in _RATIOS},
    "uncertainty_min_length.energy": lambda v: uncertainty_min_length(v, K),
    "dispersion_omega.k_wave": lambda v: dispersion_omega(v, 0.0, K),
    "dispersion_omega.mass": lambda v: dispersion_omega(1.0, v, K),
    **{f"magnetic_moment.{n}": _replacing(magnetic_moment, _MOMENT, n) for n in _MOMENT},
    "normal_rate.v": lambda v: normal_rate(RING, v, 0.0),
    "semi_photon_model.zeta": lambda v: semi_photon_model(v, K),
    "vacuum_polarization.alpha_bare": lambda v: vacuum_polarization(v, K),
    "boost_packet.beta": lambda v: boost_packet(PACKET, [v]),
    "total_charge.zeta": lambda v: total_charge(SEMI, v, QuadratureSpec(panels=2)),
    "sample_grid.n": lambda v: sample_grid(SEMI, v),
}
# the CLI's ranged options, each parsed by cli._ranged
RANGED_OPTIONS = {
    "--zeta": "semiphoton", "--beta-grid": "invariants", "--amplitude": "fields",
    "--samples": "fields", "--panels": "consistency",
}
NOT_A_NUMBER = st.one_of(st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf]))


@pytest.mark.parametrize("site", sorted(NUMBER_PARAMETERS) + sorted(RANGED_OPTIONS))
@given(value=NOT_A_NUMBER)
@example(value=True)
@example(value=False)
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
def test_every_numeric_parameter_refuses_a_bool_nan_and_infinity(site, value):
    if site in RANGED_OPTIONS:
        with pytest.raises(SystemExit) as usage_error:
            parse_args([RANGED_OPTIONS[site], f"{site}={value}"])
        assert usage_error.value.code == 2
    else:
        with pytest.raises(DomainError):
            NUMBER_PARAMETERS[site](value)

"""Every validator and guarded function refuses NaN and infinity with
DomainError (property tests).

st.floats() draws NaN, both infinities, zero, negatives, subnormals and
huge values, so each property also pins which finite values pass.  A
record also refuses finite inputs whose derived values over- or
underflow; the examples pin one such input each.
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
    QuadratureSpec,
    TorusShape,
    WavePacket,
    boost_plane_fields,
    charge_density,
    codata_constants,
    dispersion_omega,
    displacement_current,
    energy_density,
    field_at,
    frenet_at,
    integrate_line,
    invariant_constants,
    magnetic_moment,
    mass_density,
    normal_rate,
    pair_threshold_photon,
    ring_from_radius,
    twirled_field,
    uncertainty_min_length,
    vacuum_polarization,
)
from ringwave.fields import amplitude_at

K = codata_constants()
PHOTON = pair_threshold_photon(K)
RING = ring_from_radius(PHOTON.r_p, K.c)
PACKET = WavePacket(e_o=1.0, omega=PHOTON.omega_p, energy=PHOTON.energy,
                    volume=PHOTON.volume)
ANY_FLOAT = st.floats()
SEMI = twirled_field(KIND_SEMI_PLUS, 1.0, RING)  # has points off its support

# every public function of arc length l
ARC_LENGTH_FUNCTIONS = {
    "amplitude_at": lambda l: amplitude_at(SEMI, l),
    "charge_density": lambda l: charge_density(SEMI, l),
    "energy_density": lambda l: energy_density(SEMI, l),
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
def test_vacuum_polarization_takes_a_finite_coupling_above_the_measured(alpha_bare):
    if math.isfinite(alpha_bare) and alpha_bare > K.alpha_exp:
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

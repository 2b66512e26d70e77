import math

import numpy as np
import pytest

from ringwave import (
    KIND_PHOTON,
    KIND_SEMI_MINUS,
    KIND_SEMI_PLUS,
    DomainError,
    FieldConfiguration,
    charge_density,
    codata_constants,
    displacement_current,
    energy_density,
    field_at,
    frenet_at,
    mass_density,
    pair_threshold_photon,
    ring_from_radius,
    sample_grid,
    semi_photon_model,
    twirled_field,
)
from ringwave.fields import _grid, _point, amplitude_at

K = codata_constants()
RING = ring_from_radius(pair_threshold_photon(K).r_p, K.c)
AMP = semi_photon_model(1.0, K).e_o
LAM = RING.circumference  # one wavelength is wound on the ring


def _cfg(kind):
    return twirled_field(kind, AMP, RING)


def _current_vectors(cfg, l):
    # j_n along the centripetal normal and j_tau along the tangent of frenet_at
    jn, jtau = displacement_current(cfg, l)
    frame = frenet_at(cfg.geometry, l)
    return np.multiply(jn, frame.normal), np.multiply(jtau, frame.tangent)


def test_twirled_configuration_invariants():
    cfg = _cfg(KIND_PHOTON)
    # kind, amplitude and ring are the only inputs; the rest is derived
    inputs = cfg.init_fields
    assert inputs == ("kind", "e_o", "geometry")
    assert cfg.geometry.K * K.c == cfg.geometry.omega_K
    assert cfg.support == (0.0, RING.circumference)
    semi = _cfg(KIND_SEMI_PLUS)
    assert semi.support == (0.0, 0.5 * RING.circumference)


def test_amplitude_must_be_positive():
    for amp in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            twirled_field(KIND_PHOTON, amp, RING)
    with pytest.raises(DomainError):
        twirled_field("spiral", AMP, RING)


def test_amplitude_whose_current_overflows_is_refused():
    # E_o omega bounds |jn| and |jtau|; the largest E_o it allows is kept
    with pytest.raises(DomainError, match="overflows"):
        twirled_field(KIND_PHOTON, 1e300, RING)
    edge = 1.1577940779563413e287
    assert math.isinf(math.nextafter(edge, math.inf) * RING.omega_K)
    cfg = twirled_field(KIND_PHOTON, edge, RING)
    for l in (0.0, 0.25 * RING.circumference, 0.3):
        jn, jtau = displacement_current(cfg, l)
        assert math.isfinite(jn) and math.isfinite(jtau)


def test_energy_density_refuses_an_amplitude_whose_square_overflows():
    # accepted by FieldConfiguration (E_o omega is finite), but a^2 is not
    cfg = twirled_field(KIND_SEMI_PLUS, 1e200, RING)
    for density in (energy_density, mass_density):
        for l in (0.0, 0.25 * LAM, 0.75 * LAM):  # crest, node, off the support
            with pytest.raises(DomainError, match="energy density overflows"):
                density(cfg, l)
    # the largest amplitude whose square is finite is kept
    edge = math.sqrt(1.7976931348623157e308)
    assert math.isinf(math.nextafter(edge, math.inf) * math.nextafter(edge, math.inf))
    assert math.isfinite(energy_density(twirled_field(KIND_SEMI_PLUS, edge, RING), 0.0))
    with pytest.raises(DomainError):
        energy_density(twirled_field(KIND_SEMI_PLUS, math.nextafter(edge, math.inf), RING), 0.0)


def test_kinds_are_the_cli_kind_values():
    assert (KIND_PHOTON, KIND_SEMI_PLUS, KIND_SEMI_MINUS) == ("photon", "semiplus", "semiminus")


def test_field_magnitude_at_crest_and_node():
    cfg = _cfg(KIND_PHOTON)
    crest, _ = field_at(cfg, 0.0)
    assert abs(np.linalg.norm(crest) / AMP - 1.0) < 1e-14
    node, _ = field_at(cfg, 0.25 * LAM)
    assert np.linalg.norm(node) < 1e-12 * AMP


def test_e_and_h_balanced_and_orthogonal():
    cfg = _cfg(KIND_PHOTON)
    for l in np.linspace(0.0, LAM, 23):
        E, H = field_at(cfg, float(l))
        assert abs(np.linalg.norm(E) - np.linalg.norm(H)) <= 1e-12 * AMP
        assert abs(np.dot(E, H)) <= 1e-12 * AMP * AMP


def test_poynting_direction_along_travel():
    cfg = _cfg(KIND_PHOTON)
    for l in (0.0, 0.1 * LAM, 0.6 * LAM):
        E, H = field_at(cfg, l)
        if np.linalg.norm(E) < 1e-6 * AMP:
            continue
        poynting = np.cross(E, H)
        tangent = frenet_at(RING, l).tangent
        assert np.dot(poynting, tangent) > 0.0


def test_minus_kind_is_pointwise_negation():
    plus, minus = _cfg(KIND_SEMI_PLUS), _cfg(KIND_SEMI_MINUS)
    for l in np.linspace(0.0, LAM, 37):
        (ep, hp), (em, hm) = field_at(plus, float(l)), field_at(minus, float(l))
        assert np.allclose(em, np.negative(ep))
        assert np.allclose(hm, np.negative(hp))


def test_semi_field_vanishes_off_support():
    plus = _cfg(KIND_SEMI_PLUS)
    E, H = field_at(plus, 0.75 * LAM)
    assert E == H == (0.0, 0.0, 0.0)


def test_no_quarter_turn_rotation_maps_plus_to_minus():
    # the two halves are anti-symmetric, not congruent: every rotation
    # by a multiple of pi/2 about a coordinate axis fails to carry the
    # plus fields onto the minus fields
    plus, minus = _cfg(KIND_SEMI_PLUS), _cfg(KIND_SEMI_MINUS)
    r = RING.r_k

    def rotation(axis, quarter_turns):
        c = [1.0, 0.0, -1.0, 0.0][quarter_turns]
        s = [0.0, 1.0, 0.0, -1.0][quarter_turns]
        if axis == 0:
            return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        if axis == 1:
            return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])

    def field_at_point(cfg, x):
        # zero away from the ring; otherwise evaluate at the arc angle
        if abs(x[2]) > 1e-9 * r or abs(math.hypot(x[0], x[1]) - r) > 1e-9 * r:
            return np.zeros(3), np.zeros(3)
        l = (math.atan2(x[1], x[0]) % (2.0 * math.pi)) * r
        return field_at(cfg, l)

    points = [
        np.array([r * math.cos(a), r * math.sin(a), 0.0])
        for a in ((j + 0.3) * 2.0 * math.pi / 12.0 for j in range(12))
    ]
    for axis in range(3):
        for quarter_turns in range(4):
            rot = rotation(axis, quarter_turns)
            mismatch = 0.0
            for x in points:
                ep, hp = field_at_point(plus, rot.T @ x)
                em, hm = field_at_point(minus, x)
                mismatch = max(
                    mismatch,
                    float(np.linalg.norm(rot @ ep - em) + np.linalg.norm(rot @ hp - hm)),
                )
            assert mismatch > 0.1 * AMP, (axis, quarter_turns)


def test_current_split_values_at_crest():
    cfg = _cfg(KIND_PHOTON)
    j_n, j_tau = _current_vectors(cfg, 0.0)
    expected = RING.omega_K * AMP / (4.0 * math.pi)
    assert abs(np.linalg.norm(j_tau) / expected - 1.0) < 1e-12
    assert np.linalg.norm(j_n) < 1e-12 * expected


def test_tangential_current_vanishes_with_field():
    cfg = _cfg(KIND_PHOTON)
    _, j_tau = _current_vectors(cfg, 0.25 * LAM)
    assert np.linalg.norm(j_tau) < 1e-12 * RING.omega_K * AMP


def test_current_components_perpendicular():
    cfg = _cfg(KIND_PHOTON)
    for l in np.linspace(0.01, 0.99, 11) * LAM:
        j_n, j_tau = _current_vectors(cfg, float(l))
        bound = 1e-12 * np.linalg.norm(j_n) * np.linalg.norm(j_tau)
        assert abs(np.dot(j_n, j_tau)) <= bound


def test_plane_kind_is_rejected():
    # every configuration is wound on a ring; an unwound plane wave has
    # no curvature term, no charge density, and no kind of its own
    with pytest.raises(DomainError):
        FieldConfiguration(kind="plane", e_o=1.0, geometry=RING)


def test_finite_difference_reproduces_current_vector():
    # central difference in time of the full field vector carried
    # around the ring, against the analytic normal+tangential split
    cfg = _cfg(KIND_PHOTON)
    l = 0.2 * LAM
    tau = 1e-5 / RING.omega_K
    g = lambda t: np.array(field_at(cfg, l + K.c * t)[0])
    fd = (g(tau) - g(-tau)) / (2.0 * tau) / (4.0 * math.pi)
    total = np.add(*_current_vectors(cfg, l))
    assert np.linalg.norm(fd - total) / np.linalg.norm(total) < 1e-8


def test_finite_difference_split_at_random_arc_lengths():
    rng = np.random.default_rng(20260819)
    tau = 1e-5 / RING.omega_K
    cfg = _cfg(KIND_PHOTON)
    for l in rng.uniform(0.0, LAM, 64):
        l = float(l)
        g = lambda t: np.array(field_at(cfg, l + K.c * t)[0])
        fd = (g(tau) - g(-tau)) / (2.0 * tau) / (4.0 * math.pi)
        total = np.add(*_current_vectors(cfg, l))
        assert np.linalg.norm(fd - total) / np.linalg.norm(total) < 1e-8, l


def test_mass_current_matches_tangential_term():
    cfg = _cfg(KIND_PHOTON)
    for l in (0.0, 0.11 * LAM, 0.35 * LAM):
        tau_mag = np.linalg.norm(_current_vectors(cfg, l)[1])
        e_mag = np.linalg.norm(field_at(cfg, l)[0])
        mass_current = RING.omega_K / (4.0 * math.pi) * e_mag
        assert abs(tau_mag - mass_current) <= 1e-12 * RING.omega_K * AMP


def test_mass_current_values():
    # omega/4pi at the electron frequency, evaluated independently
    _, crest = displacement_current(twirled_field(KIND_PHOTON, 1.0, RING), 0.0)
    assert abs(crest / 1.2355899638074137e20 - 1.0) < 1e-12
    # no field, no mass current: the far half of a semi-photon's ring
    semi = twirled_field(KIND_SEMI_PLUS, 1.0, RING)
    assert displacement_current(semi, 0.75 * LAM)[1] == 0.0


def test_charge_density_profile():
    ring1 = ring_from_radius(1.0, K.c)
    cfg = twirled_field(KIND_PHOTON, 1.0, ring1)
    assert abs(charge_density(cfg, 0.0) / (1.0 / (4.0 * math.pi)) - 1.0) < 1e-12
    assert abs(charge_density(cfg, 0.25 * ring1.circumference)) < 1e-12
    assert charge_density(cfg, 0.1 * ring1.circumference) > 0.0
    assert charge_density(cfg, 0.4 * ring1.circumference) < 0.0


def test_energy_and_mass_density():
    cfg = _cfg(KIND_PHOTON)
    assert energy_density(cfg, 0.25 * LAM) < 1e-20 * AMP * AMP
    crest = energy_density(cfg, 0.0)
    assert abs(crest / (AMP * AMP / (4.0 * math.pi)) - 1.0) < 1e-12
    rng = np.random.default_rng(7)
    for l in rng.uniform(0.0, LAM, 1000):
        l = float(l)
        assert abs(mass_density(cfg, l) * K.c * K.c - energy_density(cfg, l)) <= 1e-14 * crest


def test_sample_grid_spacing_and_balance():
    cfg = _cfg(KIND_PHOTON)
    two = sample_grid(cfg, 2)
    assert two[0][0] == 0.0 and two[1][0] == cfg.support[1]
    five = sample_grid(cfg, 5)
    assert abs(five[1][0] - 0.25 * LAM) < 1e-12 * LAM
    for l, E, H in sample_grid(cfg, 33):
        assert field_at(cfg, l) == (E, H)
        assert abs(np.linalg.norm(E) - np.linalg.norm(H)) <= 1e-12 * AMP
    with pytest.raises(DomainError):
        sample_grid(cfg, 1)


def test_closed_form_h_matches_cross_product_definition():
    # H = -a z must agree with the vector definition a (tau x r_out)
    for kind in (KIND_PHOTON, KIND_SEMI_PLUS):
        cfg = _cfg(kind)
        for l in np.linspace(-0.3, 1.3, 97) * LAM:
            _, H = field_at(cfg, float(l))
            frame = frenet_at(RING, float(l))
            a = amplitude_at(cfg, float(l))
            reference = a * np.cross(frame.tangent, np.negative(frame.normal))
            tol = 4.0 * math.ulp(abs(a))
            assert np.max(np.abs(np.subtract(H, reference))) <= tol, (kind, l)


def test_vector_api_wraps_the_scalar_kernel():
    # the CSV reads _point; the vector API must give the same numbers,
    # on and off a semi-photon's support
    for kind in (KIND_PHOTON, KIND_SEMI_PLUS, KIND_SEMI_MINUS):
        cfg = _cfg(kind)
        for l in np.linspace(-0.3, 1.3, 97) * LAM:
            l = float(l)
            x, y, ex, ey, hz, jn, jtau = _point(cfg, l)
            E, H = field_at(cfg, l)
            current = displacement_current(cfg, l)
            position = frenet_at(RING, l).position
            assert E == (ex, ey, 0.0), (kind, l)
            assert H == (0.0, 0.0, hz), (kind, l)
            assert current == (jn, jtau), (kind, l)
            assert position == (x, y, 0.0), (kind, l)
        for vector in (E, H, position):
            assert type(vector) is tuple and len(vector) == 3
            assert all(type(c) is float for c in vector)
        assert type(current) is tuple and all(type(c) is float for c in current)


def test_grid_equals_linspace():
    for kind in (KIND_PHOTON, KIND_SEMI_PLUS):
        cfg = _cfg(kind)
        lo, hi = cfg.support
        for n in [*range(2, 65), *range(1900, 2101)]:
            assert _grid(cfg, n) == np.linspace(lo, hi, n).tolist(), (kind, n)
        assert [l for l, _, _ in sample_grid(cfg, 9)] == _grid(cfg, 9)

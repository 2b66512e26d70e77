import math

import numpy as np
import pytest

from ringwave import (
    DomainError,
    TorusShape,
    codata_constants,
    frenet_at,
    normal_rate,
    ring_from_radius,
)

K = codata_constants()


def test_ring_record_fields():
    ring = ring_from_radius(2.0, K.c)
    # radius and speed are the only inputs; the rest is derived
    inputs = ring.init_fields
    assert inputs == ("r_k", "c")
    assert ring.K == 0.5
    assert ring.omega_K == K.c / 2.0
    assert abs(ring.circumference / (4.0 * math.pi) - 1.0) < 1e-15


def test_unit_radius_ring_rotates_at_c():
    assert ring_from_radius(1.0, K.c).omega_K == K.c


def test_electron_scale_ring_frequency():
    r = K.hbar / (2.0 * K.m_e * K.c)
    ring = ring_from_radius(r, K.c)
    # 2 m_e c^2 / hbar evaluated independently
    assert abs(ring.omega_K / 1.5526881412586597e21 - 1.0) < 1e-12


def test_invalid_ring_inputs():
    with pytest.raises(DomainError):
        ring_from_radius(0.0, K.c)
    with pytest.raises(DomainError):
        ring_from_radius(1.0, -1.0)


def test_frame_at_origin_of_arc():
    ring = ring_from_radius(3.0, K.c)
    position, tangent, normal = frenet_at(ring, 0.0)
    assert np.allclose(position, [3.0, 0.0, 0.0])
    assert np.allclose(tangent, [0.0, 1.0, 0.0])
    assert np.allclose(normal, [-1.0, 0.0, 0.0])


def test_quarter_turn_tangent():
    ring = ring_from_radius(1.0, K.c)
    _, tangent, _ = frenet_at(ring, math.pi / 2.0)
    assert np.allclose(tangent, [-1.0, 0.0, 0.0], atol=1e-12)


def test_frame_periodicity():
    ring = ring_from_radius(1.7, K.c)
    a_pos, a_tan, a_nor = frenet_at(ring, 0.42)
    b_pos, b_tan, b_nor = frenet_at(ring, 0.42 + ring.circumference)
    assert np.allclose(a_pos, b_pos, atol=1e-12 * ring.r_k)
    assert np.allclose(a_tan, b_tan, atol=1e-12)
    assert np.allclose(a_nor, b_nor, atol=1e-12)


def test_frame_orthonormal_everywhere():
    ring = ring_from_radius(2.3, K.c)
    for l in np.linspace(0.0, ring.circumference, 17):
        _, tangent, normal = frenet_at(ring, float(l))
        assert abs(np.linalg.norm(tangent) - 1.0) < 1e-14
        assert abs(np.linalg.norm(normal) - 1.0) < 1e-14
        assert abs(np.dot(tangent, normal)) < 1e-14


def test_normal_rate_magnitude_and_direction():
    ring = ring_from_radius(1.0, K.c)
    rate = normal_rate(ring, K.c, 0.0)
    # swings opposite the tangent with magnitude v K
    _, tangent, _ = frenet_at(ring, 0.0)
    assert np.allclose(rate, -K.c * np.array(tangent))
    assert np.allclose(normal_rate(ring, 0.0, 1.2), [0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        normal_rate(ring, -1.0, 0.0)


def test_normal_rate_matches_finite_difference():
    ring = ring_from_radius(1.0, K.c)
    v, l, h = K.c, 0.3, 1e-6 / K.c
    fd = (np.array(frenet_at(ring, l + v * h)[2])
          - frenet_at(ring, l - v * h)[2]) / (2.0 * h)
    exact = normal_rate(ring, v, l)
    assert np.linalg.norm(fd - exact) / np.linalg.norm(exact) < 1e-9


def test_tangent_derivative_is_curvature_times_normal():
    ring = ring_from_radius(2.0, K.c)
    l, h = 1.1, 1e-6
    fd = (np.array(frenet_at(ring, l + h)[1])
          - frenet_at(ring, l - h)[1]) / (2.0 * h)
    _, _, normal = frenet_at(ring, l)
    assert np.linalg.norm(fd - ring.K * np.array(normal)) < 1e-9 * ring.K


def test_torus_metrics_values():
    shape = TorusShape(r_s=2.0, r_c=0.5)
    assert abs(shape.section_area / (math.pi * 0.25) - 1.0) < 1e-15


def test_zeta_ratio_and_bounds():
    shape = TorusShape(r_s=4.0, r_c=1.0)
    assert shape.r_c / shape.r_s == 0.25
    with pytest.raises(DomainError):
        TorusShape(r_s=1.0, r_c=1.5)
    with pytest.raises(DomainError):
        TorusShape(r_s=1.0, r_c=0.0)
    with pytest.raises(DomainError):
        TorusShape(r_s=-1.0, r_c=0.5)

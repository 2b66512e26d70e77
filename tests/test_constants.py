import math

import pytest

from ringwave import DomainError, PhysicalConstants, codata_constants, electron_scales

K = codata_constants()


def test_defined_values_exact():
    assert K.c == 2.99792458e10
    assert 2.0 * math.pi * K.hbar == 6.62607015e-27
    assert K.m_e == 9.1093837015e-28
    assert K.alpha_exp == 7.2973525693e-3


def test_hbar_matches_published_decimal():
    # published rounding agrees to ~6e-10
    assert abs(K.hbar / 1.054571817e-27 - 1.0) < 1e-9


def test_alpha_consistent_with_charge():
    assert abs(K.e * K.e / (K.hbar * K.c) / K.alpha_exp - 1.0) < 1e-9


def test_constants_must_be_positive():
    with pytest.raises(DomainError):
        PhysicalConstants(c=-1.0, hbar=K.hbar, e=K.e,
                          m_e=K.m_e, alpha_exp=K.alpha_exp)
    with pytest.raises(DomainError):
        PhysicalConstants(c=K.c, hbar=K.hbar, e=0.0,
                          m_e=K.m_e, alpha_exp=K.alpha_exp)


def test_electron_scales_against_recomputed_values():
    r_0, lambda_bar_c = electron_scales(K)
    # hbar/(m_e c) and e^2/(m_e c^2) evaluated independently
    assert abs(lambda_bar_c / 3.861592679608906e-11 - 1.0) < 1e-12
    assert abs(r_0 / 2.8179403246707885e-13 - 1.0) < 1e-12


def test_classical_radius_is_alpha_times_compton():
    r_0, lambda_bar_c = electron_scales(K)
    assert abs(r_0 / (K.alpha_exp * lambda_bar_c) - 1.0) < 1e-9

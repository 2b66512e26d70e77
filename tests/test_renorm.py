import math

import pytest

from ringwave import (
    DomainError,
    codata_constants,
    semi_photon_model,
    vacuum_polarization,
)

K = codata_constants()
ALPHA_BARE = 2.0 / math.pi


def test_coulomb_energy_screened_charge_equivalence():
    # q_bare^2/(eps r) equals q_exp^2/r when eps = (q_bare/q_exp)^2
    vp = vacuum_polarization(ALPHA_BARE, K)
    assert abs(vp.q_bare ** 2 / vp.eps_v / K.e ** 2 - 1.0) < 1e-12


def test_vacuum_permeability_value():
    vp = vacuum_polarization(ALPHA_BARE, K)
    # (2/pi)/alpha_exp evaluated independently
    assert abs(vp.eps_v / 87.2398265428265 - 1.0) < 1e-12
    assert abs(vp.eps_v - 87.24) < 0.09
    assert abs(vp.eps_v / 87.27 - 1.0) < 1e-3


def test_bare_charge_in_elementary_units():
    vp = vacuum_polarization(ALPHA_BARE, K)
    ratio = vp.q_bare / K.e
    assert abs(ratio - 9.34) < 0.01
    assert abs(ratio / math.sqrt(vp.eps_v) - 1.0) < 1e-14
    assert vp.q_exp == K.e


def test_bare_radius_is_reduced_compton_wavelength():
    vp = vacuum_polarization(ALPHA_BARE, K)
    # hbar/(m_e c) evaluated independently
    assert abs(vp.r_bare / 3.861592679608906e-11 - 1.0) < 1e-9
    assert abs(vp.r_0 / vp.r_bare / K.alpha_exp - 1.0) < 1e-9


def test_screening_round_trips():
    vp = vacuum_polarization(ALPHA_BARE, K)
    assert abs(vp.eps_v * vp.alpha_exp / vp.alpha_bare - 1.0) < 1e-12
    assert abs(vp.q_bare / math.sqrt(vp.eps_v) / vp.q_exp - 1.0) < 1e-12
    assert abs(vp.q_bare ** 2 / (vp.eps_v * vp.q_exp ** 2) - 1.0) < 1e-12


def test_screening_only_weakens():
    with pytest.raises(DomainError):
        vacuum_polarization(K.alpha_exp, K)
    with pytest.raises(DomainError):
        vacuum_polarization(1e-4, K)


def test_bare_charge_matches_ring_model():
    # sqrt(eps_v) e and the geometric charge zeta^2 E_o r_s^2 describe
    # the same object; they agree because alpha_s = q_s^2/(hbar c)
    vp = vacuum_polarization(ALPHA_BARE, K)
    m = semi_photon_model(1.0, K)
    assert abs(vp.q_bare / m.q_s - 1.0) < 1e-6
    assert abs(m.alpha_s / vp.alpha_bare - 1.0) < 1e-12

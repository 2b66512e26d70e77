import math

import numpy as np
import pytest

from ringwave import (
    DomainError,
    EvaluationError,
    codata_constants,
    dispersion_omega,
    invariant_constants,
    magnetic_moment,
    pair_threshold_photon,
    semi_photon_model,
    uncertainty_min_length,
)
from ringwave.model import SIGN_MINUS, SIGN_PLUS

K = codata_constants()
PHOTON = pair_threshold_photon(K)


def test_threshold_photon_scales():
    # pi hbar/(m_e c) and hbar/(2 m_e c) evaluated independently
    assert abs(PHOTON.lambda_p / 1.2131551193415463e-10 - 1.0) < 1e-12
    assert abs(PHOTON.r_p / 1.930796339804453e-11 - 1.0) < 1e-12
    assert abs(PHOTON.omega_p / 1.5526881412586597e21 - 1.0) < 1e-12
    assert abs(PHOTON.volume / 1.4208202612586974e-31 - 1.0) < 1e-12


def test_threshold_photon_internal_relations():
    assert abs(PHOTON.energy / (K.hbar * PHOTON.omega_p) - 1.0) < 1e-14
    assert abs(PHOTON.lambda_p / (2.0 * math.pi * PHOTON.r_p) - 1.0) < 1e-14
    assert abs(PHOTON.volume / (2.0 * math.pi ** 2 * PHOTON.r_p ** 3) - 1.0) < 1e-12
    assert abs(PHOTON.momentum / (PHOTON.energy / K.c) - 1.0) < 1e-14
    assert abs(PHOTON.nu / (PHOTON.omega_p / (2.0 * math.pi)) - 1.0) < 1e-14
    assert PHOTON.n == 1.0


def test_torus_angular_momentum_is_hbar():
    j = PHOTON.mass_equivalent * PHOTON.r_p ** 2 * PHOTON.omega_p
    assert abs(j / K.hbar - 1.0) < 1e-12
    assert PHOTON.spin == K.hbar


def test_invariant_constants_of_threshold_photon():
    c1, c2, c3 = invariant_constants(1.0, PHOTON.omega_p, PHOTON.energy, PHOTON.volume)
    assert c1 == 1.0 / PHOTON.omega_p
    assert abs(c2 / K.hbar - 1.0) < 1e-14
    # product of the volume and frequency values above
    assert abs(c3 / 2.2060907705164102e-10 - 1.0) < 1e-12
    with pytest.raises(DomainError):
        invariant_constants(1.0, 0.0, 1.0, 1.0)


def test_invariants_linear_in_frequency():
    # E_o and energy scale with omega, volume with 1/omega: doubling the
    # frequency leaves all three ratios where they were
    ic = invariant_constants(2.5, PHOTON.omega_p, PHOTON.energy, PHOTON.volume)
    doubled = invariant_constants(5.0, 2.0 * PHOTON.omega_p, 2.0 * PHOTON.energy,
                                  0.5 * PHOTON.volume)
    assert type(ic) is tuple and len(ic) == 3
    for c_doubled, c in zip(doubled, ic):
        assert abs(c_doubled / c - 1.0) < 1e-14
    with pytest.raises(DomainError):
        invariant_constants(5.0, -1.0, 2.0 * PHOTON.energy, 0.5 * PHOTON.volume)


def test_uncertainty_bound_equals_threshold_wavelength():
    planck_form, alpha_form = uncertainty_min_length(PHOTON.energy, K)
    assert abs(planck_form / PHOTON.lambda_p - 1.0) < 1e-12
    assert abs(alpha_form / planck_form - 1.0) < 1e-9


def test_uncertainty_bound_scales_inversely():
    one, _ = uncertainty_min_length(PHOTON.energy, K)
    half, _ = uncertainty_min_length(2.0 * PHOTON.energy, K)
    assert abs(half / (0.5 * one) - 1.0) < 1e-14
    with pytest.raises(DomainError):
        uncertainty_min_length(0.0, K)


def test_dispersion_branches():
    # m_e c^2 / hbar evaluated independently
    assert abs(dispersion_omega(0.0, K.m_e, K) / 7.763440706293299e20 - 1.0) < 1e-12
    for k_wave in (1.0, 3.21e9, 5.17921e10):
        assert dispersion_omega(k_wave, 0.0, K) == K.c * k_wave
    with pytest.raises(DomainError):
        dispersion_omega(-1.0, 0.0, K)
    with pytest.raises(DomainError):
        dispersion_omega(1.0, -1.0, K)


def test_dispersion_rearranged_identity():
    # sample k below a few mass-term units so the subtraction keeps digits
    mass_term = K.m_e * K.c * K.c / K.hbar
    rng = np.random.default_rng(11)
    for k_wave in rng.uniform(0.0, 3.0 * mass_term / K.c, 200):
        omega = dispersion_omega(float(k_wave), K.m_e, K)
        lhs = omega * omega - (K.c * k_wave) ** 2
        assert abs(lhs / mass_term ** 2 - 1.0) < 1e-12


def test_semi_photon_reference_values():
    m = semi_photon_model(1.0, K)
    # sqrt(4 m_e omega_s c/(pi r_s^2)) and zeta^2 E_o r_s^2, independently
    assert abs(m.e_o / 1.2034153860050596e13 - 1.0) < 1e-12
    assert abs(m.q_s / K.e / 9.340226260138676 - 1.0) < 1e-12
    assert abs(m.alpha_s / (2.0 / math.pi) - 1.0) < 1e-12
    assert m.sigma_s == 0.5 * K.hbar
    assert m.m_s == K.m_e
    assert m.sign == "plus"


def test_semi_photon_record_invariants():
    for zeta in (1.0, 0.7, 0.2):
        m = semi_photon_model(zeta, K)
        assert abs(m.omega_s * m.r_s / K.c - 1.0) < 1e-14
        assert abs(m.alpha_s / (m.q_s ** 2 / (K.hbar * K.c)) - 1.0) < 1e-12
        assert abs(m.alpha_s / ((2.0 / math.pi) * zeta ** 2) - 1.0) < 1e-12


def test_semi_photon_zeta_bounds():
    with pytest.raises(DomainError):
        semi_photon_model(0.0, K)
    with pytest.raises(DomainError):
        semi_photon_model(1.2, K)
    with pytest.raises(DomainError):
        semi_photon_model(1.0, K, sign="neutral")


def test_semi_photon_amplitude_overflow_is_an_error():
    # E_o grows as 1/zeta; near zeta = 9e-142 it leaves the double range
    # (at 1e-200 the section area underflows to 0 first)
    assert math.isfinite(semi_photon_model(1e-140, K).e_o)
    for zeta in (1e-150, 1e-200, 5e-324):
        with pytest.raises(EvaluationError):
            semi_photon_model(zeta, K)


def test_semi_photon_scales_are_the_threshold_photons():
    m = semi_photon_model(0.5, K)
    assert (m.r_s, m.omega_s) == (PHOTON.r_p, PHOTON.omega_p)


def test_minus_sign_flips_charge_and_moment():
    plus = semi_photon_model(0.8, K, sign="plus")
    minus = semi_photon_model(0.8, K, sign="minus")
    assert minus.q_s == -plus.q_s
    assert minus.mu_s == -plus.mu_s
    assert minus.alpha_s == plus.alpha_s
    assert minus.e_o == plus.e_o


def test_coupling_requires_no_amplitude():
    # eliminating E_o between the charge and mass closed forms leaves
    # q^2/(2 m c^2 r) = (2/pi) zeta^2 for any amplitude and radius
    rng = np.random.default_rng(20260819)
    for _ in range(100):
        zeta = float(rng.uniform(0.01, 1.0))
        e_o = float(rng.uniform(1e10, 1e14))
        r = float(rng.uniform(1e-12, 1e-9))
        omega = K.c / r
        q = zeta ** 2 * e_o * r ** 2
        m = e_o ** 2 * (math.pi * zeta ** 2 * r ** 2) / (4.0 * omega * K.c)
        alpha = q ** 2 / (2.0 * m * K.c ** 2 * r)
        assert abs(alpha / ((2.0 / math.pi) * zeta ** 2) - 1.0) < 1e-12


def test_radius_recovered_from_charge_and_mass():
    for zeta in (1.0, 0.5):
        m = semi_photon_model(zeta, K)
        r = math.pi * m.q_s ** 2 / (4.0 * zeta ** 2 * m.m_s * K.c ** 2)
        assert abs(r / m.r_s - 1.0) < 1e-12


def test_magnetic_moment_reference_value():
    m = semi_photon_model(1.0, K)
    mu = magnetic_moment(K.e, m.r_s, m.omega_s, K.c)
    # e hbar/(4 m_e c) evaluated independently
    assert abs(mu / 4.6370050391810806e-21 - 1.0) < 1e-12
    assert abs(mu / (K.e * K.hbar / (4.0 * K.m_e * K.c)) - 1.0) < 1e-12


def test_thomas_factor_doubles_moment():
    m = semi_photon_model(1.0, K)
    mu = magnetic_moment(K.e, m.r_s, m.omega_s, K.c)
    assert magnetic_moment(K.e, m.r_s, m.omega_s, K.c, thomas=True) == 2.0 * mu


@pytest.mark.parametrize("thomas", ["no", 1, 0, None, 1.0])
def test_thomas_flag_must_be_a_bool(thomas):
    # a truthy "no", like 1, would double the moment
    m = semi_photon_model(1.0, K)
    with pytest.raises(DomainError, match="thomas must be a bool"):
        magnetic_moment(K.e, m.r_s, m.omega_s, K.c, thomas=thomas)


def test_moment_linear_in_charge_and_free_of_zeta():
    thick = semi_photon_model(1.0, K)
    thin = semi_photon_model(0.3, K)
    assert thick.r_s == thin.r_s and thick.omega_s == thin.omega_s
    mu_thick = magnetic_moment(K.e, thick.r_s, thick.omega_s, K.c)
    mu_thin = magnetic_moment(K.e, thin.r_s, thin.omega_s, K.c)
    assert mu_thick == mu_thin
    assert abs(thick.mu_s / thick.q_s - thin.mu_s / thin.q_s) <= 1e-12 * abs(
        thick.mu_s / thick.q_s
    )


def test_split_preserves_geometry_and_balances_charge():
    # the photon's two halves: the electron (plus) and positron (minus) at zeta = 1
    plus = semi_photon_model(1.0, K, sign=SIGN_PLUS)
    minus = semi_photon_model(1.0, K, sign=SIGN_MINUS)
    for half in (plus, minus):
        assert half.r_s == PHOTON.r_p
        assert half.omega_s == PHOTON.omega_p
        assert half.sigma_s == 0.5 * K.hbar
    assert plus.sigma_s + minus.sigma_s == PHOTON.spin
    assert plus.q_s > 0.0 and plus.q_s + minus.q_s == 0.0


def test_uncertainty_forms_guard():
    # a constants set with an inconsistent alpha trips the cross-check
    bad = K.replace(alpha_exp=7.3e-3)
    with pytest.raises(EvaluationError):
        uncertainty_min_length(PHOTON.energy, bad)

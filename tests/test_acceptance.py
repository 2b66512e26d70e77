"""End-to-end acceptance checks.

Each test verifies one headline claim of the model at its stated
tolerance and prints a single PASS/FAIL line (visible under
``pytest -s`` or in the captured output of a failing run).
"""

import contextlib
import io
import math

import numpy as np

from ringwave import (
    QuadratureSpec,
    codata_constants,
    dispersion_omega,
    electron_scales,
    frenet_at,
    magnetic_moment,
    normal_rate,
    pair_threshold_photon,
    ring_from_radius,
    semi_photon_model,
    total_charge,
    total_mass,
    twirled_field,
    uncertainty_min_length,
    vacuum_polarization,
)
from ringwave.cli import main
from ringwave.fields import KIND_PHOTON, KIND_SEMI_MINUS, KIND_SEMI_PLUS
from ringwave.lorentz import WavePacket, boost_packet
from ringwave.model import SIGN_MINUS

K = codata_constants()
PHOTON = pair_threshold_photon(K)
SEMI = semi_photon_model(1.0, K)


def _check(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def test_01_bare_coupling_is_two_over_pi():
    exact = abs(SEMI.alpha_s / (2.0 / math.pi) - 1.0) < 1e-12
    rounded = abs(SEMI.alpha_s / 0.637 - 1.0) < 1e-3
    _check(f"alpha_s = 2/pi = {SEMI.alpha_s:.12g} (and = 0.637 to 0.1%)",
           exact and rounded)


def test_02_bare_charge_ratio_from_two_routes():
    geometric = SEMI.q_s / K.e
    screened = vacuum_polarization(SEMI.alpha_s, K).q_bare / K.e
    each = abs(geometric - 9.34) < 0.01 and abs(screened - 9.34) < 0.01
    agree = abs(geometric / screened - 1.0) < 1e-6
    _check(f"q_s/e = {geometric:.6f} geometric, {screened:.6f} screened",
           each and agree)


def test_03_vacuum_permeability():
    eps_v = vacuum_polarization(SEMI.alpha_s, K).eps_v
    _check(f"eps_v = {eps_v:.6f} (87.24 +/- 0.09, 87.27 to 0.1%)",
           abs(eps_v - 87.24) < 0.09 and abs(eps_v / 87.27 - 1.0) < 1e-3)


def test_04_photon_is_neutral_and_halves_balance():
    ring = ring_from_radius(SEMI.r_s, K.c)
    spec = QuadratureSpec()
    scale = SEMI.e_o * math.pi * SEMI.r_s ** 2
    photon_q = total_charge(twirled_field(KIND_PHOTON, SEMI.e_o, ring), 1.0, spec)
    plus_q = total_charge(twirled_field(KIND_SEMI_PLUS, SEMI.e_o, ring), 1.0, spec)
    minus_q = total_charge(twirled_field(KIND_SEMI_MINUS, SEMI.e_o, ring), 1.0, spec)
    _check(
        f"photon charge {photon_q.value:.3g} vanishes; "
        f"q+ + q- = {plus_q.value + minus_q.value}",
        abs(photon_q.value) <= 1e-12 * scale
        and plus_q.value + minus_q.value == 0.0,
    )


def test_05_spin_ledger():
    plus, minus = SEMI, semi_photon_model(1.0, K, sign=SIGN_MINUS)
    j = PHOTON.mass_equivalent * PHOTON.r_p ** 2 * PHOTON.omega_p
    _check(
        f"spin: photon hbar, halves hbar/2 each, J = {j:.6g} erg*s",
        PHOTON.spin == K.hbar
        and plus.sigma_s == 0.5 * K.hbar
        and minus.sigma_s == 0.5 * K.hbar
        and plus.sigma_s + minus.sigma_s == K.hbar
        and abs(j / K.hbar - 1.0) < 1e-12,
    )


def test_06_radii_line_up():
    vp = vacuum_polarization(SEMI.alpha_s, K)
    _, lam_bar = electron_scales(K)
    _check(
        f"r_s = r_p = {SEMI.r_s:.6g} cm; r_bare = {vp.r_bare:.6g} cm "
        f"= reduced Compton wavelength",
        abs(SEMI.r_s / PHOTON.r_p - 1.0) < 1e-14
        and abs(vp.r_bare / lam_bar - 1.0) < 1e-9,
    )


def test_07_magnetic_moment_at_elementary_charge():
    mu = magnetic_moment(K.e, SEMI.r_s, SEMI.omega_s, K.c)
    bohr_like = K.e * K.hbar / (4.0 * K.m_e * K.c)
    doubled = magnetic_moment(K.e, SEMI.r_s, SEMI.omega_s, K.c, thomas=True)
    _check(
        f"mu(q=e) = {mu:.6g} erg/G = e hbar/(4 m_e c); Thomas factor doubles",
        abs(mu / bohr_like - 1.0) < 1e-6
        and abs(mu / 4.6370050391810806e-21 - 1.0) < 1e-6
        and doubled == 2.0 * mu,
    )


def test_08_lorentz_invariance_sweep():
    packet = WavePacket(
        e_o=SEMI.e_o,
        omega=PHOTON.omega_p,
        energy=PHOTON.energy,
        volume=PHOTON.volume,
    )
    worst = 0.0
    hbar_ok = True
    betas = (-0.99, -0.9, -0.5, -0.1, 0.1, 0.5, 0.9, 0.99)
    for (_, omega, energy, _), _, drift in boost_packet(packet, betas):
        worst = max(worst, drift)
        hbar_ok = hbar_ok and abs(energy / omega / K.hbar - 1.0) < 1e-12
    _check(
        f"invariant ratios drift at most {worst:.3g} across the boost sweep; "
        f"energy/omega = hbar in every frame",
        worst < 1e-12 and hbar_ok,
    )


def test_09_dispersion_branches():
    rest = dispersion_omega(0.0, K.m_e, K)
    massless_ok = all(
        dispersion_omega(k_wave, 0.0, K) == K.c * k_wave
        for k_wave in (1.0, 2.591e10, 7.7e12)
    )
    _check(
        f"omega(k=0, m_e) = {rest:.10g} rad/s = m_e c^2/hbar; "
        f"massless branch is exactly ck",
        abs(rest / (K.m_e * K.c * K.c / K.hbar) - 1.0) < 1e-12 and massless_ok,
    )


def test_10_frame_rotation_rate_converges_quadratically():
    ring = ring_from_radius(1.0, 100.0)
    v, l = 100.0, 0.3
    analytic = np.array(normal_rate(ring, v, l))
    errors = []
    for h in (1e-4, 1e-5, 1e-6):
        fd = (np.array(frenet_at(ring, l + v * h)[2])
              - frenet_at(ring, l - v * h)[2]) / (2.0 * h)
        errors.append(float(np.max(np.abs(fd - analytic))))
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    _check(
        f"finite-difference error ratios {r1:.1f}, {r2:.1f} per 10x step "
        f"refinement (expect about 100)",
        50.0 < r1 < 200.0 and 50.0 < r2 < 200.0,
    )


def test_11_half_quantum_discrepancy_is_surfaced():
    ring = ring_from_radius(SEMI.r_s, K.c)
    spec = QuadratureSpec()
    charge = total_charge(twirled_field(KIND_SEMI_PLUS, SEMI.e_o, ring), 1.0, spec)
    mass = total_mass(twirled_field(KIND_SEMI_PLUS, SEMI.e_o, ring), 1.0, spec)
    api_ok = (
        abs(charge.discrepancy_factor - 0.5) < 1e-9
        and abs(mass.discrepancy_factor - 0.5) < 1e-9
    )
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["consistency"])
    out = buf.getvalue()
    cli_ok = (
        code == 0
        and f"{charge.value:.6g}" in out
        and f"{charge.closed_form:.6g}" in out
        and "0.5" in out
    )
    _check(
        f"integrated charge and mass each land at 0.5x the closed form "
        f"(charge {charge.value:.6g} vs {charge.closed_form:.6g} statC) "
        f"and the CLI reports it",
        api_ok and cli_ok,
    )


def test_12_uncertainty_floor_is_the_threshold_wavelength():
    planck_form, alpha_form = uncertainty_min_length(PHOTON.energy, K)
    _check(
        f"minimal packet length {planck_form:.6g} cm equals the threshold "
        f"wavelength; both algebraic forms agree",
        abs(planck_form / PHOTON.lambda_p - 1.0) < 1e-12
        and abs(alpha_form / planck_form - 1.0) < 1e-9,
    )

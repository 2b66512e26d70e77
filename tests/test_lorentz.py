import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ringwave import (
    DomainError,
    WavePacket,
    boost_packet,
    boost_plane_fields,
    codata_constants,
    invariant_constants,
    pair_threshold_photon,
    semi_photon_model,
)
from ringwave.cli import main

K = codata_constants()
PHOTON = pair_threshold_photon(K)
AMP = semi_photon_model(1.0, K).e_o
PACKET = WavePacket(
    e_o=AMP,
    omega=PHOTON.omega_p,
    energy=PHOTON.energy,
    volume=PHOTON.volume,
)
NUMBERS = (PACKET.e_o, PACKET.omega, PACKET.energy, PACKET.volume)


def _boost(packet, beta):
    """The one frame of boost_packet over the grid [beta], its primed
    numbers as a WavePacket."""
    [(primed, ratios, drift)] = boost_packet(packet, [beta])
    return WavePacket(*primed), ratios, drift


def test_packet_validation():
    # amplitude, frequency, energy and volume are the only inputs
    inputs = PACKET.init_fields
    assert inputs == ("e_o", "omega", "energy", "volume")
    with pytest.raises(DomainError):
        WavePacket(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        WavePacket(1.0, 1.0, 1.0, -1.0)


def test_zero_boost_is_identity():
    for beta in (0.0, -0.0):
        [(primed, ratios, drift)] = boost_packet(PACKET, [beta])
        assert primed == NUMBERS
        assert ratios == invariant_constants(*NUMBERS)
        assert drift == 0.0


def test_receding_at_beta_06_halves_frequency():
    # (1 - 0.6)/(1 + 0.6) is exactly 0.25 in binary floating point
    primed, _, _ = _boost(PACKET, 0.6)
    assert primed.omega == 0.5 * PACKET.omega
    assert abs(primed.energy / (0.5 * PACKET.energy) - 1.0) < 1e-14
    assert abs(primed.volume / (2.0 * PACKET.volume) - 1.0) < 1e-14
    assert abs(primed.e_o / (0.5 * PACKET.e_o) - 1.0) < 1e-12


@pytest.mark.parametrize("amp", [1e200, 1e-200, 1e-303, 5e-324])
def test_boost_takes_any_amplitude_the_packet_takes(amp):
    if amp / PHOTON.omega_p == 0.0:
        # c1 = E_o/omega_p underflows to 0.0, and the drift divides by it:
        # refused at every beta, 0 included, with the package's own error
        packet = WavePacket(amp, PHOTON.omega_p, PHOTON.energy, PHOTON.volume)
        for beta in (0.0, 0.5, -0.5):
            with pytest.raises(DomainError, match="underflows to 0.0"):
                boost_packet(packet, [beta])
        return
    # E'.E' over- or underflows here; |E'| itself is finite and positive
    primed, _, drift = _boost(WavePacket(amp, 1.0, 1.0, 1.0), 0.6)
    assert abs(primed.e_o / (0.5 * amp) - 1.0) < 1e-15
    assert drift < 1e-15


def test_boost_refuses_a_packet_whose_volume_ratio_underflows():
    # c3 = volume * omega = 5e-324 * 1e-300 underflows to 0.0
    with pytest.raises(DomainError, match="underflows to 0.0"):
        boost_packet(WavePacket(1.0, 1e-300, 1.0, 5e-324), [0.5])


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.6])
@pytest.mark.parametrize("packet", [
    WavePacket(5e-324, 1.0, 1.0, 1.0),
    WavePacket(1e-320, 1e-20, 1.0, 1.0),
    WavePacket(1.0, 1e-20, 1e-310, 1.0),
], ids=["c1", "e_o", "energy"])
def test_boost_refuses_a_subnormal_number_or_ratio_naming_the_callers_packet(packet, beta):
    # its rounding is coarse: with c1 = 5e-324 the drift read 1.0 at 0.5, and
    # at 0.6 the boosted amplitude 0.0 was refused as if the caller had passed
    # it; with every ratio normal, e_o = 1e-320 read 3.8e-4 at 0.5, energy
    # 1e-310 read 1.9e-14; the packet is checked once per grid, before any beta
    with pytest.raises(DomainError, match="subnormal") as refused:
        boost_packet(packet, [beta])
    assert f"a number or ratio of {packet} underflows " in str(refused.value)


@pytest.mark.parametrize("packet,beta", [
    # c1 = E_o/omega is the smallest normal double, and c1' rounds one step
    # below it while every primed number is normal
    (WavePacket(3.0 * sys.float_info.min, 3.0, 1.0, 1.0), 0.4),
    # the energy 3e-308 times the Doppler factor 3^-1/2 is 1.7e-308
    (WavePacket(1.0, 1e-20, 3e-308, 1.0), 0.5),
], ids=["ratio", "number"])
def test_boost_refuses_a_number_or_ratio_that_underflows_in_the_boost(packet, beta):
    # every number and ratio is normal before the boost
    with pytest.raises(DomainError, match="subnormal") as refused:
        boost_packet(packet, [beta])
    assert f"{packet} boosted at beta {beta} " in str(refused.value)


def test_boost_takes_a_packet_whose_photon_energy_underflows():
    # hbar omega = 1e-327 underflows to 0.0, so a photon-count route would
    # divide by zero; energy follows the Doppler factor, volume its inverse
    primed, _, drift = _boost(WavePacket(1.0, 1e-300, 1.0, 1e300), 0.5)
    doppler = math.sqrt(1.0 / 3.0)
    assert abs(primed.energy / doppler - 1.0) < 1e-15
    assert abs(primed.volume * doppler / 1e300 - 1.0) < 1e-15
    assert drift < 1e-15


def test_approaching_frame_blueshifts():
    primed, _, _ = _boost(PACKET, -0.6)
    assert primed.omega == 2.0 * PACKET.omega


def test_invariants_hold_across_sweep():
    betas = (-0.99, -0.9, -0.5, -0.1, 0.1, 0.5, 0.9, 0.99)
    for beta, (_, _, drift) in zip(betas, boost_packet(PACKET, betas)):
        assert drift < 1e-12, beta


def test_action_ratio_is_hbar_in_every_frame():
    # energy/omega for a one-photon packet is hbar before and after
    betas = (0.0, 0.3, -0.7, 0.95)
    for beta, ((_, omega, energy, _), _, _) in zip(betas, boost_packet(PACKET, betas)):
        assert abs(energy / omega / K.hbar - 1.0) < 1e-14, beta


def test_boost_composition():
    b1, b2 = 0.5, 0.3
    step, _, _ = _boost(_boost(PACKET, b1)[0], b2)
    combined, _, _ = _boost(PACKET, (b1 + b2) / (1.0 + b1 * b2))
    assert abs(step.omega / combined.omega - 1.0) < 1e-12
    assert abs(step.energy / combined.energy - 1.0) < 1e-12
    assert abs(step.volume / combined.volume - 1.0) < 1e-12
    assert abs(step.e_o / combined.e_o - 1.0) < 1e-12


def test_field_transform_transverse_wave():
    b = 0.6
    e_vec = (AMP, 0.0, 0.0)
    h_vec = (0.0, AMP, 0.0)
    beta_vec = (0.0, 0.0, b)
    e_p, h_p = boost_plane_fields(e_vec, h_vec, beta_vec)
    doppler = math.sqrt((1.0 - b) / (1.0 + b))
    assert abs(np.linalg.norm(e_p) / (doppler * AMP) - 1.0) < 1e-12
    assert abs(np.linalg.norm(h_p) / np.linalg.norm(e_p) - 1.0) < 1e-12
    assert abs(float(np.dot(e_p, h_p))) < 1e-9 * AMP * AMP
    assert abs(float(np.dot(e_p, beta_vec))) < 1e-9 * AMP


def test_field_transform_longitudinal_component_unchanged():
    e_vec = (0.0, 0.0, AMP)
    h_vec = (0.0, 0.0, 0.0)
    beta_vec = (0.0, 0.0, 0.9)
    e_p, h_p = boost_plane_fields(e_vec, h_vec, beta_vec)
    assert abs(e_p[2] / AMP - 1.0) < 1e-12
    assert float(np.linalg.norm(h_p)) == 0.0


def test_boost_domain_errors():
    with pytest.raises(DomainError):
        boost_packet(PACKET, [1.0])
    with pytest.raises(DomainError):
        boost_packet(PACKET, [-1.5])
    with pytest.raises(DomainError):
        boost_plane_fields((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def test_sweep_selects_worst_report(capsys):
    # the sweep is the invariants subcommand; its gate is the worst boost
    betas = [0.0, 0.1, 0.6, 0.95]
    assert main(["invariants", "--format", "json",
                 "--beta-grid=" + ",".join(map(str, betas))]) == 0
    swept = json.loads(capsys.readouterr().out)
    individual = boost_packet(PACKET, betas)
    assert swept["max_deviation"] == max(drift for _, _, drift in individual)
    assert [f["omega"] for f in swept["frames"]] == [p[1] for p, _, _ in individual]


def test_non_finite_beta_is_rejected():
    for beta in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            boost_packet(PACKET, [beta])


def test_boost_plane_fields_returns_float_tuples():
    e_p, h_p = boost_plane_fields((0.0, AMP, 0.0), (0.0, 0.0, AMP), (0.6, 0.0, 0.0))
    for vector in (e_p, h_p):
        assert type(vector) is tuple and len(vector) == 3
        assert all(type(c) is float for c in vector)
    # the Doppler factor at beta = 0.6 is exactly 1/2
    assert abs(e_p[1] / (0.5 * AMP) - 1.0) < 1e-15
    assert abs(h_p[2] / (0.5 * AMP) - 1.0) < 1e-15


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def reference_boost_plane_fields(e, h, beta):
    """The field-transformation law by vector operations: the oracle that
    lorentz.boost_plane_fields, written out by component, must match bit
    for bit, refusals included."""
    b2 = _dot(beta, beta)
    if not b2 < 1.0:
        raise DomainError(f"|beta| must be a finite number below 1, got {beta}")
    gamma = 1.0 / math.sqrt(1.0 - b2)
    coef = gamma * gamma / (gamma + 1.0)
    b_x_h = _cross(beta, h)
    b_x_e = _cross(beta, e)
    b_e = coef * _dot(beta, e)
    b_h = coef * _dot(beta, h)
    e_prime = tuple([gamma * (e[i] + b_x_h[i]) - b_e * beta[i] for i in range(3)])
    h_prime = tuple([gamma * (h[i] - b_x_e[i]) - b_h * beta[i] for i in range(3)])
    if not all(map(math.isfinite, e_prime + h_prime)):
        raise DomainError(f"boosted fields are not finite: E' = {e_prime}, H' = {h_prime}")
    return e_prime, h_prime


EDGE_FIELDS = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e300, -1e300, AMP]
EDGE_BETAS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.6, -0.999999999, 0.999999999]
# vectors whose sums of products round differently in another order
CLOSE_FIELDS = [0.0, 1.0, -2.0, 2e-16, -3e-16]
CLOSE_BETAS = [0.0, 0.5, -0.5, 0.25]


def _vectors(edges, close, floats):
    return st.one_of(st.tuples(*[st.sampled_from(close)] * 3),
                     st.tuples(*[st.one_of(st.sampled_from(edges), floats)] * 3))


FIELD_VECTORS = _vectors(EDGE_FIELDS, CLOSE_FIELDS,
                         st.floats(allow_nan=False, allow_infinity=False))
BETA_VECTORS = _vectors(EDGE_BETAS, CLOSE_BETAS,
                        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))


@given(FIELD_VECTORS, FIELD_VECTORS, BETA_VECTORS)
@example((0.0, AMP, 0.0), (0.0, 0.0, AMP), (0.999999999, 0.0, 0.0))
@example((-0.0, 1e300, 5e-324), (1e-300, -0.0, -1e300), (0.0, -0.0, -0.6))
@example((1.0, 2.0, 3.0), (-3.0, 0.5, 5e-324), (0.1, -0.2, 0.3))
# beta . E (then beta . H) is 0.0 summed left to right, and not 0.0 in another order
@example((2.0, 2e-16, -2.0), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
@example((0.0, 0.0, 0.0), (2.0, 2e-16, -2.0), (0.5, 0.5, 0.5))
@example((1e308, 0.0, 0.0), (0.0, 1e308, 0.0), (0.0, 0.0, -0.999999999))  # overflows
@example((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.6, 0.6, 0.6))  # |beta| > 1
def test_boost_plane_fields_is_the_vector_law_bit_for_bit(e, h, beta):
    try:
        expected = reference_boost_plane_fields(e, h, beta)
    except DomainError as exc:
        with pytest.raises(DomainError) as refused:
            boost_plane_fields(e, h, beta)
        assert str(refused.value) == str(exc)
        return
    assert repr(boost_plane_fields(e, h, beta)) == repr(expected)


def test_boost_packet_calls_the_public_field_law_once_per_beta(monkeypatch):
    # beta = 0 takes the general path too: test_zero_boost_is_identity pins its result
    import ringwave.lorentz

    calls = []

    def counted(e, h, beta):
        calls.append(beta)
        return boost_plane_fields(e, h, beta)

    monkeypatch.setattr(ringwave.lorentz, "boost_plane_fields", counted)
    betas = (-0.9, 0.0, 0.3, 0.0, 0.99)
    reports = boost_packet(PACKET, betas)
    assert calls == [(b, 0.0, 0.0) for b in betas]
    monkeypatch.undo()
    assert reports == boost_packet(PACKET, betas)


def test_report_carries_the_invariants_of_the_primed_packet():
    betas = (-0.99, -0.6, 0.0, 0.3, 0.6, 0.99)
    for beta, (prim, invariants, _) in zip(betas, boost_packet(PACKET, betas)):
        assert invariants == invariant_constants(*prim), beta


@pytest.mark.parametrize("index", [0, 1, 2], ids=["c1", "c2", "c3"])
def test_a_wrong_ratio_in_the_moved_frame_shows_in_the_deviation(index, monkeypatch):
    # the deviation compares the ratios that invariant_constants defines,
    # which boost_packet reads through model._ratios (its packets are
    # checked already): one ratio off by 1e-6 in the moved frame must show
    # as a 1e-6 drift
    import ringwave.lorentz

    def skewed(e_o, omega, energy, volume):
        ratios = list(invariant_constants(e_o, omega, energy, volume))
        if omega != PACKET.omega:
            ratios[index] *= 1.0 + 1e-6
        return tuple(ratios)

    monkeypatch.setattr(ringwave.lorentz, "_ratios", skewed)
    for _, _, drift in boost_packet(PACKET, (-0.9, 0.5)):
        assert abs(drift / 1e-6 - 1.0) < 1e-6
    assert boost_packet(PACKET, [0.0])[0][2] == 0.0


# the grid boost reads the packet once per call and boosts each beta alone:
# a frame must not depend on the rest of the grid or on its place in it
GRID_EDGE_BETAS = [0.0, -0.0, 0.999999, -0.999999, 5e-324, -1e-300, 0.6, 0.999999999]


@given(st.lists(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), max_size=20),
       st.randoms(use_true_random=False))
@example([0.5, -0.25], random.Random(0))
def test_each_frame_of_a_grid_is_its_one_beta_boost(betas, rng):
    betas = betas + GRID_EDGE_BETAS
    rng.shuffle(betas)
    frames = boost_packet(PACKET, betas)
    assert len(frames) == len(betas)
    for beta, frame in zip(betas, frames):
        assert repr(frame) == repr(boost_packet(PACKET, [beta])[0]), beta


@pytest.mark.parametrize("packet,bad", [
    *[(PACKET, beta) for beta in (math.nan, math.inf, -math.inf, 1.0, -1.5, True)],
    # every number and ratio is normal at beta 0, and the energy underflows at 0.5
    (WavePacket(1.0, 1e-20, 3e-308, 1.0), 0.5),
])
def test_a_refused_beta_mid_grid_is_refused_as_alone(packet, bad):
    with pytest.raises(DomainError) as alone:
        boost_packet(packet, [bad])
    with pytest.raises(DomainError) as mid_grid:
        boost_packet(packet, [0.0, -0.3, bad, 0.2])
    assert str(mid_grid.value) == str(alone.value)


def test_an_empty_grid_boosts_nothing_but_the_packet_is_still_checked():
    assert boost_packet(PACKET, []) == []
    with pytest.raises(DomainError, match="subnormal"):
        boost_packet(WavePacket(5e-324, 1.0, 1.0, 1.0), [])

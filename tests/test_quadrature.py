import math

import pytest

from ringwave import (
    KIND_PHOTON,
    KIND_SEMI_MINUS,
    KIND_SEMI_PLUS,
    DomainError,
    EvaluationError,
    IntegralReport,
    QuadratureSpec,
    RULE_GAUSS5,
    RULE_MIDPOINT,
    TorusShape,
    codata_constants,
    field_at,
    integrate_line,
    mass_density,
    pair_threshold_photon,
    ring_from_radius,
    section_measure,
    semi_photon_model,
    total_charge,
    total_mass,
    twirled_field,
)
from ringwave.quadrature import _GL5_NODES, _GL5_WEIGHTS

K = codata_constants()
SPEC = QuadratureSpec()


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(panels=0)
    with pytest.raises(DomainError):
        QuadratureSpec(rule="trapezoid")
    # a bool is not a panel count, and a truthy string is not a flag
    with pytest.raises(DomainError, match="panel count"):
        QuadratureSpec(panels=True)
    with pytest.raises(DomainError, match="must be a bool"):
        QuadratureSpec(panels=2, rule=RULE_MIDPOINT, include_toroidal_jacobian="no")


def test_integral_report_record_fields():
    report = IntegralReport(value=1.5, closed_form=3.0, section_factor=1.0)
    # value, closed form and section factor are the only inputs; the rest is derived
    inputs = report.init_fields
    assert inputs == ("value", "closed_form", "section_factor")
    assert (report.abs_error, report.discrepancy_factor) == (1.5, 0.5)
    neutral = IntegralReport(value=-2e-30, closed_form=0.0, section_factor=1.0)
    assert (neutral.abs_error, neutral.discrepancy_factor) == (2e-30, None)
    # the key order of the consistency JSON
    assert list(report.asdict()) == [
        "value", "closed_form", "abs_error", "discrepancy_factor", "section_factor"]


def test_full_period_cosine_integrates_to_zero():
    lam = 2.0 * math.pi
    assert abs(integrate_line(math.cos, 0.0, lam, SPEC)) < 1e-12 * lam


def test_quarter_wave_cosine_squared():
    k = 3.7e5
    lam = 2.0 * math.pi / k
    f = lambda l: math.cos(k * l) ** 2
    # antiderivative l/2 + sin(2 k l)/(4 k) gives lambda/8 over a quarter wave
    assert abs(integrate_line(f, 0.0, lam / 4.0, SPEC) / (lam / 8.0) - 1.0) < 1e-10


def test_unit_integral_exact():
    assert integrate_line(lambda l: 1.0, 0.0, 1.0, SPEC) == 1.0


def test_overflowing_sum_is_refused():
    # every integrand value is finite; with 1e308 their sum is not
    for rule in (RULE_GAUSS5, RULE_MIDPOINT):
        spec = QuadratureSpec(panels=2, rule=rule)
        assert integrate_line(lambda x: 1e307, 0.0, 10.0, spec) < math.inf
        with pytest.raises(EvaluationError, match="overflows"):
            integrate_line(lambda x: 1e308, 0.0, 10.0, spec)


def test_gauss5_table_matches_closed_forms():
    # a mistyped digit would still pass the degree-nine test's 1e-13
    # bound, so pin every entry to Abramowitz & Stegun 25.4.29
    inner = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
    outer = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
    w_inner = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
    w_outer = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
    nodes = (-outer, -inner, 0.0, inner, outer)
    weights = (w_outer, w_inner, 128.0 / 225.0, w_inner, w_outer)
    for got, want in zip(_GL5_NODES + _GL5_WEIGHTS, nodes + weights):
        assert abs(got - want) <= math.ulp(want)
    for i in range(5):
        assert _GL5_NODES[i] == -_GL5_NODES[4 - i]
        assert _GL5_WEIGHTS[i] == _GL5_WEIGHTS[4 - i]
    # left to right as integrate_line adds; sum() compensates from 3.12
    total = 0.0
    for w in _GL5_WEIGHTS:
        total += w
    assert total == 2.0


def test_degree_nine_polynomial_exact_on_one_panel():
    one_panel = QuadratureSpec(panels=1)
    value = integrate_line(lambda x: x ** 9, 0.0, 2.0, one_panel)
    assert abs(value / 102.4 - 1.0) < 1e-13


def test_midpoint_rule_basics():
    mid = QuadratureSpec(panels=64, rule=RULE_MIDPOINT)
    assert abs(integrate_line(lambda x: x, 0.0, 1.0, mid) - 0.5) < 1e-15
    # second-order convergence on a curved integrand
    err64 = abs(integrate_line(lambda x: x * x, 0.0, 1.0, mid) - 1.0 / 3.0)
    mid256 = QuadratureSpec(panels=256, rule=RULE_MIDPOINT)
    err256 = abs(integrate_line(lambda x: x * x, 0.0, 1.0, mid256) - 1.0 / 3.0)
    assert 12.0 < err64 / err256 < 20.0


def test_bad_interval_and_bad_integrand():
    with pytest.raises(DomainError):
        integrate_line(math.cos, 1.0, 1.0, SPEC)
    with pytest.raises(DomainError):
        integrate_line(math.cos, 2.0, 1.0, SPEC)
    with pytest.raises(EvaluationError) as err:
        integrate_line(lambda l: float("nan"), 0.0, 1.0, SPEC)
    assert "l =" in str(err.value)


def _electron_setup(zeta=1.0):
    model = semi_photon_model(zeta, K)
    ring = ring_from_radius(model.r_s, K.c)
    shape = TorusShape(r_s=model.r_s, r_c=zeta * model.r_s)
    return model, ring, shape


def test_photon_charge_vanishes():
    model, ring, shape = _electron_setup()
    cfg = twirled_field(KIND_PHOTON, model.e_o, ring)
    report = total_charge(cfg, 1.0, SPEC)
    assert report.closed_form == 0.0
    assert report.discrepancy_factor is None
    assert abs(report.value) <= 1e-12 * model.e_o * shape.section_area


def test_semi_charge_value_and_factor():
    # unit-scale check: E_o = 1, r_c = r_s = 1 makes the lobe integral
    # S_c/(2 pi) against the stated closed form S_c/pi
    ring = ring_from_radius(1.0, K.c)
    cfg = twirled_field(KIND_SEMI_PLUS, 1.0, ring)
    report = total_charge(cfg, 1.0, SPEC)
    assert abs(report.value / 0.5 - 1.0) < 1e-10
    assert abs(report.closed_form / 1.0 - 1.0) < 1e-12
    assert abs(report.discrepancy_factor / 0.5 - 1.0) < 1e-10


def test_semi_charge_at_electron_scale():
    model, ring, shape = _electron_setup()
    cfg = twirled_field(KIND_SEMI_PLUS, model.e_o, ring)
    report = total_charge(cfg, 1.0, SPEC)
    oracle = model.e_o * shape.section_area / (2.0 * math.pi)
    assert abs(report.value / oracle - 1.0) < 1e-10
    assert abs(report.discrepancy_factor / 0.5 - 1.0) < 1e-10
    # the closed form is the model charge itself
    assert abs(report.closed_form / model.q_s - 1.0) < 1e-12


def test_minus_kind_carries_opposite_charge():
    model, ring, _ = _electron_setup()
    plus = total_charge(twirled_field(KIND_SEMI_PLUS, model.e_o, ring), 1.0, SPEC)
    minus = total_charge(twirled_field(KIND_SEMI_MINUS, model.e_o, ring), 1.0, SPEC)
    assert minus.value == -plus.value
    assert minus.closed_form == -plus.closed_form
    assert plus.value + minus.value == 0.0


def test_charge_conserved_under_division():
    model, ring, shape = _electron_setup()
    photon = total_charge(twirled_field(KIND_PHOTON, model.e_o, ring), 1.0, SPEC)
    plus = total_charge(twirled_field(KIND_SEMI_PLUS, model.e_o, ring), 1.0, SPEC)
    minus = total_charge(twirled_field(KIND_SEMI_MINUS, model.e_o, ring), 1.0, SPEC)
    scale = model.e_o * shape.section_area
    assert abs(photon.value - (plus.value + minus.value)) <= 1e-12 * scale


def test_torus_is_built_on_the_wave_ring():
    # zeta = 1/2 quarters pi r_c^2 exactly, and with it both integrals
    model, ring, _ = _electron_setup()
    cfg = twirled_field(KIND_SEMI_PLUS, model.e_o, ring)
    for total in (total_charge, total_mass):
        full, half = total(cfg, 1.0, SPEC), total(cfg, 0.5, SPEC)
        assert (half.value, half.closed_form) == (0.25 * full.value, 0.25 * full.closed_form)
        with pytest.raises(DomainError):  # r_c would exceed the ring radius
            total(cfg, 1.5, SPEC)


def test_panel_doubling_is_converged():
    model, ring, _ = _electron_setup()
    cfg = twirled_field(KIND_SEMI_PLUS, model.e_o, ring)
    v64 = total_charge(cfg, 1.0, QuadratureSpec(panels=64)).value
    v128 = total_charge(cfg, 1.0, QuadratureSpec(panels=128)).value
    assert abs(v128 / v64 - 1.0) < 1e-12


def test_mass_closed_form_recovers_electron_mass():
    model, ring, _ = _electron_setup()
    cfg = twirled_field(KIND_SEMI_PLUS, model.e_o, ring)
    report = total_mass(cfg, 1.0, SPEC)
    assert abs(report.closed_form / K.m_e - 1.0) < 1e-12
    assert abs(report.discrepancy_factor / 0.5 - 1.0) < 1e-10
    assert report.value > 0.0


def test_mass_scales_quadratically_with_amplitude():
    model, ring, _ = _electron_setup()
    v1 = total_mass(twirled_field(KIND_SEMI_PLUS, model.e_o, ring), 1.0, SPEC).value
    v2 = total_mass(twirled_field(KIND_SEMI_PLUS, 2.0 * model.e_o, ring), 1.0, SPEC).value
    assert abs(v2 / (4.0 * v1) - 1.0) < 1e-12


def test_mass_defined_for_semi_kinds_only():
    model, ring, _ = _electron_setup()
    with pytest.raises(DomainError):
        total_mass(twirled_field(KIND_PHOTON, model.e_o, ring), 1.0, SPEC)


def test_mass_refuses_an_amplitude_whose_energy_density_overflows():
    # E_o = 1e200 makes a valid configuration, but E_o^2 overflows: the
    # integrand refuses it as out of domain, rather than returning inf
    _, ring, _ = _electron_setup()
    with pytest.raises(DomainError, match="energy density overflows"):
        total_mass(twirled_field(KIND_SEMI_PLUS, 1e200, ring), 1.0, SPEC)


def test_toroidal_volume_element_changes_nothing_measurable():
    # the cos(theta) part of the exact volume element integrates to
    # zero over the section, so the factorized measure is already exact
    shape = TorusShape(r_s=2.0, r_c=1.0)
    spec = QuadratureSpec(panels=16, include_toroidal_jacobian=True)
    flat = math.pi * shape.r_c ** 2
    assert abs(section_measure(shape, spec) / flat - 1.0) < 1e-12

    model, ring, _ = _electron_setup()
    cfg = twirled_field(KIND_SEMI_PLUS, model.e_o, ring)
    report = total_charge(cfg, 1.0, QuadratureSpec(panels=16, include_toroidal_jacobian=True))
    assert abs(report.section_factor - 1.0) < 1e-12


def test_thin_torus_limit_trivial():
    model, ring, _ = _electron_setup()
    thin = TorusShape(r_s=model.r_s, r_c=1e-3 * model.r_s)
    spec = QuadratureSpec(panels=16, include_toroidal_jacobian=True)
    assert abs(section_measure(thin, spec) / (math.pi * thin.r_c ** 2) - 1.0) < 1e-12


def test_spin_halves_sum_exactly():
    plus = semi_photon_model(1.0, K, sign="plus")
    minus = semi_photon_model(1.0, K, sign="minus")
    assert plus.sigma_s == 0.5 * K.hbar
    assert plus.sigma_s + minus.sigma_s == K.hbar


def test_scalar_mass_integrand_matches_field_definition():
    # total_mass integrates a^2/(4 pi c^2); pin it to the vector route
    # (E^2 + H^2)/(8 pi c^2) at every Gauss node of the lobe it integrates
    model, ring, _ = _electron_setup()
    for kind in (KIND_SEMI_PLUS, KIND_SEMI_MINUS):
        cfg = twirled_field(kind, model.e_o, ring)
        h = 0.25 * ring.circumference / SPEC.panels
        for i in range(SPEC.panels):
            for node in _GL5_NODES:
                l = (i + 0.5) * h + 0.5 * h * node
                E, H = field_at(cfg, l)
                vector = sum(c * c for c in E + H) / (8.0 * math.pi) / (ring.c * ring.c)
                assert abs(mass_density(cfg, l) - vector) <= 1e-15 * vector, (kind, l)


def test_total_mass_integrates_fields_mass_density(monkeypatch):
    # one mass density: the quadrature calls fields.mass_density at each node
    import ringwave.quadrature

    calls = []

    def counted(cfg, l):
        calls.append(l)
        return mass_density(cfg, l)

    monkeypatch.setattr(ringwave.quadrature, "mass_density", counted)
    model, ring, _ = _electron_setup()
    cfg = twirled_field(KIND_SEMI_PLUS, model.e_o, ring)
    spec = QuadratureSpec(panels=7, rule=RULE_GAUSS5)
    total_mass(cfg, 1.0, spec)
    assert len(calls) == spec.panels * len(_GL5_NODES)

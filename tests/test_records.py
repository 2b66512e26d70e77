"""Every record class shares one frozen-record base, errors._Record.

One parametrised test checks the record API on each class: field order,
immutability, value equality and hashing, repr, asdict, replace and the
constructor, which takes no derived field.
"""

import importlib
import math

import pytest

import ringwave
from ringwave import (
    KIND_PHOTON,
    BoostReport,
    DomainError,
    ElectronScales,
    FieldConfiguration,
    FrenetFrame,
    IntegralReport,
    PhotonModel,
    PhysicalConstants,
    QuadratureSpec,
    RingGeometry,
    SemiPhotonModel,
    TorusShape,
    VacuumPolarization,
    WavePacket,
    boost_packet,
    codata_constants,
    electron_scales,
    pair_threshold_photon,
    ring_from_radius,
    semi_photon_model,
    twirled_field,
    vacuum_polarization,
)
from ringwave.errors import _Record

K = codata_constants()
RING = ring_from_radius(2.0, K.c)
PACKET = WavePacket(1.0, 2.0, 3.0, 4.0)

# class -> (an instance, every field in declaration order, a change of one
# constructor argument, a change that validation refuses or None)
RECORDS = {
    PhysicalConstants: (K, ("c", "hbar", "h", "e", "m_e", "alpha_exp"),
                        {"e": 1.0}, {"c": math.nan}),
    ElectronScales: (electron_scales(K), ("r_0", "lambda_bar_c"), {"r_0": 1.0}, None),
    RingGeometry: (RING, ("r_k", "c", "K", "omega_K", "circumference"),
                   {"r_k": 3.0}, {"r_k": math.inf}),
    # the vector record holds tuples here: the base compares any values
    FrenetFrame: (FrenetFrame((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0)),
                  ("position", "tangent", "normal"), {"normal": (0.0, 0.0, 1.0)}, None),
    TorusShape: (TorusShape(2.0, 1.0), ("r_s", "r_c"), {"r_c": 0.5}, {"r_c": 3.0}),
    FieldConfiguration: (twirled_field(KIND_PHOTON, 1.0, RING),
                         ("kind", "e_o", "geometry", "support"),
                         {"e_o": 2.0}, {"e_o": math.nan}),
    QuadratureSpec: (QuadratureSpec(), ("panels", "rule", "include_toroidal_jacobian"),
                     {"panels": 8}, {"panels": 0}),
    IntegralReport: (IntegralReport(1.5, 3.0, 1.0),
                     ("value", "closed_form", "abs_error", "discrepancy_factor",
                      "section_factor"),
                     {"closed_form": 0.0}, None),
    WavePacket: (PACKET, ("e_o", "omega", "energy", "volume"),
                 {"volume": 5.0}, {"omega": math.nan}),
    BoostReport: (boost_packet(PACKET, 0.5), ("primed", "invariants", "ratio_deviations"),
                  {"ratio_deviations": 0.25}, None),
    PhotonModel: (pair_threshold_photon(K),
                  ("energy", "momentum", "omega_p", "lambda_p", "r_p", "s_p", "volume",
                   "spin", "mass_equivalent", "n", "nu"), {"n": 2.0}, None),
    SemiPhotonModel: (semi_photon_model(1.0, K),
                      ("zeta", "e_o", "r_s", "omega_s", "q_s", "m_s", "alpha_s",
                       "sigma_s", "mu_s", "sign"), {"sign": "minus"}, None),
    VacuumPolarization: (vacuum_polarization(2.0 / math.pi, K),
                         ("eps_v", "alpha_bare", "alpha_exp", "q_bare", "q_exp",
                          "r_bare", "r_0"), {"r_0": 1.0}, None),
}
DERIVED = {
    RingGeometry: ("K", "omega_K", "circumference"),
    FieldConfiguration: ("support",),
    IntegralReport: ("abs_error", "discrepancy_factor"),
}


def test_every_record_class_is_checked():
    for module in ringwave._EXPORTS:
        importlib.import_module(f"ringwave.{module}")
    assert set(_Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_api(cls):
    record, fields, change, refused = RECORDS[cls]
    derived = DERIVED.get(cls, ())
    assert type(record) is cls
    assert cls.fields == fields
    assert cls.init_fields == tuple(n for n in fields if n not in derived)

    # immutable: no field or new attribute can be set or deleted
    before = record.asdict()
    for name in (fields[0], fields[-1], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record.asdict() == before

    # value equality, and a hash that agrees with it
    args = [getattr(record, n) for n in cls.init_fields]
    for copy in (record.replace(), cls(*args), cls(**dict(zip(cls.init_fields, args)))):
        assert copy == record and not copy != record
        assert copy is not record and hash(copy) == hash(record)
    changed = record.replace(**change)
    assert changed != record and not changed == record
    assert hash(changed) != hash(record)
    for name, value in change.items():
        assert getattr(changed, name) == value
    other = next(r for c, (r, *_) in RECORDS.items() if c is not cls)
    assert record != other and not record == other
    assert record != tuple(getattr(record, n) for n in fields)

    # repr and asdict list the fields in declaration order
    values = ", ".join(f"{n}={getattr(record, n)!r}" for n in fields)
    assert repr(record) == f"{cls.__name__}({values})"
    assert list(record.asdict()) == list(fields)

    # validation runs again on replace; derived fields are not arguments
    if refused is not None:
        with pytest.raises(DomainError):
            record.replace(**refused)
    for name in derived:
        with pytest.raises(TypeError):
            cls(*args, **{name: getattr(record, name)})
        with pytest.raises(TypeError):
            record.replace(**{name: getattr(record, name)})


def test_records_of_two_classes_differ_even_with_equal_values():
    a, b = FrenetFrame(1.0, 2.0, 3.0), BoostReport(1.0, 2.0, 3.0)
    assert a != b and not a == b
    assert a.asdict() != b.asdict() and a._values() == b._values()


def test_constructor_fields_and_asdict_of_nested_records():
    report = IntegralReport(1.5, 3.0, 1.0)
    # the key order of the consistency JSON
    assert list(report.asdict()) == [
        "value", "closed_form", "abs_error", "discrepancy_factor", "section_factor"]
    assert report.asdict()["discrepancy_factor"] == 0.5
    cfg = twirled_field(KIND_PHOTON, 1.0, RING)
    assert cfg.asdict()["geometry"] == RING.asdict()
    with pytest.raises(DomainError):
        K.replace(c=math.nan)


def test_defaults_are_class_attributes():
    # the consistency parser's --panels and --rule defaults read these
    assert (QuadratureSpec.panels, QuadratureSpec.rule) == (64, "gauss_legendre_5")
    assert QuadratureSpec(8).rule == QuadratureSpec.rule
    # a derived field has no class attribute: it exists on instances only
    assert not hasattr(RingGeometry, "K")
    assert RING.K == 0.5
    with pytest.raises(TypeError):
        TorusShape(2.0)  # r_c has no default

"""Every record class shares one frozen-record base, errors._Record.

One parametrised test checks the record API on each class: field order,
immutability, value equality and hashing, repr, asdict, replace and the
constructor, which takes no derived field.
"""

import importlib
import json
import math
import pathlib

import pytest

import ringwave
from ringwave import (
    KIND_PHOTON,
    DomainError,
    FieldConfiguration,
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
    frenet_at,
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
    PhysicalConstants: (K, ("c", "hbar", "e", "m_e", "alpha_exp"),
                        {"e": 1.0}, {"c": math.nan}),
    RingGeometry: (RING, ("r_k", "c", "K", "omega_K", "circumference"),
                   {"r_k": 3.0}, {"r_k": math.inf}),
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
    package = {cls for cls in _Record.__subclasses__() if cls.__module__.startswith("ringwave.")}
    assert package == set(RECORDS)


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
    class Pair(_Record):
        x: float
        y: float

    class Span(_Record):
        lo: float
        hi: float

    a, b = Pair(1.0, 2.0), Span(1.0, 2.0)
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


# tests/golden/deleted_records.json holds the fields of FrenetFrame,
# ElectronScales and BoostReport, written by the last version that returned
# those records; one test per deleted record checks that the tuple now
# returned in its place equals them field by field.  The boost_packet
# entries were re-recorded once boost_packet took energy and volume by the
# Doppler factor instead of through hbar and c, which cancel: at beta -0.5
# the primed volume and c3 moved by one rounding (2.2e-16 relative at most)
def _held(function):
    return json.loads(pathlib.Path(__file__).with_name("golden")
                      .joinpath("deleted_records.json")
                      .read_text(encoding="utf-8"))[function]


def test_frenet_at_tuple_holds_what_frenet_frame_held():
    for frame in _held("frenet_at"):
        ring = ring_from_radius(frame["r_k"], K.c)
        position, tangent, normal = frenet_at(ring, frame["l"])
        assert position == tuple(frame["position"]), frame
        assert tangent == tuple(frame["tangent"]), frame
        assert normal == tuple(frame["normal"]), frame


def test_electron_scales_tuple_holds_what_electron_scales_record_held():
    held = _held("electron_scales")
    r_0, lambda_bar_c = electron_scales(K)
    assert r_0 == held["r_0"]
    assert lambda_bar_c == held["lambda_bar_c"]


def test_boost_packet_tuple_holds_what_boost_report_held():
    photon = pair_threshold_photon(K)
    packet = WavePacket(semi_photon_model(1.0, K).e_o, photon.omega_p, photon.energy,
                        photon.volume)
    held = _held("boost_packet")
    for boost, (primed, invariants, drift) in zip(
            held, boost_packet(packet, [boost["beta"] for boost in held])):
        assert dict(zip(WavePacket.init_fields, primed)) == boost["primed"], boost
        assert invariants == tuple(boost["invariants"]), boost
        assert drift == boost["ratio_deviations"], boost

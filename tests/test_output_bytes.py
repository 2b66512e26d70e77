"""Byte pins of command output, and the invariants writer against the
frame-dict writer it replaced.

The pins are the sha256 of whole outputs, recorded before the writers
they pin were last rewritten.  The oracle keeps the old invariants
command in this file: a dict per frame, a list of drifts and one
cli._json_text walk.  Only the stdlib and hypothesis are needed, so
these checks run on every Python that CI tests, argparse's text aside.
"""

import argparse
import hashlib
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ringwave import codata_constants, lorentz
from ringwave.cli import _COMMANDS, INVARIANT_THRESHOLD, _g6, _json_text, main, parse_args
from ringwave.errors import RingwaveError

K = codata_constants()


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# sha256 of `fields` stdout per (kind, samples, amplitude), None for the
# default amplitude: the whole CSV, byte for byte, at the smallest grid,
# inside the 1900-2100 rows of a benchmark op and past 4096 rows
FIELDS_SHA256 = {
    ("photon", 2, None):
        "5de934e9024d885c99d7e08c3da088e495fdc411382e76e4d394ba3183aef9b7",
    ("photon", 2, "1e-3"):
        "a39121048dbdf70be4b9d27e73f96bd330dc44fb722495c9fd5de29b29289d73",
    ("photon", 2, "1e3"):
        "65403dafa66db747dda56c8c414a5660be0d867d753eb4f3ed89387d62d2253e",
    ("photon", 1999, None):
        "5def13f9541c2f850481764f8b6adf46fbe68d0302fdd78f3402f2bd5800e7b4",
    ("photon", 1999, "1e-3"):
        "3e7b289bbd7e5b7bc2e5dfc5ea5bc777edef445c0098af1dad965d77720631d3",
    ("photon", 1999, "1e3"):
        "6c72a552d71fead7fcdf2eed60ab52041e438a7c5f91c4b2148142b7203febd2",
    ("photon", 2000, None):
        "5964fb487a2c5e9dfd7c348bbab89e4df5364dd70bb7074659bcf25f029702e4",
    ("photon", 2000, "1e-3"):
        "fe8b5545bd86163b3aab6088ac31400d4b8fe8e5970f9b6b99b0e5ca29fe287f",
    ("photon", 2000, "1e3"):
        "88b6607607a1ff308bc9cf6db14a8597cf713ec1a83dc035891b41c67d6348be",
    ("photon", 4097, None):
        "c4f3c31bd04852ca8c9d9d75bd007a134d44429dc478f467f18123d1a1616ca8",
    ("photon", 4097, "1e-3"):
        "5c6e5a096fb2256d6b3511218114d35a4d3ba2f1d75612b0c39a55abb1fdf5c1",
    ("photon", 4097, "1e3"):
        "56820177fb8ebca61fb7ddd96715a034f2ee76789370c39ad5913ba6abb9a05b",
    ("semiplus", 2, None):
        "762b0806184dcb4808a23995825841d72f63588570017250154775d4ea84a313",
    ("semiplus", 2, "1e-3"):
        "523b2f8af768e69bdde8b7910ed4c180de0c97f75e746fdc5526eeb2c6cfcd9c",
    ("semiplus", 2, "1e3"):
        "b6cea3b7ff20b6119d1fe5578fce5a9a608adc458adc8d1768f15455cc519230",
    ("semiplus", 1999, None):
        "31ed1d6b4ee8b6cc036e7db3a91bb7204a539dd584f11b8d30b5216269194a4a",
    ("semiplus", 1999, "1e-3"):
        "ca32c28cb6d54f069503084bc875e7e79bb1a80a4d813a183b4880fdb19dbf4c",
    ("semiplus", 1999, "1e3"):
        "f0637a31cdd6e0cd3120a26417498951cd7cfe5c61d814fad3001d16928cb5e6",
    ("semiplus", 2000, None):
        "f063aafc736482c5c02c1a63912962694e944c422fdb32fdf336ec0941c3ea8d",
    ("semiplus", 2000, "1e-3"):
        "b16540325510ceca538f61ba4151f6800231afd91493bd4a4e1737c5b4928718",
    ("semiplus", 2000, "1e3"):
        "8f8cbf79fe60ff750b51b0000721acda1870f4b25d4dc726999e42e01e1bcc23",
    ("semiplus", 4097, None):
        "b98afa2a90457ddf3bf6c3812bdbaed42b843b998c93d4c285418ef5bffc1b66",
    ("semiplus", 4097, "1e-3"):
        "ba39ebc989a6e247776f143d0ed0c4c4957f544bd01aa35d00be5f95915e3014",
    ("semiplus", 4097, "1e3"):
        "f635f6090e97ec0a7e56b3d0f68f6dae581ffbc774e1c69433c22389cc23a879",
    ("semiminus", 2, None):
        "739301f154c1504dee44efbcb57d5d6c530d0807035770a74a8ec6fc5ec44acb",
    ("semiminus", 2, "1e-3"):
        "4cc906839d3e19495ca0ce8c058c300f2a7af818d20767e674fc94b00972116a",
    ("semiminus", 2, "1e3"):
        "d76b9bfd443fe3af4d812291abe5050d42d36a3ffa0d3c5266f8e4cfb5606e36",
    ("semiminus", 1999, None):
        "64c55510359f1ce3967505246792a0fde03dc54df8d548674136214857b1285d",
    ("semiminus", 1999, "1e-3"):
        "b652a5a7b495ad2fae5559febf10c9efc893725639a479919a4f7df183f97977",
    ("semiminus", 1999, "1e3"):
        "237fd3b667745e6b9d0e2ae2aafec6f875db060b7b7be13905d3c6ca2929638e",
    ("semiminus", 2000, None):
        "e6805724d12f1ebf799f070c890beb90c0c6dd5d997ad52e7c2a6fabd58b6c7c",
    ("semiminus", 2000, "1e-3"):
        "ca8f692981a923b2256709c81f80a748b40e882f56c5751b98eac43f34d08aa3",
    ("semiminus", 2000, "1e3"):
        "e1d9c12ccec4a808dd6794460f2ccf594417802befc1ed4e555434e0094b8c27",
    ("semiminus", 4097, None):
        "442cdddd081c6f09c4aa847e8326e46ee29f1bee13822818e52a3f0642fe0000",
    ("semiminus", 4097, "1e-3"):
        "117a5d3cfd25e1aeed5e472fcf5c3ca871c1ea825ec659a5c16fe6b3e63e7cc7",
    ("semiminus", 4097, "1e3"):
        "a1865154779111b9021b91b9c49953c6a6b15d76ec28b1d05e3dfd4c2fea5e41",
}


@pytest.mark.parametrize("kind,samples,amplitude", FIELDS_SHA256)
def test_fields_csv_bytes_are_pinned(capsys, kind, samples, amplitude):
    argv = ["fields", "--kind", kind, "--samples", str(samples)]
    if amplitude is not None:
        argv += ["--amplitude", amplitude]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == FIELDS_SHA256[kind, samples, amplitude]


# invariants over three seeded 500-beta grids in (-0.99, 0.99), each with
# both signed zeros, both signs of a tiny beta and both signs of one near c
EDGE_BETAS = (0.0, -0.0, 1e-300, -1e-300, 0.999999, -0.999999)
INVARIANTS_SHA256 = {
    (1, "json"): (0, "11e2e985508e6c7a2a5e04b863ce5a09270c2287d08a3430b61fbe12f44a1a55"),
    (1, "table"): (0, "25c966d775104c455b9fc11617c2893c0d51832c91e208d3ab70faccb2e7c408"),
    (2, "json"): (0, "79a5c574ff753e2369fe11fec52c7138b0d28b72ab25a90e0a327f2f2a33db4d"),
    (2, "table"): (0, "6d62e5749bd9326f216e2e219e16b423427f6c05706145dafab6c3f306a1337b"),
    (3, "json"): (0, "881bf4d611522654b87599e32ca21f40436a5807d6200e5cf3b8e1bec0c3ddfd"),
    (3, "table"): (0, "422b364304abcdd83d613f99c07381167b696c057eed0bd70e8933e497252840"),
}


def _seeded_beta_grid(seed: int) -> str:
    rng = random.Random(seed)
    betas = [rng.uniform(-0.99, 0.99) for _ in range(500 - len(EDGE_BETAS))]
    for beta in EDGE_BETAS:
        betas.insert(rng.randrange(len(betas) + 1), beta)
    return ",".join(map(repr, betas))


@pytest.mark.parametrize("seed,fmt", INVARIANTS_SHA256)
def test_invariants_bytes_are_pinned(capsys, seed, fmt):
    argv = ["invariants", "--beta-grid=" + _seeded_beta_grid(seed), "--format", fmt]
    code, out, _ = run_cli(capsys, argv)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == INVARIANTS_SHA256[seed, fmt]


def _frame_dict_invariants(args, k):
    """The invariants command as it was before each frame became one row."""
    from ringwave.lorentz import WavePacket, boost_packet
    from ringwave.model import pair_threshold_photon, semi_photon_model

    photon = pair_threshold_photon(k)
    amp = semi_photon_model(1.0, k).e_o
    packet = WavePacket(amp, photon.omega_p, photon.energy, photon.volume)
    frames = []
    deviations = []
    for beta, ((e_o, omega, energy, volume), (c1, c2, c3), drift) in zip(
            args.beta_grid, boost_packet(packet, args.beta_grid)):
        frames.append({
            "beta": beta,
            "omega": omega,
            "e_o": e_o,
            "energy": energy,
            "volume": volume,
            "c1": c1,
            "c2": c2,
            "c3": c3,
        })
        deviations.append(drift)
    # max() can drop a NaN; keep it, so that the gate below fails on it
    max_dev = math.nan if any(map(math.isnan, deviations)) else max(deviations)
    ok = max_dev <= INVARIANT_THRESHOLD

    if args.format == "json":
        return _json_text({
            "frames": frames,
            "max_deviation": None if math.isnan(max_dev) else max_dev,
            "threshold": INVARIANT_THRESHOLD,
            "pass": ok,
        }), 0 if ok else 1

    lines = ["  ".join(f"{name:>13}" for name in frames[0])]
    for frame in frames:
        lines.append("  ".join(f"{_g6(value):>13}" for value in frame.values()))
    lines.append(f"max deviation: {_g6(max_dev)} (threshold {INVARIANT_THRESHOLD:g})")
    lines.append("PASS" if ok else "FAIL")
    return "\n".join(lines) + "\n", 0 if ok else 1


def _outcome(handler, args):
    """handler's (text, exit code), or the type and text of its refusal."""
    try:
        return handler(args, K)
    except RingwaveError as exc:
        return type(exc), str(exc)


# signed zeros, tiny and subnormal betas, and both signs near c: +0.999999999
# fails the gate (ROADMAP item 4), so the FAIL path is compared too
ODD_BETAS = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324,
             0.999999, -0.999999, 0.999999999, -0.999999999]


@given(st.lists(st.one_of(st.sampled_from(ODD_BETAS),
                          st.floats(-0.999999999, 0.999999999)),
                min_size=1, max_size=60),
       st.sets(st.integers(0, 59), max_size=3))
@example([0.5, 0.5, -0.0, 0.0, -0.0, 0.5, 0.999999, 0.999999], set())
@example([0.5, -0.5, 0.5], {1})
@example([-0.999999999] * 3 + [5e-324], {0, 3})
def test_invariants_rows_are_the_frame_dict_writer(grid, nan_at):
    # a NaN drift at each index of nan_at: the gate must fail in both
    real = lorentz.boost_packet

    def nan_drifts(packet, betas):
        return [(primed, ratios, math.nan if i in nan_at else drift)
                for i, (primed, ratios, drift) in enumerate(real(packet, betas))]

    with mock.patch.object(lorentz, "boost_packet", nan_drifts):
        for fmt in ("json", "table"):
            args = argparse.Namespace(beta_grid=tuple(grid), format=fmt)
            assert (_outcome(_COMMANDS["invariants"][1], args)
                    == _outcome(_frame_dict_invariants, args))


def test_invariants_json_refuses_an_infinite_frame_value(capsys, monkeypatch):
    real = lorentz.boost_packet

    def infinite_omega(packet, betas):
        return [((e_o, math.inf, energy, volume), ratios, drift)
                for (e_o, _, energy, volume), ratios, drift in real(packet, betas)]

    monkeypatch.setattr(lorentz, "boost_packet", infinite_omega)
    code, out, err = run_cli(capsys, ["invariants", "--format", "json"])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Out of range float values are not JSON compliant" in err
    args = parse_args(["invariants", "--format", "json"])
    assert err == f"error: {_outcome(_frame_dict_invariants, args)[1]}\n"


def test_invariants_gate_fails_on_an_empty_grid():
    # the parser takes no empty grid, but the handler must not pass one
    for fmt in ("table", "json"):
        args = argparse.Namespace(beta_grid=(), format=fmt)
        assert _outcome(_COMMANDS["invariants"][1], args)[1] != 0

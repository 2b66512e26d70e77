import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

import ringwave
from ringwave import QuadratureSpec, codata_constants, pair_threshold_photon
from ringwave.cli import main, parse_args, run

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ringwave.__file__)))
K = codata_constants()
PHOTON = pair_threshold_photon(K)


# every option of each command at its default, as parse_args returns it
_OUTPUT = {"format": "table", "out": None}
DEFAULTS = {
    "constants": _OUTPUT,
    "photon": _OUTPUT,
    "semiphoton": {"zeta": 1.0, "thomas": False, **_OUTPUT},
    "invariants": {"beta_grid": (-0.99, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.99),
                   **_OUTPUT},
    "fields": {"kind": "photon", "samples": 256, "amplitude": None, "out": None},
    "consistency": {"zeta": 1.0, "panels": 64, "rule": "gauss_legendre_5",
                    "include_toroidal_jacobian": False, **_OUTPUT},
    "dispersion": _OUTPUT,
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_exit_2(capsys):
    for argv in (
        [],
        ["no-such-command"],
        ["constants", "--format", "yaml"],
        ["semiphoton", "--zeta", "1.5"],
        ["semiphoton", "--zeta", "abc"],
        ["semiphoton", "--zeta", "nan"],
        ["semiphoton", "--zeta", "0"],
        ["fields", "--samples", "1"],
        ["fields", "--samples", "2.5"],
        ["fields", "--amplitude", "-3"],
        ["fields", "--amplitude", "0"],
        ["fields", "--amplitude", "nan"],
        ["fields", "--amplitude", "inf"],
        ["invariants", "--beta-grid", "0.5,1.5"],
        ["invariants", "--beta-grid", "0.5,-1"],
        ["invariants", "--beta-grid", ",,"],
        ["invariants", "--beta-grid", "0.5,,0.3"],
        ["invariants", "--beta-grid", "0.5,"],
        ["invariants", "--beta-grid", ",0.5"],
        ["invariants", "--beta-grid", ""],
        ["consistency", "--panels", "0"],
        ["consistency", "--zeta", "0"],
        ["consistency", "--zeta", "1.5"],
        ["consistency", "--zeta", "nan"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


@pytest.mark.parametrize("option", ["--samples", "--panels"])
def test_a_count_past_every_float_is_a_usage_error(option, capsys):
    # int(text) parses it, but no float holds it
    command = "fields" if option == "--samples" else "consistency"
    with pytest.raises(SystemExit) as exc:
        main([command, option, "1" + "0" * 400])
    assert exc.value.code == 2
    assert "must be a finite number in [" in capsys.readouterr().err


def test_output_is_byte_deterministic(capsys):
    for argv in (["constants"], ["photon", "--format", "json"],
                 ["semiphoton"], ["fields", "--samples", "16"],
                 ["invariants"], ["consistency"], ["dispersion"]):
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
        assert first == second, argv
        assert first[0] == 0, argv


def test_constants_table_and_json(capsys):
    code, out, _ = run_cli(capsys, ["constants"])
    assert code == 0
    assert out.startswith("c ")
    assert "alpha_exp" in out and "lambda_bar_c" in out

    code, out, _ = run_cli(capsys, ["constants", "--format", "json"])
    data = json.loads(out)
    assert data["c"] == 2.99792458e10
    assert data["alpha_exp"] == 7.2973525693e-3
    assert abs(data["h"] / (2.0 * math.pi * data["hbar"]) - 1.0) < 1e-14


def test_photon_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, ["photon", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert abs(record["energy"] / record["omega_p"] / K.hbar - 1.0) < 1e-14
    assert abs(record["lambda_p"] / (2.0 * math.pi * record["r_p"]) - 1.0) < 1e-14
    assert record["spin"] == K.hbar


def test_semiphoton_json_chain(capsys):
    code, out, _ = run_cli(capsys, ["semiphoton", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    model = data["model"]
    assert abs(model["alpha_s"] / (model["q_s"] ** 2 / (K.hbar * K.c)) - 1.0) < 1e-12
    assert abs(model["alpha_s"] / (2.0 / math.pi) - 1.0) < 1e-12
    assert data["thomas"] is False
    renorm = data["renormalization"]
    assert abs(renorm["eps_v"] / 87.2398265428265 - 1.0) < 1e-12
    assert abs(renorm["q_bare"] / K.e - 9.34) < 0.01


def test_semiphoton_thomas_doubles_moment(capsys):
    _, plain_out, _ = run_cli(capsys, ["semiphoton", "--format", "json"])
    _, thomas_out, _ = run_cli(capsys, ["semiphoton", "--format", "json", "--thomas"])
    plain = json.loads(plain_out)
    doubled = json.loads(thomas_out)
    assert doubled["thomas"] is True
    assert doubled["model"]["mu_s"] == 2.0 * plain["model"]["mu_s"]


def test_semiphoton_thin_torus_skips_renormalization(capsys):
    # alpha_s = (2/pi) zeta^2 drops below alpha_exp for small zeta
    code, out, _ = run_cli(capsys, ["semiphoton", "--zeta", "0.05",
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out)["renormalization"] is None

    code, out, _ = run_cli(capsys, ["semiphoton", "--zeta", "0.05"])
    assert code == 0
    assert "skipped" in out


def test_invariants_pass(capsys):
    code, out, _ = run_cli(capsys, ["invariants"])
    assert code == 0
    assert out.rstrip().endswith("PASS")

    code, out, _ = run_cli(capsys, ["invariants", "--format", "json",
                                    "--beta-grid=-0.99,-0.5,0,0.5,0.99"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["max_deviation"] < 1e-9
    assert len(data["frames"]) == 5
    rest = next(f for f in data["frames"] if f["beta"] == 0)
    assert abs(rest["c2"] / K.hbar - 1.0) < 1e-14


def test_fields_csv_shape(capsys):
    code, out, _ = run_cli(capsys, ["fields", "--samples", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l,x,y,z,Ex,Ey,Ez,Hx,Hy,Hz,jn,jtau"
    assert len(lines) == 9
    assert "\r" not in out
    cells = [cell for line in lines[1:] for cell in line.split(",")]
    assert all(len(line.split(",")) == 12 for line in lines[1:])
    # every cell parses and negative zero never leaks out
    assert all(math.isfinite(float(cell)) for cell in cells)
    assert "-0" not in cells


def test_fields_first_row_values(capsys):
    _, out, _ = run_cli(capsys, ["fields", "--samples", "8"])
    first = out.splitlines()[1].split(",")
    amp = 1.2034153860050596e13
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) / PHOTON.r_p - 1.0) < 1e-15  # x = r_p at l = 0
    assert float(first[2]) == 0.0 and float(first[3]) == 0.0
    assert abs(float(first[4]) / amp - 1.0) < 1e-12        # Ex = E_o
    assert abs(float(first[9]) / -amp - 1.0) < 1e-12       # Hz = -E_o
    assert float(first[10]) == 0.0                         # jn = 0 at the crest
    jtau = float(first[11])
    assert abs(jtau / (PHOTON.omega_p * amp / (4.0 * math.pi)) - 1.0) < 1e-12


def test_fields_respects_kind_and_amplitude(capsys):
    _, plus, _ = run_cli(capsys, ["fields", "--kind", "semiplus",
                                  "--samples", "16", "--amplitude", "2.0"])
    _, minus, _ = run_cli(capsys, ["fields", "--kind", "semiminus",
                                   "--samples", "16", "--amplitude", "2.0"])
    row_p = plus.splitlines()[1].split(",")
    row_m = minus.splitlines()[1].split(",")
    assert float(row_p[4]) == 2.0
    assert float(row_m[4]) == -2.0


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


def test_out_file_matches_stdout(tmp_path, capsys):
    _, stdout_text, _ = run_cli(capsys, ["fields", "--samples", "16"])
    target = tmp_path / "fields.csv"
    code, out, _ = run_cli(capsys, ["fields", "--samples", "16",
                                    "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == stdout_text
    assert b"\r" not in target.read_bytes()


def test_out_file_is_utf8_whatever_the_locale(tmp_path):
    # -X warn_default_encoding with -W error makes an open() that falls back
    # on the locale's encoding an EncodingWarning traceback
    cmd = [sys.executable, "-X", "warn_default_encoding", "-W", "error",
           "-m", "ringwave.cli", "constants"]
    env = dict(os.environ, PYTHONPATH=SRC)
    target = tmp_path / "constants.txt"
    to_stdout = subprocess.run(cmd, env=env, capture_output=True, timeout=60)
    to_file = subprocess.run([*cmd, "--out", str(target)], env=env,
                             capture_output=True, timeout=60)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert to_stdout.returncode == 0
    assert target.read_bytes() == to_stdout.stdout


def test_unwritable_out_exits_3(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "fields.csv"
    code, out, err = run_cli(capsys, ["fields", "--out", str(target)])
    assert code == 3
    assert out == ""
    assert "cannot write" in err


def test_consistency_reports_half(capsys):
    code, out, _ = run_cli(capsys, ["consistency"])
    assert code == 0
    assert "photon_charge" in out and "semi_photon_charge" in out
    assert "n/a" in out
    assert "0.5" in out

    code, out, _ = run_cli(capsys, ["consistency", "--format", "json"])
    data = json.loads(out)
    assert data["photon_charge"]["discrepancy_factor"] is None
    assert abs(data["semi_photon_charge"]["discrepancy_factor"] - 0.5) < 1e-9
    assert abs(data["semi_photon_mass"]["discrepancy_factor"] - 0.5) < 1e-9


def test_consistency_rule_and_jacobian_flags(capsys):
    code, out, _ = run_cli(capsys, ["consistency", "--rule", "midpoint",
                                    "--panels", "512", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert abs(data["semi_photon_charge"]["discrepancy_factor"] - 0.5) < 1e-4

    code, out, _ = run_cli(capsys, ["consistency", "--toroidal-jacobian",
                                    "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert abs(data["semi_photon_mass"]["section_factor"] - 1.0) < 1e-9


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("jacobian", [[], ["--toroidal-jacobian"]], ids=["flat", "jacobian"])
def test_consistency_computes_one_section_measure(capsys, monkeypatch, jacobian, fmt):
    # the three reports share the torus, so one command measures its section once
    import ringwave.quadrature

    calls = []
    measure = ringwave.quadrature.section_measure

    def counted(shape, spec):
        calls.append(shape)
        return measure(shape, spec)

    monkeypatch.setattr(ringwave.quadrature, "section_measure", counted)
    code, _, err = run_cli(capsys, ["consistency", "--panels", "3", "--format", fmt, *jacobian])
    assert (code, err, len(calls)) == (0, "", 1)


def test_consistency_takes_zeta(capsys):
    args = parse_args(["consistency"])
    args.zeta = 0.5
    assert parse_args(["consistency", "--zeta", "0.5"]) == args
    assert run(args) == 0
    expected = capsys.readouterr().out
    assert run_cli(capsys, ["consistency", "--zeta", "0.5"]) == (0, expected, "")
    assert expected != run_cli(capsys, ["consistency"])[1]
    # E_o overflows, as in semiphoton
    code, out, err = run_cli(capsys, ["consistency", "--zeta", "1e-150"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_dispersion_output(capsys):
    code, out, _ = run_cli(capsys, ["dispersion"])
    assert code == 0
    assert "lambda_min_planck_form" in out

    code, out, _ = run_cli(capsys, ["dispersion", "--format", "json"])
    data = json.loads(out)
    assert abs(data["omega_at_k0_m_e"] / 7.763440706293299e20 - 1.0) < 1e-12
    assert data["omega_massless_at_k_ref"] == data["c_times_k_ref"]
    assert abs(data["lambda_min_planck_form"] / data["lambda_p"] - 1.0) < 1e-12


def test_parse_args_defaults():
    args = parse_args(["semiphoton"])
    assert args.command == "semiphoton"
    assert args.zeta == 1.0
    assert args.format == "table"
    assert args.thomas is False
    assert parse_args(["consistency", "--panels", "128"]).panels == 128
    # every option left out takes the parser's default
    for command in DEFAULTS:
        assert vars(parse_args([command])) == {"command": command, **DEFAULTS[command]}
    # the consistency defaults are the quadrature module's own
    parsed = vars(parse_args(["consistency"]))
    assert QuadratureSpec(**{n: parsed[n] for n in QuadratureSpec.init_fields}) == QuadratureSpec()


def test_reused_parser_keeps_no_state(capsys):
    # one parser per subcommand serves every call in a process; no value outlives its call
    assert parse_args(["fields", "--samples", "5"]).samples == 5
    assert parse_args(["fields"]).samples == 256
    for bad in (["fields", "--samples", "7", "--kind", "electron"],
                ["fields", "--samples", "7", "--no-such-option"],
                ["consistency", "--panels", "9", "--rule", "simpson"]):
        with pytest.raises(SystemExit):
            parse_args(bad)
    capsys.readouterr()
    for command in ("fields", "consistency", "semiphoton"):
        assert vars(parse_args([command])) == {"command": command, **DEFAULTS[command]}


@pytest.mark.parametrize("argv", [
    ["fields", "--kind", "electron"],
    ["no-such-command"],
    ["consistency", "--panels", "0"],
    ["semiphoton", "--help"],
], ids=["bad-kind", "unknown-command", "panels-out-of-range", "help"])
def test_reused_parser_errors_match_a_fresh_process(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    parse_args(["fields", "--samples", "5"])  # the parser exists and has parsed
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    fresh = subprocess.run(
        [sys.executable, "-m", "ringwave.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC, COLUMNS="80"),
        capture_output=True, text=True, timeout=60,
    )
    assert (exc.value.code, captured.out, captured.err) == (
        fresh.returncode, fresh.stdout, fresh.stderr)


@pytest.mark.parametrize("argv", [
    ["-5", "photon"], ["-", "photon"], ["--", "photon"], ["--bogus", "photon"],
    ["photon", "constants"],
])
def test_only_the_first_argument_that_is_not_an_option_picks_the_parser(capsys, argv):
    # a parser is built for that command alone; any other order is a usage error
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2
    assert "usage: ringwave" in capsys.readouterr().err


def test_range_edges_are_accepted():
    assert parse_args(["semiphoton", "--zeta", "1"]).zeta == 1.0
    assert parse_args(["fields", "--samples", "2"]).samples == 2
    assert parse_args(["consistency", "--panels", "1"]).panels == 1
    assert parse_args(["fields", "--amplitude", "1e-300"]).amplitude == 1e-300
    assert parse_args(["invariants", "--beta-grid=-0.999,0"]).beta_grid == (-0.999, 0.0)


def test_semiphoton_amplitude_overflow_exits_1(capsys):
    # E_o overflows (1e-150) or the section area underflows (1e-200)
    for zeta in ("1e-150", "1e-200"):
        for fmt in ("table", "json"):
            code, out, err = run_cli(capsys, ["semiphoton", "--zeta", zeta,
                                              "--format", fmt])
            assert code == 1, (zeta, fmt)
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err


def test_non_finite_beta_grid_exits_2(capsys):
    for grid in ("nan,0.5", "0.5,inf", "-inf"):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", f"--beta-grid={grid}"])
        assert exc.value.code == 2, grid
        assert "finite" in capsys.readouterr().err


def test_invariants_gate_fails_on_nan_deviation(capsys, monkeypatch):
    import ringwave.lorentz as lorentz

    real = lorentz.boost_packet

    def nan_at_first_beta(packet, betas):
        return [(primed, invariants, math.nan if beta == -0.5 else drift)
                for beta, (primed, invariants, drift) in zip(betas, real(packet, betas))]

    monkeypatch.setattr(lorentz, "boost_packet", nan_at_first_beta)
    grid = "--beta-grid=-0.5,0.5"
    code, out, _ = run_cli(capsys, ["invariants", grid])
    assert code == 1
    assert "max deviation: nan" in out
    assert out.rstrip().endswith("FAIL")
    code, out, _ = run_cli(capsys, ["invariants", grid, "--format", "json"])
    assert code == 1
    assert '"pass": false' in out
    assert json.loads(out)["max_deviation"] is None  # valid JSON, no bare NaN


@pytest.mark.parametrize("beta", [
    pytest.param("0.999999999", marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4")),
    "-0.999999999",
])
def test_invariants_gate_passes_within_1e_9_of_light_speed(capsys, beta):
    # at beta -> 1, E' = gamma (E - beta E) cancels, and c1 drifts by
    # ~eps/(1 - beta): 6.4e-8 here; beta -> -1 adds, and drifts 2.5e-10
    code, out, _ = run_cli(capsys, ["invariants", f"--beta-grid={beta}", "--format", "json"])
    assert code == 0
    assert json.loads(out)["max_deviation"] <= 1e-9


def test_fields_amplitude_overflow_exits_1(capsys):
    # finite amplitudes whose E_o omega overflows: jn would print nan, jtau inf
    for amp in ("1.2e288", "1e300"):
        code, out, err = run_cli(capsys, ["fields", "--amplitude", amp, "--samples", "2"])
        assert code == 1, amp
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_fields_csv_at_an_amplitude_whose_energy_density_overflows(capsys):
    # the CSV needs no energy density, so E_o = 1e200 still writes every row
    code, out, err = run_cli(capsys, ["fields", "--amplitude", "1e200", "--samples", "4"])
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 4
    assert float(rows[0].split(",")[4]) == 1e200  # Ex = E_o at the crest
    assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


def test_json_refuses_non_finite_values(capsys, monkeypatch):
    import ringwave.model as model

    real = model.pair_threshold_photon
    monkeypatch.setattr(model, "pair_threshold_photon",
                        lambda k: real(k).replace(energy=math.nan))
    code, out, err = run_cli(capsys, ["photon", "--format", "json"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err

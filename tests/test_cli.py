import json
import math
import os
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

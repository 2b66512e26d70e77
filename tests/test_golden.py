"""Replay recorded CLI invocations: stdout, stderr and exit code, byte for byte.

Each case is replayed in process, and all of them once more in one
`python -S` interpreter, which has no site-packages and so no numpy.
Each case's stdout is stored in tests/golden/<name>.txt and its stderr,
where there is any, in tests/golden/<name>.stderr.txt.  The cases cover
every command's output, `--help` and usage errors; argparse wraps help
text to the terminal width, so every replay runs with COLUMNS=80.  To
record them again after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ringwave
from ringwave.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(ringwave.__file__)))

# (name, argv, exit code)
CASES = [
    *((f"{cmd}.{fmt}", [cmd, "--format", fmt], 0)
      for cmd in ("constants", "photon", "semiphoton", "invariants",
                  "consistency", "dispersion")
      for fmt in ("table", "json")),
    ("fields.default", ["fields"], 0),
    ("semiphoton.zeta0.05.thomas", ["semiphoton", "--zeta", "0.05", "--thomas"], 0),
    ("consistency.midpoint300",
     ["consistency", "--rule", "midpoint", "--panels", "300"], 0),
    ("consistency.jacobian16",
     ["consistency", "--toroidal-jacobian", "--panels", "16"], 0),
    ("invariants.grid5", ["invariants", "--beta-grid=-0.99,-0.5,0,0.5,0.99"], 0),
    # JSON beyond the defaults: a null record, -0.0, 1e-300 and 17-digit
    # floats, a section factor of 0.5 beside a null factor
    ("semiphoton.zeta0.05.json", ["semiphoton", "--zeta", "0.05", "--format", "json"], 0),
    ("invariants.edge.json",
     ["invariants", "--beta-grid=-0,1e-300,0.5,-0.999999", "--format", "json"], 0),
    ("consistency.jacobian1.json",
     ["consistency", "--toroidal-jacobian", "--rule", "midpoint", "--panels", "1",
      "--format", "json"], 0),
    # 17-digit semi_photon_mass away from the defaults: a thin torus, a
    # midpoint rule, odd panel counts, a Jacobian on three panels
    ("consistency.zeta0.5.midpoint7.json",
     ["consistency", "--zeta", "0.5", "--rule", "midpoint", "--panels", "7",
      "--format", "json"], 0),
    ("consistency.zeta0.001.jacobian3.json",
     ["consistency", "--zeta", "0.001", "--toroidal-jacobian", "--panels", "3",
      "--format", "json"], 0),
    # a midpoint Jacobian past one panel off the horn torus
    ("consistency.zeta0.5.jacobian.midpoint5.json",
     ["consistency", "--zeta", "0.5", "--toroidal-jacobian", "--rule", "midpoint",
      "--panels", "5", "--format", "json"], 0),
    *((f"fields.{kind}33", ["fields", "--samples", "33", "--kind", kind], 0)
      for kind in ("photon", "semiplus", "semiminus")),
    ("fields.amp12.5", ["fields", "--samples", "33", "--amplitude", "12.5"], 0),
    ("help.top", ["--help"], 0),
    *((f"help.{cmd}", [cmd, "--help"], 0)
      for cmd in ("constants", "photon", "semiphoton", "invariants", "fields",
                  "consistency", "dispersion")),
    ("usage.no-command", [], 2),
    ("usage.unknown-command", ["no-such-command"], 2),
    ("usage.constants.format", ["constants", "--format", "yaml"], 2),
    ("usage.photon.unknown-option", ["photon", "--zeta", "0.5"], 2),
    ("usage.semiphoton.zeta", ["semiphoton", "--zeta", "1.5"], 2),
    ("usage.invariants.beta", ["invariants", "--beta-grid", "0.5,1.5"], 2),
    ("usage.fields.kind", ["fields", "--kind", "electron"], 2),
    ("usage.fields.samples", ["fields", "--samples", "1"], 2),
    ("usage.consistency.rule", ["consistency", "--rule", "simpson"], 2),
    ("usage.consistency.panels", ["consistency", "--panels", "0"], 2),
    ("usage.semiphoton.zeta-text", ["semiphoton", "--zeta", "abc"], 2),
    ("usage.fields.samples-float", ["fields", "--samples", "2.5"], 2),
    ("usage.fields.amplitude-nan", ["fields", "--amplitude", "nan"], 2),
    ("usage.dispersion.unknown-option", ["dispersion", "--panels", "4"], 2),
]
COLUMNS = "80"


# Runs in a `python -S` interpreter: replays each argv of a JSON list and
# prints the exit codes, stdouts and stderrs as a JSON list of triples.
NO_SITE_REPLAY = """
import contextlib, io, json, sys
import ringwave.cli
replies = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ringwave.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    replies.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(replies))
"""


def _replay(argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def _golden(name, code):
    stderr = GOLDEN / f"{name}.stderr.txt"
    return (code, (GOLDEN / f"{name}.txt").read_bytes(),
            stderr.read_bytes() if stderr.exists() else b"")


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, code, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert _replay(argv) == _golden(name, code)


def test_every_case_matches_golden_without_site_packages():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", NO_SITE_REPLAY, json.dumps([c[1] for c in CASES])],
        env=dict(os.environ, PYTHONPATH=SRC, COLUMNS=COLUMNS), capture_output=True,
        text=True, timeout=120, check=True,
    )
    replies = json.loads(proc.stdout)
    assert len(replies) == len(CASES)
    for (name, _, code), (got, out, err) in zip(CASES, replies):
        assert (got, out.encode(), err.encode()) == _golden(name, code), name


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        got, out, err = _replay(argv)
        assert got == code, (argv, got)
        (GOLDEN / f"{name}.txt").write_bytes(out)
        stderr = GOLDEN / f"{name}.stderr.txt"
        if err:
            stderr.write_bytes(err)
        else:
            stderr.unlink(missing_ok=True)

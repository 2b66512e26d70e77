"""Replay recorded CLI invocations: stdout and exit code, byte for byte.

Each case is replayed in process, and all of them once more in one
`python -S` interpreter, which has no site-packages and so no numpy.
Each case's stdout is stored in tests/golden/<name>.txt.  To record them
again after an intended output change:

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
    *((f"fields.{kind}33", ["fields", "--samples", "33", "--kind", kind], 0)
      for kind in ("photon", "semiplus", "semiminus")),
    ("fields.amp12.5", ["fields", "--samples", "33", "--amplitude", "12.5"], 0),
]


# Runs in a `python -S` interpreter: replays each argv of a JSON list and
# prints the exit codes and stdouts as a JSON list of pairs.
NO_SITE_REPLAY = """
import contextlib, io, json, sys
import ringwave.cli
replies = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ringwave.cli.main(argv)
    replies.append([code, buf.getvalue()])
print(json.dumps(replies))
"""


def _replay(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode()


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, code):
    assert _replay(argv) == (code, (GOLDEN / f"{name}.txt").read_bytes())


def test_every_case_matches_golden_without_site_packages():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", NO_SITE_REPLAY, json.dumps([c[1] for c in CASES])],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120, check=True,
    )
    replies = json.loads(proc.stdout)
    assert len(replies) == len(CASES)
    for (name, _, code), (got, out) in zip(CASES, replies):
        assert (got, out.encode()) == (code, (GOLDEN / f"{name}.txt").read_bytes()), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        got, out = _replay(argv)
        assert got == code, (argv, got)
        (GOLDEN / f"{name}.txt").write_bytes(out)

"""numpy is imported by the vector layer only, never by a subcommand."""

import json
import os
import subprocess
import sys

import ringwave

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ringwave.__file__)))

SCALAR_COMMANDS = (
    ["constants"],
    ["photon", "--format", "json"],
    ["semiphoton", "--thomas"],
    ["dispersion"],
    ["consistency", "--panels", "8"],
    ["consistency", "--panels", "8", "--toroidal-jacobian", "--format", "json"],
    ["invariants"],
    ["fields"],
    ["fields", "--kind", "semiminus", "--samples", "4"],
)

# Runs in a fresh interpreter: reports, after `import ringwave.cli` and
# after each command, whether numpy had been imported by then.
PROBE = """
import contextlib, io, json, sys
import ringwave.cli
loaded = {"import ringwave.cli": "numpy" in sys.modules}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ringwave.cli.main(argv)
    loaded[" ".join(argv)] = [code, "numpy" in sys.modules]
print(json.dumps(loaded))
"""


def _probe(commands):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_scalar_commands_never_import_numpy():
    loaded = _probe(list(SCALAR_COMMANDS))
    assert loaded.pop("import ringwave.cli") is False
    for command, (code, numpy_loaded) in loaded.items():
        assert code == 0, command
        assert numpy_loaded is False, command

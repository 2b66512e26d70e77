"""Each subcommand imports only the modules it runs; numpy, dataclasses,
inspect and json never.  The vector API returns float 3-tuples without numpy.

The probes run in fresh interpreters, because sys.modules only grows.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

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
    ["invariants", "--format", "json"],
    ["fields"],
    ["fields", "--kind", "semiminus", "--samples", "4"],
)

# Runs in a fresh interpreter: reports, after `import ringwave.cli` and
# after each command, whether the module named by the second argument had
# been imported by then.
PROBE = """
import contextlib, io, json, sys
import ringwave.cli
module = sys.argv[2]
loaded = {"import ringwave.cli": module in sys.modules}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ringwave.cli.main(argv)
    loaded[" ".join(argv)] = [code, module in sys.modules]
print(json.dumps(loaded))
"""

# Runs one command in a fresh interpreter, then prints the exit code, the
# ringwave submodules loaded and whether json was, before importing json.
MODULES_PROBE = """
import contextlib, io, sys
import ringwave.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ringwave.cli.main(sys.argv[1:])
print(code, "json" in sys.modules,
      *sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("ringwave.")))
"""

# Runs in a `python -S` interpreter, where numpy cannot be imported: calls
# the vector API and prints, per function, whether every vector it returned
# is a tuple of floats (three per 3-vector, two for the current split), then
# whether numpy can be found or was loaded.
VECTOR_PROBE = """
import importlib.util, json, sys
from ringwave import (KIND_SEMI_PLUS, boost_plane_fields, displacement_current,
                      field_at, frenet_at, normal_rate, ring_from_radius,
                      sample_grid, twirled_field)
ring = ring_from_radius(1.0, 3.0)
cfg = twirled_field(KIND_SEMI_PLUS, 1.0, ring)
frame, (e, h) = frenet_at(ring, 0.3), field_at(cfg, 0.3)
floats = lambda v, n: type(v) is tuple and len(v) == n and all(type(c) is float for c in v)
returned = {
    "frenet_at": type(frame) is tuple and len(frame) == 3 and all(floats(v, 3) for v in frame),
    "normal_rate": floats(normal_rate(ring, 3.0, 0.3), 3),
    "field_at": floats(e, 3) and floats(h, 3),
    "sample_grid": all(type(l) is float and floats(el, 3) and floats(hl, 3)
                       for l, el, hl in sample_grid(cfg, 3)),
    "displacement_current": floats(displacement_current(cfg, 0.3), 2),
    "boost_plane_fields": all(floats(v, 3) for v in boost_plane_fields(e, h, (0.5, 0.0, 0.0))),
}
print(json.dumps(returned))
print(importlib.util.find_spec("numpy") is not None, "numpy" in sys.modules)
"""

# Runs one invocation that argparse ends (help or a usage error), then
# prints the exit code and the ringwave submodules loaded.
EXIT_PROBE = """
import contextlib, io, sys
import ringwave.cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    try:
        ringwave.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("ringwave.")))
"""

BASE = ("cli", "constants", "errors")
MODULES_PER_COMMAND = {
    "constants": BASE,
    "photon": BASE + ("model",),
    "dispersion": BASE + ("model",),
    "semiphoton": BASE + ("model", "renorm"),
    "invariants": BASE + ("lorentz", "model"),
    "fields": BASE + ("fields", "geometry", "model"),
    "consistency": BASE + ("fields", "geometry", "model", "quadrature"),
}


def _run(code, *args, flags=()):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def _probe(commands, module="numpy", flags=()):
    return json.loads(_run(PROBE, json.dumps(commands), module, flags=flags))


def test_scalar_commands_never_import_numpy():
    loaded = _probe(list(SCALAR_COMMANDS))
    assert loaded.pop("import ringwave.cli") is False
    for command, (code, numpy_loaded) in loaded.items():
        assert code == 0, command
        assert numpy_loaded is False, command


def test_vector_api_returns_float_tuples_without_numpy():
    returned, numpy_state = _run(VECTOR_PROBE, flags=["-S"]).splitlines()
    assert json.loads(returned) == dict.fromkeys(
        ["frenet_at", "normal_rate", "field_at", "sample_grid",
         "displacement_current", "boost_plane_fields"], True)
    assert numpy_state == "False False"  # not importable, and not imported


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_no_command_imports_dataclasses_or_inspect(module):
    # the records derive from errors._Record, which needs neither; -S, as
    # some Pythons' site (3.13.13's, for one) imports inspect before ringwave runs
    loaded = _probe(list(SCALAR_COMMANDS), module, flags=["-S"])
    assert loaded.pop("import ringwave.cli") is False
    for command, (code, module_loaded) in loaded.items():
        assert code == 0, command
        assert module_loaded is False, command


@pytest.mark.parametrize("command", sorted(MODULES_PER_COMMAND))
def test_each_command_loads_only_its_modules(command):
    # the table format and `fields` (CSV) never need json
    code, json_loaded, *modules = _run(MODULES_PROBE, command).split()
    assert code == "0"
    assert tuple(modules) == tuple(sorted(MODULES_PER_COMMAND[command]))
    assert json_loaded == "False"


@pytest.mark.parametrize("argv", [["--help"], [], ["no-such-command"]],
                         ids=["help", "no-command", "unknown-command"])
def test_top_level_help_and_usage_errors_build_no_subcommand_parser(argv):
    # the fields and consistency parsers import their modules, but only
    # the chosen subcommand's parser is built
    code, *modules = _run(EXIT_PROBE, *argv).split()
    assert code == ("0" if argv == ["--help"] else "2")
    assert tuple(modules) == BASE


@pytest.mark.parametrize("command", sorted(set(MODULES_PER_COMMAND) - {"fields"}))
def test_json_output_never_imports_json(command):
    # cli._json_text writes JSON itself; with the table and CSV formats
    # checked above, no command imports json in either format
    code, json_loaded, *modules = _run(MODULES_PROBE, command, "--format", "json").split()
    assert (code, json_loaded) == ("0", "False")
    assert tuple(modules) == tuple(sorted(MODULES_PER_COMMAND[command]))


def test_import_ringwave_loads_no_submodule():
    out = _run("import sys, ringwave; "
               "print([m for m in sys.modules if m.startswith('ringwave.')])")
    assert out.strip() == "[]"


def test_every_public_name_comes_from_its_home_module():
    for home, names in ringwave._EXPORTS.items():
        module = importlib.import_module(f"ringwave.{home}")
        for name in names:
            namespace = {}
            exec(f"from ringwave import {name}", namespace)
            assert namespace[name] is getattr(module, name), name
            # the table names where the object is defined, not a re-export
            defined_in = getattr(namespace[name], "__module__", module.__name__)
            assert defined_in == module.__name__, name
    assert sorted(ringwave.__all__) == sorted(
        [n for names in ringwave._EXPORTS.values() for n in names] + ["__version__"])
    assert dir(ringwave) == sorted(ringwave.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ringwave import *", namespace)
    assert set(ringwave.__all__) <= set(namespace)
    assert namespace["__version__"] == ringwave.__version__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ringwave.no_such_name
    assert not hasattr(ringwave, "no_such_name")


def test_cli_rule_choices_are_the_quadrature_rules():
    # the consistency parser offers the quadrature module's own rule names
    from ringwave import RULE_GAUSS5, RULE_MIDPOINT
    from ringwave.cli import parse_args

    for rule in (RULE_GAUSS5, RULE_MIDPOINT):
        assert parse_args(["consistency", "--rule", rule]).rule == rule

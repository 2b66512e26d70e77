"""Every function the benchmark's tracer wraps exists in ringwave.

bench/tracer.py rebinds each name of its TRACED table in the module it
names.  A cut that deletes or renames one of them breaks the traced
benchmark run, so it should fail here first.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_is_a_ringwave_callable():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, names in tracer.TRACED.items():
        home = importlib.import_module(f"ringwave.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"ringwave.{module}.{name}"

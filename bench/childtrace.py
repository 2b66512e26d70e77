"""Traced stand-in for `python -m ringwave.cli ARGV...` (cli_cold, trace 1).

Usage: python bench/childtrace.py SPANS_JSON ARGV...

Runs the same `ringwave.cli.main(argv)` as the module entry point, with
the import of ringwave.cli timed and the public functions wrapped, and
writes its spans to SPANS_JSON after main returns.  Stdout and the exit
code are the CLI's own.
"""

from time import perf_counter_ns

T0_NS = perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

import tracer as tr  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tr.Tracer()
    t_import = perf_counter_ns()
    import ringwave.cli

    tracer.add(tr.STARTUP_IMPORT, t_import, perf_counter_ns(), -1)
    tracer.install()
    tracer.op = 0
    try:
        code = ringwave.cli.main(argv)
    except SystemExit as exc:  # argparse usage error
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    main_end = perf_counter_ns()
    data = tracer.to_dict()
    data.update(t0_ns=T0_NS, main_end_ns=main_end)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

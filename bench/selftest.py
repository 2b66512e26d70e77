"""Show that the output checks catch wrong output.

Usage, from the root of a checkout:  python3 bench/selftest.py

Every real output below must pass its check; every doctored copy (a
factor of 0.51, a dropped CSV row, a NaN, |E| != |H|, a failed gate, a
perturbed alpha_s, a non-zero exit, a replay that differs) must fail.
Exits 1 if any case comes out the other way.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

import checks
import worker

ROOT = os.getcwd()


def real_output(argv: list[str]) -> str:
    import ringwave.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert ringwave.cli.main(argv) == 0, argv
    return buf.getvalue()


def _json_edit(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data, indent=2) + "\n"


def _drop_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:5] + lines[6:])


def _csv_cell(text: str, row: int, col: int, value: str) -> str:
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def _scale_hz(text: str, row: int) -> str:
    cells = text.split("\n")[row].split(",")
    return _csv_cell(text, row, 9, repr(float(cells[9]) * 1.0001))


def cases():
    """(label, argv, text, code, want_pass)"""
    fields = ["fields", "--kind", "semiplus", "--samples", "64"]
    cons_json = ["consistency", "--format", "json"]
    cons_mid = ["consistency", "--rule", "midpoint", "--panels", "480", "--format", "json"]
    inv_json = ["invariants", "--beta-grid=-0.9,0.25,0.9", "--format", "json"]
    semi = ["semiphoton", "--zeta", "0.731", "--format", "json"]
    real = {
        "fields": (fields, real_output(fields)),
        "consistency json": (cons_json, real_output(cons_json)),
        "consistency midpoint": (cons_mid, real_output(cons_mid)),
        "consistency table": (["consistency"], real_output(["consistency"])),
        "invariants json": (inv_json, real_output(inv_json)),
        "invariants table": (["invariants"], real_output(["invariants"])),
        "semiphoton json": (semi, real_output(semi)),
        "semiphoton table": (semi[:3], real_output(semi[:3])),
    }
    for sub in ("constants", "photon", "dispersion"):
        for fmt in ("table", "json"):
            argv = [sub, "--format", fmt]
            real[f"{sub} {fmt}"] = (argv, real_output(argv))
    for label, (argv, text) in real.items():
        yield f"real {label}", argv, text, 0, True

    def factor(name, value):
        return lambda d: d[name].__setitem__("discrepancy_factor", value)

    argv, text = real["consistency json"]
    yield "charge factor 0.51", argv, _json_edit(text, factor("semi_photon_charge", 0.51)), 0, False
    yield "mass factor 0.5 + 1e-9", argv, _json_edit(
        text, factor("semi_photon_mass", 0.5 + 1e-9)), 0, False
    yield "photon not neutral", argv, _json_edit(
        text, lambda d: d["photon_charge"].__setitem__(
            "value", d["semi_photon_charge"]["value"] * 1e-5)), 0, False
    argv, text = real["consistency midpoint"]
    yield "midpoint factor 0.5 + 1e-5", argv, _json_edit(
        text, factor("semi_photon_charge", 0.5 + 1e-5)), 0, False
    argv, text = real["consistency table"]
    lines = text.splitlines(keepends=True)
    doctored = "".join(line.replace("      0.5\n", "     0.51\n")
                       if line.startswith("semi_photon_mass") else line for line in lines)
    yield "table mass factor 0.51", argv, doctored, 0, False

    argv, text = real["fields"]
    yield "CSV row dropped", argv, _drop_row(text), 0, False
    yield "CSV value NaN", argv, _csv_cell(text, 7, 5, "nan"), 0, False
    yield "CSV |H| != |E|", argv, _scale_hz(text, 9), 0, False
    yield "CSV truncated", argv, text[: len(text) // 2], 0, False

    argv, text = real["invariants json"]
    yield "invariants gate false", argv, _json_edit(
        text, lambda d: d.__setitem__("pass", False)), 0, False
    yield "invariants deviation 2e-9", argv, _json_edit(
        text, lambda d: d.__setitem__("max_deviation", 2e-9)), 0, False
    yield "invariants frame dropped", argv, _json_edit(
        text, lambda d: d["frames"].pop()), 0, False
    argv, text = real["invariants table"]
    yield "invariants table FAIL", argv, text.replace("PASS", "FAIL"), 0, False

    argv, text = real["semiphoton json"]
    yield "alpha_s off by 1e-14", argv, _json_edit(
        text, lambda d: d["model"].__setitem__(
            "alpha_s", d["model"]["alpha_s"] * (1 + 1e-14))), 0, False
    argv, text = real["semiphoton table"]
    yield "alpha_s table digit", argv, text.replace(" 0.340", " 0.341"), 0, False

    argv, text = real["dispersion json"]
    yield "dispersion branch off", argv, _json_edit(
        text, lambda d: d.__setitem__("c_times_k_ref", d["c_times_k_ref"] * 1.001)), 0, False
    argv, text = real["constants json"]
    yield "constant negative", argv, _json_edit(
        text, lambda d: d.__setitem__("m_e", -d["m_e"])), 0, False
    yield "exit code 1", argv, text, 1, False


class _Flaky:
    """A runner whose second output differs from its first."""

    def __init__(self, texts):
        self.texts = iter(texts)

    def run(self, argv, tracer=None):
        return 0.0, 0, next(self.texts)


def replay_case() -> bool:
    """An op whose replay prints something else must be marked failed."""
    runner = _Flaky(["b\n"])
    records = [{"argv": ["constants"], "problems": [],
                "sha256": hashlib.sha256(b"a\n").hexdigest()}]
    worker.replay(runner, records)
    return bool(records[0]["problems"])


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    bad = 0
    for label, argv, text, code, want_pass in cases():
        problems = checks.check(argv, code, text)
        ok = (not problems) == want_pass
        bad += not ok
        verdict = "caught" if problems else "passed"
        print(f"{'ok ' if ok else 'BAD'} {label:<28} {verdict}: {'; '.join(problems)[:90]}")
    ok = replay_case()
    bad += not ok
    print(f"{'ok ' if ok else 'BAD'} {'replay differs':<28} {'caught' if ok else 'passed'}")
    print(f"{bad} unexpected result(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

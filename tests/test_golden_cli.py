"""The bytes of ``apparent heun`` and of ``--help``, pinned.

``golden_cli.json`` holds, for every equation family, valid and
malformed parameter files (missing, non-rational and non-list values,
wrong list lengths, parameters the constructors reject) run under both
output formats, and the help text of the program and of each
subcommand: for each, the exit code and the exact stdout and stderr.
Parameters are read from stdin, so no path appears in the output.
The file also pins ``analyze``, ``riemann``, ``deform`` and
``undeform`` on a few equations read from stdin, under both formats.
``polymer`` is left out: its floats may move in the last digits when
the solver changes.

Regenerate the file (only for a deliberate change of output) with
``PYTHONPATH=src python tests/test_golden_cli.py --write``.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from apparent import heun, transform
from apparent.cli import ode_json, run

GOLDEN = Path(__file__).with_name("data") / "golden_cli.json"

GENERAL = {"t": "3", "theta1": "1/2", "theta2": "1/3", "theta3": "1/5",
           "theta_inf": "1/7", "alpha": "173/210", "q": "5"}
MULTI = {"zs": ["0", "1", "3", "-2"], "thetas": ["1/2", "1/3", "1/5", "2/3"],
         "theta_inf": "1/7", "alpha": "81/70", "qs": ["5", "1/2"]}
THIRD = {"t": "-1/2", "alpha": "1/3", "beta": "2/5", "theta2": "1/7",
         "theta3": "3/4", "kappa": "2", "q": "7"}
CONFLUENT = {"p0": ["0", "1"], "p1": ["1", "0", "1"], "alpha": "1", "q": "2"}
VALID = {"general": GENERAL, "multi": MULTI, "third": THIRD, "confluent": CONFLUENT}


def _equations():
    """(name, ODE JSON text) for the pinned equation subcommands."""
    ode = heun.general_heun(heun.HeunParams(**{k: Fraction(v) for k, v in GENERAL.items()}))
    return [
        ("general Heun", json.dumps(ode_json(ode))),
        ("deformed general Heun", json.dumps(ode_json(transform.deform(ode).ode))),
        # P_0 = z^2 - 2 has no rational root
        ("non-rational P_0", json.dumps({"coeffs": [["-2", "0", "1"], ["0"], ["1"]]})),
        # z^2 w'' + z w' - 2 w = 0: exponents +-sqrt(2) at 0 and infinity
        ("exponents +-sqrt 2", json.dumps({"coeffs": [["0", "0", "1"], ["0", "1"], ["-2"]]})),
    ]


def _without(params, *names):
    return {k: v for k, v in params.items() if k not in names}


def _numbers(value):
    """The value with every integer string made a JSON number."""
    if isinstance(value, list):
        return [_numbers(v) for v in value]
    return int(value) if value.lstrip("-").isdigit() else value


def _cases():
    """(name, family, stdin text) for every pinned heun run."""
    cases = []
    for family, params in VALID.items():
        first, *rest = params
        cases += [
            ("valid", family, json.dumps(params)),
            ("extra key ignored", family, json.dumps({**params, "extra": "x"})),
            ("JSON numbers for integers", family,
             json.dumps({k: _numbers(v) for k, v in params.items()})),
            ("one missing", family, json.dumps(_without(params, first))),
            ("two missing", family, json.dumps(_without(params, first, rest[-1]))),
            ("all missing", family, "{}"),
            ("not an object", family, json.dumps(list(params))),
            ("invalid JSON", family, "{"),
        ]
        for name, value in params.items():
            if isinstance(value, str):
                bad = [("bad rational", "1/0"), ("word", "x"), ("null", None),
                       ("list for a scalar", ["1"])]
            else:
                bad = [("string for a list", "012"), ("number for a list", 5),
                       ("bad element", [*value[:-1], "a"]), ("null element", [None])]
            cases += [(f"{label} in {name}", family, json.dumps({**params, name: v}))
                      for label, v in bad]
    domain = [
        ("general", "t at 1", {**GENERAL, "t": "1"}),
        ("general", "sum constraint", {**GENERAL, "alpha": "1"}),
        ("multi", "too few thetas", {**MULTI, "thetas": MULTI["thetas"][:3]}),
        ("multi", "too many thetas", {**MULTI, "thetas": MULTI["thetas"] + ["1"]}),
        ("multi", "too few qs", {**MULTI, "qs": ["5"]}),
        ("multi", "too many qs", {**MULTI, "qs": ["5", "1/2", "6"]}),
        ("multi", "thetas and qs wrong", {**MULTI, "thetas": ["1"], "qs": []}),
        ("multi", "two points", {**MULTI, "zs": ["0", "1"], "thetas": ["1/2", "1/2"], "qs": []}),
        ("multi", "two points with qs", {**MULTI, "zs": ["0", "1"], "thetas": ["1/2", "1/2"]}),
        ("multi", "two points, three thetas", {**MULTI, "zs": ["0", "1"], "thetas": ["1", "1", "1"]}),
        ("multi", "repeated point", {**MULTI, "zs": ["0", "1", "3", "3"]}),
        ("multi", "sum constraint", {**MULTI, "alpha": "1"}),
        ("multi", "repeated accessory", {**MULTI, "qs": ["5", "5"]}),
        ("third", "t at 0", {**THIRD, "t": "0"}),
        ("confluent", "zero P_0", {**CONFLUENT, "p0": []}),
        ("confluent", "P_0 degree 3", {**CONFLUENT, "p0": ["0", "0", "0", "1"]}),
        ("confluent", "P_1 degree 1", {**CONFLUENT, "p1": ["1", "1"]}),
        ("confluent", "alpha zero", {**CONFLUENT, "alpha": "0"}),
        ("confluent", "short P_1", {**CONFLUENT, "p1": ["0", "0", "1/2"]}),
    ]
    cases += [(name, family, json.dumps(params)) for family, name, params in domain]
    return cases


def _invocations():
    """(name, argv, stdin text) for every pinned run."""
    out = [("help", ["--help"], ""), ("version", ["--version"], ""),
           ("no subcommand", [], ""), ("unknown family", ["heun", "--family", "x", "--params", "-"], "")]
    for sub in ("analyze", "riemann", "deform", "undeform", "heun", "polymer"):
        out.append((f"{sub} help", [sub, "--help"], ""))
    for name, family, text in _cases():
        for fmt in ("json", "text"):
            out.append((f"{family}: {name} ({fmt})",
                        ["heun", "--family", family, "--params", "-", "--format", fmt], text))
    runs = [("analyze", []), ("riemann", []), ("deform", []),
            ("deform x3", ["--iterations", "3"]), ("undeform", [])]
    for name, text in _equations():
        for label, extra in runs:
            for fmt in ("json", "text"):
                argv = [label.split()[0], "-", *extra, "--format", fmt]
                out.append((f"{label}: {name} ({fmt})", argv, text))
    return out


def invoke(argv, stdin_text, monkeypatch):
    """Exit code, stdout and stderr of one in-process run."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    out, errs = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(errs):
        code = run(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": errs.getvalue()}


def build(monkeypatch):
    # argparse wraps help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    return {name: {"argv": argv, "stdin": text, **invoke(argv, text, monkeypatch)}
            for name, argv, text in _invocations()}


def test_cli_matches_golden_dump(monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    got = build(monkeypatch)
    assert list(got) == list(golden)
    for name, want in golden.items():
        assert got[name] == want, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with pytest.MonkeyPatch.context() as mp:
        dump = build(mp)
    GOLDEN.write_text(json.dumps(dump, indent=1, sort_keys=False) + "\n")
    print(f"wrote {len(dump)} runs to {GOLDEN}")

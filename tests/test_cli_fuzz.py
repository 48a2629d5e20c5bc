"""Any input text ends in an exit code of 0, 1 or 2 and, under
``--format json``, a JSON body on stdout: never in a traceback.

``analyze`` and ``deform`` run in process on random JSON shapes,
coefficient lists of every scalar kind, digit strings and bare numbers
around Python's 4,300-digit int/str limit, decimal exponents on both
sides of the CLI's bound of 1,000, and nesting past the JSON decoder's
depth limit.  The coefficient lists stay short, so each run is quick.

Every subcommand also runs in process on random command lines over a
few short equation files: valid option values, bad integers, negatives,
unknown flags, options left without a value or out, and each spelling of
--format.  Under JSON an exit code of 2 comes with a "Usage" body, also
for the errors argparse finds.  polymer's solver is stubbed out, so no
line starts a solve.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apparent import NoEigenvalueInWindowError, polymer
from apparent.cli import run


class Raw(str):
    """A JSON token written as is: numbers too long for json.dumps,
    NaN and Infinity."""


def dump(value) -> str:
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value.items()) + "}"
    return json.dumps(value)


digits = st.integers(4290, 4310).map(lambda k: "9" * k)
exponent = st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-1010, 1010))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**6), 10**6), st.floats(), st.text(max_size=6),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(-3, 9)),
    digits, digits.map(Raw), exponent, exponent.map(Raw),
    st.sampled_from([Raw("NaN"), Raw("-Infinity"), Raw("1e400")]),
)
rows = st.lists(st.lists(scalars, max_size=4), max_size=4)
shapes = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=5), inner, max_size=3), max_leaves=8)
documents = st.one_of(
    rows.map(lambda r: {"coeffs": r}),
    rows.map(lambda r: {"ode": {"coeffs": r}}),
    st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4), min_size=2, max_size=4)
    .map(lambda r: {"coeffs": r}),
    shapes,
).map(dump)


def deep(depth: int, kind: str) -> str:
    """Text nested `depth` levels deep."""
    return {
        "array": "[" * depth + "]" * depth,
        "object": '{"a": ' * depth + "1" + "}" * depth,
        "unclosed": "[" * depth,
        "coefficient": '{"coeffs": [[' + "[" * depth + "]" * depth + "]]}",
    }[kind]


nested = st.builds(deep, st.sampled_from([900, 1000, 3000, 200_000]),
                   st.sampled_from(["array", "object", "unclosed", "coefficient"]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(text=st.one_of(documents, nested), sub=st.sampled_from(["analyze", "deform"]))
def test_any_input_ends_in_an_exit_code_and_a_body(text, sub):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), redirect_stdout(out), \
            redirect_stderr(err):
        code = run([sub, "-", "--format", "json"])
    assert code in (0, 1, 2)
    body = json.loads(out.getvalue())
    assert ("error" in body) == (code != 0)
    if code:
        assert (body["error"]["code"] == "Usage") == (code == 2)


# ------------------------------------------------------------------ argv

GENERAL = {"t": "3", "theta1": "1/2", "theta2": "1/3", "theta3": "1/5",
           "theta_inf": "1/7", "alpha": "173/210", "q": "5"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A general Heun parameter file, its equation and the equation deformed once."""
    tmp = tmp_path_factory.mktemp("argv")
    paths = {name: str(tmp / f"{name}.json") for name in ("PARAMS", "HEUN", "DEFORMED")}
    with open(paths["PARAMS"], "w") as fh:
        json.dump(GENERAL, fh)
    for name, argv in (("HEUN", ["heun", "--family", "general", "--params", paths["PARAMS"]]),
                       ("DEFORMED", ["deform", paths["HEUN"]])):
        out = io.StringIO()
        with redirect_stdout(out):
            assert run([*argv, "--format", "json"]) == 0
        with open(paths[name], "w") as fh:
            fh.write(out.getvalue())
    return paths


INTEGER = ["--iterations", "--max-slack", "--count", "--precision-bits", "--series-order",
           "--grid-points"]
# subcommand -> positional arguments, required options, other options; with
# values that run quickly.  polymer's solver is stubbed out below.
COMMANDS = {
    "analyze": (["HEUN"], {}, {}),
    "riemann": (["DEFORMED"], {}, {}),
    "deform": (["HEUN"], {}, {"--iterations": ["1", "2"]}),
    "undeform": (["DEFORMED"], {}, {"--targets": ["5", "-1/2", "5,3"],
                                    "--multiplicities": ["1", "2", "1,1"],
                                    "--max-slack": ["0", "1", "32"]}),
    "heun": ([], {"--family": ["general", "third"], "--params": ["PARAMS"]}, {}),
    "polymer": ([], {"--b": ["2", "1/2"], "--W": ["1/4", "3/10"]},
                {"--tau": ["1", "2"], "--nu-min": ["0", "1/10"], "--nu-max": ["10", "30"],
                 "--count": ["1", "2"], "--precision-bits": ["64", "256", "4096"],
                 "--series-order": ["1", "200"], "--grid-points": ["2", "64", "4096"],
                 "--sweep": ["1/4,1/3"]}),
}
BAD_INTEGERS = ["x", "1.5", "", "1e3", "0", "-1", "-1/2", "33", "4097", "9" * 30]
FORMATS = {"json": [["--format", "json"], ["--format=json"], ["--form", "json"], ["--fo=json"]],
           "text": [["--format", "text"], ["--forma=text"], []]}


@st.composite
def command_lines(draw):
    """(argv, asks for JSON): a subcommand with option tokens drawn from
    valid values, bad integers, negatives, unknown flags, options left
    without a value or out, and one --format form placed anywhere."""
    sub = draw(st.sampled_from(sorted(COMMANDS)))
    positional, required, optional = COMMANDS[sub]
    pool = {**required, **optional}
    units = [list(positional)] if draw(st.integers(0, 9)) else []
    units += [[flag, draw(st.sampled_from(values))] for flag, values in required.items()
              if draw(st.integers(0, 9))]
    flags = sorted(pool) + INTEGER
    for kind in draw(st.lists(st.sampled_from(["valid", "bad", "negative", "unknown", "bare"]),
                              max_size=4)):
        flag = draw(st.sampled_from(flags))
        unit = {
            "valid": lambda: [flag, draw(st.sampled_from(pool.get(flag, ["1"])))],
            "bad": lambda: [flag, draw(st.sampled_from(BAD_INTEGERS))],
            "negative": lambda: [flag, draw(st.sampled_from(["-3", "-1/2", "-1e3"]))],
            "unknown": lambda: ["--bogus", "1"],
            "bare": lambda: [flag],
        }[kind]()
        units.insert(draw(st.integers(0, len(units))), unit)
    fmt = draw(st.sampled_from(sorted(FORMATS)))
    units.insert(draw(st.integers(0, len(units))), draw(st.sampled_from(FORMATS[fmt])))
    return [sub] + [token for unit in units for token in unit], fmt == "json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(line=command_lines())
def test_any_command_line_ends_in_an_exit_code_and_a_body(files, line):
    argv, as_json = line
    argv = [files.get(token, token) for token in argv]

    def no_solve(*args, **kwargs):
        raise NoEigenvalueInWindowError("solver stubbed out")

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(polymer, "solve_spectrum", no_solve), \
            mock.patch.object(sys, "stdin", io.StringIO("")), \
            redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if not as_json:
        assert code != 2 or out.getvalue() == ""
        return
    body = json.loads(out.getvalue())
    assert (body.get("error", {}).get("code") == "Usage") == (code == 2), argv
    assert ("error" in body) == (code != 0)

"""Any input text ends in an exit code of 0, 1 or 2 and, under
``--format json``, a JSON body on stdout: never in a traceback.

``analyze`` and ``deform`` run in process on random JSON shapes,
coefficient lists of every scalar kind, digit strings and bare numbers
around Python's 4,300-digit int/str limit, decimal exponents on both
sides of the CLI's bound of 1,000, and nesting past the JSON decoder's
depth limit.  The coefficient lists stay short, so each run is quick.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

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

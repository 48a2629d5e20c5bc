"""The dispatcher's own reading of a plain command line agrees with argparse.

``apparent.cli._parse_plain`` reads a command line from the command
table without argparse and refuses (returns None) anything but a plain
one; argparse, built from the same table by ``build_parser``, reads the
rest.  Whenever the plain reading accepts a line, argparse must accept
it too and give the same namespace.  The lines are drawn from the table:
every subcommand with its positionals and options, then edited with
repeated options, option prefixes, the ``--opt=value`` form, ``-h``,
``--help``, ``--version``, ``-``, ``--``, negative and empty values,
values outside an option's choices, and stray or missing words.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apparent.cli import COMMANDS, UsageError, _parse_plain, build_parser

NAMES = sorted(COMMANDS)
OPTIONS = sorted({arg.name for command in COMMANDS.values() for arg in command.args
                  if arg.name.startswith("-")})
# mostly values the plain reading takes, so it accepts many lines
VALUES = st.sampled_from(["1", "2", "32", "1/4", "5,3", "x.json", "json", "text", "general",
                          "analyze", "a b", "", "-3", "-1/2", "-x", "-", "--", "-h", "--b"])
SPECIAL = ["-h", "--help", "--version", "-", "--"]
WORDS = st.one_of(st.sampled_from(NAMES + OPTIONS + SPECIAL), VALUES)


def values_for(arg):
    if arg.choices is None:
        return VALUES
    return st.sampled_from([*arg.choices, *arg.choices, "nope", "-x"])


@st.composite
def command_lines(draw):
    """A subcommand with its positionals, its required options and some
    others, in any order, then up to three edits."""
    sub = draw(st.sampled_from(NAMES))
    args = COMMANDS[sub].args
    units = [[draw(values_for(arg))] if not arg.name.startswith("-")
             else [arg.name, draw(values_for(arg))]
             for arg in args
             if not arg.name.startswith("-") or arg.required or draw(st.booleans())]
    units = draw(st.permutations(units))
    options = [arg for arg in args if arg.name.startswith("-")]
    for edit in draw(st.lists(st.sampled_from(["repeat", "word", "prefix", "attached", "drop"]),
                              max_size=3)):
        at = draw(st.integers(0, len(units)))
        if edit == "repeat":
            arg = draw(st.sampled_from(options))
            units[at:at] = [[arg.name, draw(values_for(arg))], [arg.name, draw(values_for(arg))]]
        elif edit == "word":
            units.insert(at, [draw(WORDS)])
        elif edit == "prefix":
            name = draw(st.sampled_from(options)).name
            units.insert(at, [name[:draw(st.integers(2, len(name) - 1))], draw(VALUES)])
        elif edit == "attached":
            arg = draw(st.sampled_from(options))
            units.insert(at, [f"{arg.name}={draw(values_for(arg))}"])
        elif units:
            del units[min(at, len(units) - 1)]
    head = draw(st.sampled_from([[sub]] * 8 + [[], [draw(WORDS)], [draw(WORDS), sub]]))
    return head + [word for unit in units for word in unit]


@pytest.fixture(scope="module")
def parser():
    return build_parser()


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=command_lines())
def test_plain_reading_agrees_with_argparse(parser, argv):
    plain = _parse_plain(argv)
    if plain is None:
        return
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            parsed = parser.parse_args(argv)
    except (UsageError, SystemExit) as exc:
        pytest.fail(f"argparse refuses {argv} ({exc!r}), the plain reading gives {plain}")
    assert vars(plain) == vars(parsed), argv


def plain_line(sub: str, value: str, every: bool) -> list[str]:
    """sub with its required options, or every option, then its
    positionals; each value is the option's first choice or value."""
    options, positionals = [], []
    for arg in COMMANDS[sub].args:
        text = arg.choices[0] if arg.choices else value
        if not arg.name.startswith("-"):
            positionals.append(text)
        elif every or arg.required:
            options += [arg.name, text]
    return [sub, *options, *positionals]


@pytest.mark.parametrize("every", [True, False], ids=["every", "required"])
@pytest.mark.parametrize("value", ["1", "", "x.json"])
@pytest.mark.parametrize("sub", NAMES)
def test_plain_reading_takes_each_plain_line(parser, sub, value, every):
    argv = plain_line(sub, value, every)
    plain = _parse_plain(argv)
    assert plain is not None
    assert vars(plain) == vars(parser.parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"], ["deform", "-h"], ["deform", "x", "--help"],
    ["deform", "x", "--iterations=2"], ["deform", "x", "--it", "2"], ["deform", "-"],
    ["deform", "x", "--iterations", "-3"], ["deform", "x", "--iterations"],
    ["deform", "x", "--iterations", "1", "--iterations", "2"], ["deform", "x", "--", "y"],
    ["deform"], ["deform", "x", "y"], ["heun", "--params", "p.json"],
    ["heun", "--family", "nope", "--params", "p.json"], ["deform", "x", "--format", "xml"],
    ["polymer", "--b", "2", "--W", "1/4", "--csv"], ["analyse", "x"],
])
def test_plain_reading_leaves_every_other_line_to_argparse(argv):
    assert _parse_plain(argv) is None

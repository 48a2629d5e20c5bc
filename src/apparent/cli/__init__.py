"""Command-line surface: parse equations, run analyses, emit reports.

Reports are deterministic: identical inputs give byte-identical JSON
(no timestamps).  Exact rationals are serialized as strings ("3/16"),
never as floats, so values survive pipe chains unchanged.  Exit codes:
0 success, 1 domain error (with a stable machine-readable code), 2
usage or input-format error (code "Usage"), argparse's own included.
Under --format json both errors print an error body on stdout.

This module is the dispatcher: the exit-code contract, the readers of
rationals, integers and JSON input, the report envelope and the table
of subcommands.  Each subcommand runs in a handler module (`_analyze`
for analyze and riemann, `_heun`, `_deform`, `_undeform`, `_polymer`)
that the dispatcher imports only when that subcommand is chosen.  A
plain command line is read straight from the table; argparse, built
from the same table, reads every other one and writes all help, usage
and error text, so a plain line runs without loading it.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from importlib import import_module
from types import SimpleNamespace
from typing import NamedTuple

from .. import APPARENT_SCHEMA, __version__
from .. import errors as err


class UsageError(Exception):
    """Bad command line, input shape or unreadable file: exit code 2.

    prefix leads the message on stderr: argparse's errors name the
    program there.
    """

    def __init__(self, message: str, prefix: str = "error"):
        super().__init__(message)
        self.prefix = prefix


# ---------------------------------------------------------------- JSON forms

# A decimal exponent stands for digits the input does not spell out, so
# its magnitude is bounded: a parsed rational has at most _MAX_EXPONENT
# digits more than its text.
_MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _rational(text) -> Fraction:
    """Fraction(str(text)); ValueError for an exponent beyond _MAX_EXPONENT."""
    text = str(text)
    exp = _EXPONENT.search(text)
    digits = exp[1].replace("_", "").lstrip("0") if exp else ""
    # lengths first: converting a long digit string is itself slow
    if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
        raise ValueError(f"decimal exponent beyond {_MAX_EXPONENT} in {text!r}")
    return Fraction(text)


def parse_frac(text, what: str) -> Fraction:
    try:
        return _rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational for {what}: {text!r}") from exc


# option texts up to this length are echoed in error messages; a longer
# one is named by its length, so the message stays short
_MAX_ECHO = 40


def parse_int(text, flag: str, low: int, high: int | None = None) -> int:
    """The integer text spells; UsageError unless low <= it <= high."""
    size = len(str(text))
    try:
        value = int(text)
    except ValueError as exc:
        if size > _MAX_ECHO:
            bounds = f"at least {low}" if high is None else f"from {low} to {high}"
            raise UsageError(f"bad integer for {flag}: a text of {size} characters;"
                             f" it takes an integer {bounds}") from exc
        raise UsageError(f"bad integer for {flag}: {text!r}") from exc
    shown = value if size <= _MAX_ECHO else f"an integer of {size} characters"
    if value < low:
        raise UsageError(f"{flag} must be at least {low}, got {shown}")
    if high is not None and value > high:
        raise UsageError(f"{flag} must be at most {high}, got {shown}")
    return value


def poly_json(p) -> list[str]:
    return [str(c) for c in p.coeffs]


def ode_json(ode) -> dict:
    return {"coeffs": [poly_json(p) for p in ode.coeffs]}


def parse_ode(obj):
    # imported here, so that help and command-line errors load no equation code
    from ..odemodel import make_ode
    from ..polyrat import RatPoly

    if isinstance(obj, dict) and "ode" in obj and "coeffs" not in obj:
        obj = obj["ode"]
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise UsageError('expected an object with a "coeffs" field')
    rows = obj["coeffs"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise UsageError('"coeffs" must be a list of coefficient lists')
    try:
        polys = [RatPoly([_rational(c) for c in row]) for row in rows]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad coefficient: {exc}") from exc
    return make_ode(polys)


def read_json_input(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    # JSONDecodeError is a ValueError; nesting past the decoder's depth
    # raises RecursionError
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc


_ENVELOPE = {"schema": APPARENT_SCHEMA, "tool": "apparent", "version": __version__}


def report(command: str, payload: dict) -> dict:
    return {**_ENVELOPE, "command": command, **payload}


def error_body(code: str, message: str, details: dict) -> dict:
    error = {"code": code, "message": message, "details": {k: str(v) for k, v in details.items()}}
    return {**_ENVELOPE, "error": error}


# ------------------------------------------------------------ command table

class Arg(NamedTuple):
    """A positional (a name without dashes) or an option of a subcommand."""

    name: str
    help: str | None = None
    default: object = None
    required: bool = False
    choices: tuple[str, ...] | None = None

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


class Command(NamedTuple):
    """A subcommand: its handler module, which defines cmd_<name> and
    text_<name>, its help line and its arguments in help order."""

    module: str
    help: str
    args: tuple[Arg, ...]


# family -> names of its parameter record and constructor in heun; the
# record's fields are the keys of the parameter file
_FAMILIES = {
    "general": ("HeunParams", "general_heun"),
    "multi": ("MultiHeunParams", "multi_heun"),
    "third": ("ThirdOrderParams", "third_order_example"),
    "confluent": ("ConfluentHeunParams", "confluent_heun"),
}

_INPUT = Arg("input", "ODE JSON path, or - for stdin")
# --format comes last in every option list
_FORMAT = Arg("--format", "output format (default: text)", "text", choices=("json", "text"))

COMMANDS = {
    "analyze": Command("_analyze", "classify singular points and run the Fuchs checks",
                       (_INPUT, _FORMAT)),
    "riemann": Command("_analyze", "print the generalized Riemann symbol", (_INPUT, _FORMAT)),
    "deform": Command("_deform", "generate apparent singularities by differentiation", (
        _INPUT,
        Arg("--iterations", "number of stages (default 1)", 1),
        _FORMAT,
    )),
    "undeform": Command("_undeform", "remove apparent singularities by inverse differentiation", (
        _INPUT,
        Arg("--targets", "comma-separated locations (default: all apparent points)"),
        Arg("--multiplicities", "comma-separated multiplicities for the targets"),
        Arg("--max-slack", "extra ansatz degree slack (default 1)", 1),
        _FORMAT,
    )),
    "heun": Command("_heun", "build an equation family instance and analyze it", (
        Arg("--family", required=True, choices=tuple(_FAMILIES)),
        Arg("--params", "parameter JSON path, or - for stdin", required=True),
        _FORMAT,
    )),
    "polymer": Command("_polymer", "solve the coil-stretch spectral problem", (
        Arg("--b", "flexibility parameter (rational)", required=True),
        Arg("--W", "Weissenberg number (rational)", required=True),
        Arg("--tau", "equilibrium relaxation time (default 1)", "1"),
        Arg("--nu-min", "window lower end (default 0)", "0"),
        Arg("--nu-max", "window upper end (default 10*b)"),
        Arg("--count", "eigenvalues to return (default 1)", 1),
        Arg("--precision-bits", default=256),
        Arg("--series-order", "has no effect here (default 200): each series runs until "
            "its tail is negligible, however many terms that takes", 200),
        Arg("--grid-points", default=64),
        Arg("--sweep", "comma-separated extra W values to sweep"),
        Arg("--csv", "write (W, nu_1, T_rel) rows to this CSV file"),
        _FORMAT,
    )),
}


def build_parser():
    """The argparse parser of COMMANDS: the one authority on help, usage
    and every command-line error, which it raises as UsageError."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            raise UsageError(message, f"{self.prog}: error")

    # in definition order, so the help text is the same on every run
    codes = [cls.code for cls in err.ApparentError.__subclasses__()]
    epilog = (
        "domain error codes (exit 1): " + ", ".join(codes) + ". "
        "Exit 2 means a usage or input-format problem. "
        "Rationals, in files and options, use Python's Fraction syntax "
        f"('3/16', '-0.25', '1e-400') with a decimal exponent of at most {_MAX_EXPONENT} "
        "in magnitude."
    )
    parser = Parser(
        prog="apparent",
        description="Exact analysis of apparent singularities in linear ODEs "
        "with polynomial coefficients.",
        epilog=epilog,
    )
    parser.add_argument("--version", action="version", version=f"apparent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for arg in command.args:
            if arg.name.startswith("-"):
                sp.add_argument(arg.name, help=arg.help, default=arg.default,
                                required=arg.required, choices=arg.choices)
            else:
                sp.add_argument(arg.name, help=arg.help)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser() makes of a plain command line, or
    None for any other.

    Plain: a subcommand name, then its arguments in any order.  Each
    option is spelled out in full, given at most once and followed by a
    value that does not start with "-"; every other word is a positional
    that does not start with "-", as many as the subcommand takes; the
    required options are there and every value is among its choices.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {arg.name: arg for arg in command.args if arg.name.startswith("-")}
    values = {arg.dest: arg.default for arg in options.values()}
    given, positionals = set(), []
    words = iter(argv[1:])
    for word in words:
        arg = options.get(word)
        if arg is None:
            if word.startswith("-"):
                return None
            positionals.append(word)
            continue
        value = next(words, None)
        if (word in given or value is None or value.startswith("-")
                or (arg.choices is not None and value not in arg.choices)):
            return None
        given.add(word)
        values[arg.dest] = value
    names = [arg.name for arg in command.args if not arg.name.startswith("-")]
    if len(positionals) != len(names):
        return None
    if any(arg.required and name not in given for name, arg in options.items()):
        return None
    return SimpleNamespace(command=argv[0], **dict(zip(names, positionals)), **values)


def run(argv=None) -> int:
    """Parse arguments, execute, print a report; returns the exit code.

    Python's int/str digit limit is lifted for the call, so exact
    results of any size print in full, and restored on return.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _attach_negative_values(argv) -> list[str]:
    # argparse takes "-3" and "-0.25" for values but "-1/2" and "-1e3" for
    # unknown options.  No option name starts with a digit or a dot, and
    # every long option takes a value but --help and --version, the only
    # ones that start with h or v, so such a token joins the option before it.
    out: list[str] = []
    for token in argv:
        if out and re.match(r"-[\d.]", token) and re.fullmatch(r"--[^-=hv][^=]*", out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _asks_for_json(argv: list[str]) -> bool:
    """Whether argv selects --format json, read by argparse's own rules
    (prefixes, the '=' form, the last one counts), other tokens aside."""
    import argparse

    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--format")
    try:
        return probe.parse_known_args(argv)[0].format == "json"
    except argparse.ArgumentError:  # --format without a value
        return False


def _run(argv) -> int:
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_plain(argv) or build_parser().parse_args(argv)
        handler = import_module(f".{COMMANDS[args.command].module}", __name__)
        rep = getattr(handler, f"cmd_{args.command}")(args)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        # argparse's errors leave no namespace to read --format from
        if _asks_for_json(argv):
            print(json.dumps(error_body("Usage", str(exc), {}), indent=2))
        return 2
    except err.ApparentError as exc:
        if args.format == "json":
            print(json.dumps(error_body(exc.code, exc.message, exc.details), indent=2))
        else:
            print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(rep, indent=2))
    else:
        getattr(handler, f"text_{args.command}")(rep)
    return 0


def main() -> int:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at
        # interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code

"""Command-line surface: parse equations, run analyses, emit reports.

Reports are deterministic: identical inputs give byte-identical JSON
(no timestamps).  Exact rationals are serialized as strings ("3/16"),
never as floats, so values survive pipe chains unchanged.  Exit codes:
0 success, 1 domain error (with a stable machine-readable code), 2
usage or input-format error (code "Usage"), argparse's own included.
Under --format json both errors print an error body on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import typing
from fractions import Fraction

# a subcommand imports the modules that only it runs, so one process
# compiles or loads no other subcommand's code
from . import APPARENT_SCHEMA, __version__
from . import errors as err
from . import odemodel
from .odemodel import LinearODE, make_ode
from .polyrat import RatPoly

# in definition order, so the help text is the same on every run
_ERROR_CODES = [cls.code for cls in err.ApparentError.__subclasses__()]


class UsageError(Exception):
    """Bad command line, input shape or unreadable file: exit code 2.

    prefix leads the message on stderr: argparse's errors name the
    program there.
    """

    def __init__(self, message: str, prefix: str = "error"):
        super().__init__(message)
        self.prefix = prefix


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors as UsageError, after the usage line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message, f"{self.prog}: error")


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


def poly_json(p: RatPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


def ode_json(ode: LinearODE) -> dict:
    return {"coeffs": [poly_json(p) for p in ode.coeffs]}


def parse_ode(obj) -> LinearODE:
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


def point_json(sp) -> dict:
    out = {"location": str(sp.location), "kind": str(sp.kind)}
    if sp.exponents is not None:
        out["exponents"] = [str(e) for e in sp.exponents]
    if sp.residual is not None:
        out["exponent_residual"] = poly_json(sp.residual)
    return out


def fuchs_json(rep) -> dict:
    return {
        "is_fuchsian": rep.is_fuchsian,
        "num_singular": rep.num_singular,
        "exponent_sum": None if rep.exponent_sum is None else str(rep.exponent_sum),
        "expected_sum": None if rep.expected_sum is None else str(rep.expected_sum),
        "identity_holds": rep.identity_holds,
        "unresolved_factor": None
        if rep.unresolved_factor is None
        else poly_json(rep.unresolved_factor),
        "complete": rep.complete,
    }


# The apparency verdict at a point sums its Frobenius series up to the
# largest exponent E there when every exponent is a nonnegative integer,
# and that cost grows with E, not with the length of the input: about as
# E^2, with E = 4,000 about 0.35 s and E = 10,000 about 2.4 s on the
# third-order family.  The command line refuses a larger integer exponent
# before any verdict runs; the library takes any.
_MAX_INTEGER_EXPONENT = 4000


def _check_exponents(ode: LinearODE, points) -> None:
    """UsageError when an integer exponent at one of the regular points
    among points exceeds _MAX_INTEGER_EXPONENT."""
    from . import frobenius

    for point in points:
        data, loc = frobenius._local(ode, point)
        if data.is_regular and any(
            e.denominator == 1 and e > _MAX_INTEGER_EXPONENT for e in data.exponents[0]
        ):
            raise UsageError(
                f"an integer exponent at {loc} exceeds {_MAX_INTEGER_EXPONENT}; "
                "the command line decides apparency only up to that exponent"
            )


def _finite_candidates(ode: LinearODE) -> list[Fraction]:
    """The rational roots of P_0: the finite points that can be singular."""
    return [r for r, _m in odemodel._leading_roots(ode)[0]]


def analysis_payload(ode: LinearODE) -> dict:
    _check_exponents(ode, [*_finite_candidates(ode), odemodel.INFINITY])
    rep = odemodel.fuchs_check(ode)
    return {
        "ode": ode_json(ode),
        "order": ode.order,
        "degree_convention": ode.degree_convention,
        "singular_points": [point_json(sp) for sp in rep.points],
        "fuchs": fuchs_json(rep),
    }


_ENVELOPE = {"schema": APPARENT_SCHEMA, "tool": "apparent", "version": __version__}


def report(command: str, payload: dict) -> dict:
    return {**_ENVELOPE, "command": command, **payload}


def error_body(code: str, message: str, details: dict) -> dict:
    error = {"code": code, "message": message, "details": {k: str(v) for k, v in details.items()}}
    return {**_ENVELOPE, "error": error}


# --------------------------------------------------------------- subcommands

def _text_analysis(rep):
    print(f"order {rep['order']}  (degree convention: {rep['degree_convention']})")
    print("coefficients:")
    for i, row in enumerate(rep["ode"]["coeffs"]):
        print(f"  P_{i}: [{', '.join(row)}]")
    print("singular points:")
    for sp in rep["singular_points"]:
        expo = ""
        if "exponents" in sp:
            expo = "  exponents {" + ", ".join(sp["exponents"]) + "}"
        print(f"  {sp['location']:>6}  {sp['kind']}{expo}")
    f = rep["fuchs"]
    print(f"fuchsian: {f['is_fuchsian']}  points: {f['num_singular']}")
    if f["exponent_sum"] is not None:
        ok = "holds" if f["identity_holds"] else "FAILS"
        print(f"exponent sum {f['exponent_sum']} vs expected {f['expected_sum']}: {ok}")
    if f["unresolved_factor"] is not None:
        print(f"unresolved leading factor: [{', '.join(f['unresolved_factor'])}]")


def cmd_analyze(args) -> dict:
    ode = parse_ode(read_json_input(args.input))
    return report("analyze", analysis_payload(ode))


def cmd_riemann(args) -> dict:
    ode = parse_ode(read_json_input(args.input))
    _check_exponents(ode, [*_finite_candidates(ode), odemodel.INFINITY])
    sym = odemodel.riemann_symbol(ode)
    payload = {
        "ode": ode_json(ode),
        "columns": [
            {
                "location": str(c.location),
                "exponents": [str(e) for e in c.exponents],
                "residual": None if c.residual is None else poly_json(c.residual),
            }
            for c in sym.columns
        ],
        "extra": [
            {"location": str(loc), "role": role} for loc, role in sym.apparent_params
        ],
        "pretty": sym.pretty(),
    }
    return report("riemann", payload)


# The command line caps the options whose cost input length does not
# bound; the library takes any value.  deform's coefficients keep growing
# (on 2 cores, 32 stages take about 0.2 s, 40 about 0.3 s, 64 about 1.6 s
# and 80 about 4.4 s), undeform's slack loop grows about as slack^3 (32
# about 0.06 s, 64 about 0.6 s), and a polymer window with no eigenvalue
# scans every grid point (4096 take 0.5-1 s).
_MAX_ITERATIONS = 32
_MAX_SLACK = 32
_MAX_GRID_POINTS = 4096


def cmd_deform(args) -> dict:
    from . import transform

    iterations = parse_int(args.iterations, "--iterations", 1, _MAX_ITERATIONS)
    ode = parse_ode(read_json_input(args.input))
    stages = [
        {
            "ode": ode_json(res.ode),
            "new_apparent": [
                {"location": str(loc), "expected_gap": gap} for loc, gap in res.new_apparent
            ],
            "clearing_factor": poly_json(res.clearing_factor),
        }
        for res in transform.deform_iter(ode, iterations)
    ]
    # the last stage's fields repeat at the top level
    return report("deform", {"input": ode_json(ode), "stages": stages, **stages[-1]})


def cmd_undeform(args) -> dict:
    from . import transform

    targets = None
    if args.targets:
        targets = [parse_frac(t, "--targets") for t in args.targets.split(",")]
        if len(set(targets)) != len(targets):
            raise UsageError(f"--targets must be distinct locations, got {args.targets!r}")
    mults = None
    if args.multiplicities:
        mults = [parse_int(m, "--multiplicities", 1) for m in args.multiplicities.split(",")]
    if targets and mults and len(targets) != len(mults):
        raise UsageError(
            f"--multiplicities needs one value per target: {len(targets)} targets, "
            f"{len(mults)} multiplicities"
        )
    max_slack = parse_int(args.max_slack, "--max-slack", 0, _MAX_SLACK)
    ode = parse_ode(read_json_input(args.input))
    if ode.order < 2:
        raise UsageError(f"undeform needs an equation of order at least 2, got {ode.order}")
    # undeform classifies its targets, or every root of P_0 to find them
    _check_exponents(ode, targets or _finite_candidates(ode))
    if mults and not targets:
        # undeform repeats this inference from the equation's memo
        inferred = transform._infer_targets(ode)
        if inferred and len(inferred) != len(mults):
            raise UsageError(
                f"--multiplicities needs one value per inferred target: {len(inferred)} "
                f"apparent points found, {len(mults)} multiplicities"
            )
    res = transform.undeform(ode, targets, multiplicities=mults, max_slack=max_slack)
    payload = {
        "input": ode_json(ode),
        "ode": ode_json(res.ode),
        "removed_points": [str(q) for q in res.removed_points],
        "free_parameters": res.free_parameters,
    }
    return report("undeform", payload)


# family -> names of its parameter record and constructor in heun; the
# record's fields are the keys of the parameter file
_FAMILIES = {
    "general": ("HeunParams", "general_heun"),
    "multi": ("MultiHeunParams", "multi_heun"),
    "third": ("ThirdOrderParams", "third_order_example"),
    "confluent": ("ConfluentHeunParams", "confluent_heun"),
}


def cmd_heun(args) -> dict:
    from . import heun

    params = read_json_input(args.params)
    if not isinstance(params, dict):
        raise UsageError("parameter file must hold a JSON object")
    record, construct = (getattr(heun, name) for name in _FAMILIES[args.family])
    fields = typing.get_type_hints(record)
    missing = [n for n in fields if n not in params]
    if missing:
        raise UsageError(f"missing parameter(s): {', '.join(missing)}")
    values = {}
    for name, kind in fields.items():
        value = params[name]
        if kind is Fraction:
            values[name] = parse_frac(value, repr(name))
        elif isinstance(value, list):
            values[name] = tuple(parse_frac(v, repr(name)) for v in value)
        else:
            # a string is iterable too, but "012" is not the list [0, 1, 2]
            raise UsageError(f"{name!r} must be a JSON list of rationals, got {value!r}")
    try:
        p = record(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = {"family": args.family, **analysis_payload(construct(p))}
    return report("heun", payload)


def parse_positive(text, what: str) -> Fraction:
    value = parse_frac(text, what)
    if value <= 0:
        raise UsageError(f"{what} must be positive, got {text!r}")
    return value


def cmd_polymer(args) -> dict:
    import csv

    from . import polymer

    tau = parse_positive(args.tau, "--tau")
    sweep_ws = (
        [parse_positive(w, "--sweep") for w in args.sweep.split(",")] if args.sweep else None
    )
    b = parse_positive(args.b, "--b")
    w_main = parse_positive(args.W, "--W")
    nu_min = parse_frac(args.nu_min, "--nu-min")
    nu_max = parse_frac(args.nu_max, "--nu-max") if args.nu_max is not None else 10 * b
    if not nu_min < nu_max:
        raise UsageError(f"need --nu-min < --nu-max, got {nu_min} and {nu_max}")
    count = parse_int(args.count, "--count", 1)
    bits = parse_int(args.precision_bits, "--precision-bits", 1, polymer._BITS_CAP)
    parse_int(args.series_order, "--series-order", 1)
    grid_points = parse_int(args.grid_points, "--grid-points", 2, _MAX_GRID_POINTS)

    def solve_for(w_value: Fraction):
        p = polymer.PolymerParams(b=b, W=w_value, tau=tau)
        res = polymer.solve_spectrum(
            p,
            nu_min,
            nu_max,
            count,
            precision_bits=bits,
            grid_points=grid_points,
        )
        return p, res

    p_main, res_main = solve_for(w_main)
    nu1 = res_main.eigenvalues[0]
    try:
        q = float(polymer.apparent_location(p_main.b, p_main.kappa, nu1))
    except err.DegenerateApparentPointError:
        q = None
    payload = {
        "params": {
            "b": str(p_main.b),
            "W": str(p_main.W),
            "tau": str(p_main.tau),
            "kappa": str(p_main.kappa),
        },
        "eigenvalues": list(res_main.eigenvalues),
        "T_rel": res_main.t_rel,
        "q": q,
        "diagnostics": {
            "series_order": res_main.series_order,
            "precision_bits": res_main.precision_bits,
            "evaluations": res_main.evaluations,
            "warnings": list(res_main.warnings),
            "wronskian_samples": [list(s) for s in res_main.wronskian_samples],
        },
    }
    solved = [(w_main, res_main)] + [(w, solve_for(w)[1]) for w in sweep_ws or ()]
    if sweep_ws:
        payload["sweep"] = [{"W": str(w), "nu_1": res.eigenvalues[0], "T_rel": res.t_rel}
                            for w, res in solved[1:]]
    if args.csv:
        try:
            with open(args.csv, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["W", "nu_1", "T_rel"])
                for w, res in solved:
                    writer.writerow([float(w), res.eigenvalues[0], res.t_rel])
        except OSError as exc:
            raise UsageError(f"cannot write {args.csv}: {exc}") from exc
        payload["csv"] = args.csv
    return report("polymer", payload)


# ------------------------------------------------------------------- wiring

def _text_riemann(rep):
    print(rep["pretty"])


def _text_deform(rep):
    for i, st in enumerate(rep["stages"], start=1):
        print(f"stage {i}:")
        for k, row in enumerate(st["ode"]["coeffs"]):
            print(f"  O_{k}: [{', '.join(row)}]")
        if st["new_apparent"]:
            marks = ", ".join(
                f"{e['location']} (gap {e['expected_gap']})" for e in st["new_apparent"]
            )
            print(f"  new apparent: {marks}")
        else:
            print("  new apparent: none")


def _text_undeform(rep):
    print("antecedent:")
    for k, row in enumerate(rep["ode"]["coeffs"]):
        print(f"  P_{k}: [{', '.join(row)}]")
    print(f"removed: {', '.join(rep['removed_points']) or 'none'}")
    print(f"free parameters: {rep['free_parameters']}")


def _text_polymer(rep):
    pr = rep["params"]
    print(f"b={pr['b']} W={pr['W']} tau={pr['tau']} (kappa={pr['kappa']})")
    print("eigenvalues: " + ", ".join(f"{v:.12g}" for v in rep["eigenvalues"]))
    print(f"T_rel: {rep['T_rel']:.12g}")
    if rep["q"] is not None:
        print(f"apparent point q at nu_1: {rep['q']:.12g}")
    for row in rep.get("sweep", []):
        print(f"  W={row['W']}: nu_1={row['nu_1']:.12g}  T_rel={row['T_rel']:.12g}")
    for w in rep["diagnostics"]["warnings"]:
        print(f"warning: {w}")


def build_parser() -> argparse.ArgumentParser:
    epilog = (
        "domain error codes (exit 1): " + ", ".join(_ERROR_CODES) + ". "
        "Exit 2 means a usage or input-format problem. "
        "Rationals, in files and options, use Python's Fraction syntax "
        f"('3/16', '-0.25', '1e-400') with a decimal exponent of at most {_MAX_EXPONENT} "
        "in magnitude."
    )
    parser = _Parser(
        prog="apparent",
        description="Exact analysis of apparent singularities in linear ODEs "
        "with polynomial coefficients.",
        epilog=epilog,
    )
    parser.add_argument("--version", action="version", version=f"apparent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(sp, fn, text):
        # --format comes last in every option list
        sp.add_argument("--format", choices=("json", "text"), default="text",
                        help="output format (default: text)")
        sp.set_defaults(fn=fn, text=text)

    sp = sub.add_parser("analyze", help="classify singular points and run the Fuchs checks")
    sp.add_argument("input", help="ODE JSON path, or - for stdin")
    finish(sp, cmd_analyze, _text_analysis)

    sp = sub.add_parser("riemann", help="print the generalized Riemann symbol")
    sp.add_argument("input", help="ODE JSON path, or - for stdin")
    finish(sp, cmd_riemann, _text_riemann)

    sp = sub.add_parser("deform", help="generate apparent singularities by differentiation")
    sp.add_argument("input", help="ODE JSON path, or - for stdin")
    sp.add_argument("--iterations", default=1, help="number of stages (default 1)")
    finish(sp, cmd_deform, _text_deform)

    sp = sub.add_parser("undeform", help="remove apparent singularities by inverse differentiation")
    sp.add_argument("input", help="ODE JSON path, or - for stdin")
    sp.add_argument("--targets", help="comma-separated locations (default: all apparent points)")
    sp.add_argument("--multiplicities", help="comma-separated multiplicities for the targets")
    sp.add_argument("--max-slack", default=1, help="extra ansatz degree slack (default 1)")
    finish(sp, cmd_undeform, _text_undeform)

    sp = sub.add_parser("heun", help="build an equation family instance and analyze it")
    sp.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    sp.add_argument("--params", required=True, help="parameter JSON path, or - for stdin")
    finish(sp, cmd_heun, _text_analysis)

    sp = sub.add_parser("polymer", help="solve the coil-stretch spectral problem")
    sp.add_argument("--b", required=True, help="flexibility parameter (rational)")
    sp.add_argument("--W", required=True, help="Weissenberg number (rational)")
    sp.add_argument("--tau", default="1", help="equilibrium relaxation time (default 1)")
    sp.add_argument("--nu-min", default="0", help="window lower end (default 0)")
    sp.add_argument("--nu-max", default=None, help="window upper end (default 10*b)")
    sp.add_argument("--count", default=1, help="eigenvalues to return (default 1)")
    sp.add_argument("--precision-bits", default=256)
    sp.add_argument("--series-order", default=200,
                    help="has no effect here (default 200): each series runs until "
                    "its tail is negligible, however many terms that takes")
    sp.add_argument("--grid-points", default=64)
    sp.add_argument("--sweep", help="comma-separated extra W values to sweep")
    sp.add_argument("--csv", help="write (W, nu_1, T_rel) rows to this CSV file")
    finish(sp, cmd_polymer, _text_polymer)
    return parser


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
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--format")
    try:
        return probe.parse_known_args(argv)[0].format == "json"
    except argparse.ArgumentError:  # --format without a value
        return False


def _run(argv) -> int:
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        rep = args.fn(args)
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
        args.text(rep)
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


if __name__ == "__main__":
    sys.exit(main())

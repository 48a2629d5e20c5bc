"""Command-line surface: parse equations, run analyses, emit reports.

Reports are deterministic: identical inputs give byte-identical JSON
(no timestamps).  Exact rationals are serialized as strings ("3/16"),
never as floats, so values survive pipe chains unchanged.  Exit codes:
0 success, 1 domain error (with a stable machine-readable code), 2
usage or input-format error (code "Usage").  Under --format json both
errors print an error body on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from fractions import Fraction

# a subcommand imports the modules that only it runs, so one process
# compiles or loads no other subcommand's code
from . import APPARENT_SCHEMA, __version__
from . import errors as err
from . import odemodel
from .odemodel import INFINITY, LinearODE, make_ode
from .polyrat import RatPoly

# in definition order, so the help text is the same on every run
_ERROR_CODES = [cls.code for cls in err.ApparentError.__subclasses__()]


class UsageError(Exception):
    """Bad input shape or unreadable file: exit code 2."""


# ---------------------------------------------------------------- JSON forms

def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def parse_frac(text, what: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational for {what}: {text!r}") from exc


def parse_count(text, what: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise UsageError(f"bad integer for {what}: {text!r}") from exc
    if value < 1:
        raise UsageError(f"{what} must be at least 1, got {text!r}")
    return value


def poly_json(p: RatPoly) -> list[str]:
    return [frac_str(c) for c in p.coeffs]


def ode_json(ode: LinearODE) -> dict:
    return {"coeffs": [poly_json(p) for p in ode.coeffs]}


def location_str(loc) -> str:
    return "inf" if loc is INFINITY else frac_str(loc)


def parse_ode(obj) -> LinearODE:
    if isinstance(obj, dict) and "ode" in obj and "coeffs" not in obj:
        obj = obj["ode"]
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise UsageError('expected an object with a "coeffs" field')
    rows = obj["coeffs"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise UsageError('"coeffs" must be a list of coefficient lists')
    try:
        polys = [RatPoly([Fraction(str(c)) for c in row]) for row in rows]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad coefficient: {exc}") from exc
    return make_ode(polys)


def read_json_input(path: str):
    try:
        text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc


def point_json(sp) -> dict:
    out = {"location": location_str(sp.location), "kind": str(sp.kind)}
    if sp.exponents is not None:
        out["exponents"] = [frac_str(e) for e in sp.exponents]
    if sp.residual is not None and sp.residual.degree > 0:
        out["exponent_residual"] = poly_json(sp.residual)
    return out


def fuchs_json(rep) -> dict:
    return {
        "is_fuchsian": rep.is_fuchsian,
        "num_singular": rep.num_singular,
        "exponent_sum": None if rep.exponent_sum is None else frac_str(rep.exponent_sum),
        "expected_sum": None if rep.expected_sum is None else frac_str(rep.expected_sum),
        "identity_holds": rep.identity_holds,
        "unresolved_factor": None
        if rep.unresolved_factor is None
        else poly_json(rep.unresolved_factor),
        "complete": rep.complete,
    }


def analysis_payload(ode: LinearODE) -> dict:
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
    sym = odemodel.riemann_symbol(ode)
    payload = {
        "ode": ode_json(ode),
        "columns": [
            {
                "location": location_str(c.location),
                "exponents": [frac_str(e) for e in c.exponents],
                "residual": None if c.residual is None else poly_json(c.residual),
            }
            for c in sym.columns
        ],
        "extra": [
            {"location": location_str(loc), "role": role} for loc, role in sym.apparent_params
        ],
        "pretty": sym.pretty(),
    }
    return report("riemann", payload)


def cmd_deform(args) -> dict:
    from . import transform

    parse_count(args.iterations, "--iterations")
    ode = parse_ode(read_json_input(args.input))
    chain = transform.deform_iter(ode, args.iterations)
    stages = []
    for res in chain:
        stages.append(
            {
                "ode": ode_json(res.ode),
                "new_apparent": [
                    {"location": frac_str(loc), "expected_gap": gap}
                    for loc, gap in res.new_apparent
                ],
                "clearing_factor": poly_json(res.clearing_factor),
            }
        )
    payload = {
        "input": ode_json(ode),
        "stages": stages,
        "ode": stages[-1]["ode"],
        "new_apparent": stages[-1]["new_apparent"],
        "clearing_factor": stages[-1]["clearing_factor"],
    }
    return report("deform", payload)


def cmd_undeform(args) -> dict:
    from . import transform

    targets = None
    if args.targets:
        targets = [parse_frac(t, "--targets") for t in args.targets.split(",")]
        if len(set(targets)) != len(targets):
            raise UsageError(f"--targets must be distinct locations, got {args.targets!r}")
    mults = None
    if args.multiplicities:
        mults = [parse_count(m, "--multiplicities") for m in args.multiplicities.split(",")]
    if targets and mults and len(targets) != len(mults):
        raise UsageError(
            f"--multiplicities needs one value per target: {len(targets)} targets, "
            f"{len(mults)} multiplicities"
        )
    if args.max_slack < 0:
        raise UsageError(f"--max-slack must be at least 0, got {args.max_slack}")
    ode = parse_ode(read_json_input(args.input))
    if ode.order < 2:
        raise UsageError(f"undeform needs an equation of order at least 2, got {ode.order}")
    if mults and not targets:
        # undeform repeats this inference from the equation's memo
        inferred = transform._infer_targets(ode)
        if inferred and len(inferred) != len(mults):
            raise UsageError(
                f"--multiplicities needs one value per inferred target: {len(inferred)} "
                f"apparent points found, {len(mults)} multiplicities"
            )
    res = transform.undeform(ode, targets, multiplicities=mults, max_slack=args.max_slack)
    payload = {
        "input": ode_json(ode),
        "ode": ode_json(res.ode),
        "removed_points": [frac_str(q) for q in res.removed_points],
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
    for flag, value in (("--count", args.count), ("--precision-bits", args.precision_bits),
                        ("--series-order", args.series_order)):
        parse_count(value, flag)
    if args.grid_points < 2:
        raise UsageError(f"--grid-points must be at least 2, got {args.grid_points}")

    def solve_for(w_value: Fraction):
        p = polymer.PolymerParams(b=b, W=w_value, tau=tau)
        res = polymer.solve_spectrum(
            p,
            nu_min,
            nu_max,
            args.count,
            precision_bits=args.precision_bits,
            series_order=args.series_order,
            grid_points=args.grid_points,
        )
        return p, res

    p_main, res_main = solve_for(w_main)
    nu1 = res_main.eigenvalues[0]
    try:
        q = float(polymer.apparent_location(float(p_main.b), float(p_main.kappa), nu1))
    except err.DegenerateApparentPointError:
        q = None
    payload = {
        "params": {
            "b": frac_str(p_main.b),
            "W": frac_str(p_main.W),
            "tau": frac_str(p_main.tau),
            "kappa": frac_str(p_main.kappa),
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
    rows = [(p_main.W, res_main.eigenvalues[0], res_main.t_rel)]
    if sweep_ws:
        sweep_out = []
        for w_value in sweep_ws:
            p_s, res_s = solve_for(w_value)
            sweep_out.append(
                {"W": frac_str(w_value), "nu_1": res_s.eigenvalues[0], "T_rel": res_s.t_rel}
            )
            rows.append((w_value, res_s.eigenvalues[0], res_s.t_rel))
        payload["sweep"] = sweep_out
    if args.csv:
        try:
            with open(args.csv, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["W", "nu_1", "T_rel"])
                for w_value, nu_val, t_val in rows:
                    writer.writerow([float(w_value), nu_val, t_val])
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
        "Exit 2 means a usage or input-format problem."
    )
    parser = argparse.ArgumentParser(
        prog="apparent",
        description="Exact analysis of apparent singularities in linear ODEs "
        "with polynomial coefficients.",
        epilog=epilog,
    )
    parser.add_argument("--version", action="version", version=f"apparent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("json", "text"), default="text",
                        help="output format (default: text)")

    sp = sub.add_parser("analyze", help="classify singular points and run the Fuchs checks")
    sp.add_argument("input", help="ODE JSON path, or - for stdin")
    add_format(sp)
    sp.set_defaults(fn=cmd_analyze, text=_text_analysis)

    sp = sub.add_parser("riemann", help="print the generalized Riemann symbol")
    sp.add_argument("input", help="ODE JSON path, or - for stdin")
    add_format(sp)
    sp.set_defaults(fn=cmd_riemann, text=_text_riemann)

    sp = sub.add_parser("deform", help="generate apparent singularities by differentiation")
    sp.add_argument("input", help="ODE JSON path, or - for stdin")
    sp.add_argument("--iterations", type=int, default=1, help="number of stages (default 1)")
    add_format(sp)
    sp.set_defaults(fn=cmd_deform, text=_text_deform)

    sp = sub.add_parser("undeform", help="remove apparent singularities by inverse differentiation")
    sp.add_argument("input", help="ODE JSON path, or - for stdin")
    sp.add_argument("--targets", help="comma-separated locations (default: all apparent points)")
    sp.add_argument("--multiplicities", help="comma-separated multiplicities for the targets")
    sp.add_argument("--max-slack", type=int, default=1, help="extra ansatz degree slack (default 1)")
    add_format(sp)
    sp.set_defaults(fn=cmd_undeform, text=_text_undeform)

    sp = sub.add_parser("heun", help="build an equation family instance and analyze it")
    sp.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    sp.add_argument("--params", required=True, help="parameter JSON path, or - for stdin")
    add_format(sp)
    sp.set_defaults(fn=cmd_heun, text=_text_analysis)

    sp = sub.add_parser("polymer", help="solve the coil-stretch spectral problem")
    sp.add_argument("--b", required=True, help="flexibility parameter (rational)")
    sp.add_argument("--W", required=True, help="Weissenberg number (rational)")
    sp.add_argument("--tau", default="1", help="equilibrium relaxation time (default 1)")
    sp.add_argument("--nu-min", default="0", help="window lower end (default 0)")
    sp.add_argument("--nu-max", default=None, help="window upper end (default 10*b)")
    sp.add_argument("--count", type=int, default=1, help="eigenvalues to return (default 1)")
    sp.add_argument("--precision-bits", type=int, default=256)
    sp.add_argument("--series-order", type=int, default=200,
                    help="has no effect here (default 200): each series runs until "
                    "its tail is negligible, however many terms that takes")
    sp.add_argument("--grid-points", type=int, default=64)
    sp.add_argument("--sweep", help="comma-separated extra W values to sweep")
    sp.add_argument("--csv", help="write (W, nu_1, T_rel) rows to this CSV file")
    add_format(sp)
    sp.set_defaults(fn=cmd_polymer, text=_text_polymer)
    return parser


def run(argv=None) -> int:
    """Parse arguments, execute, print a report; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rep = args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.format == "json":
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

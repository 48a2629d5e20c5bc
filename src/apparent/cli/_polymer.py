"""The polymer subcommand."""

from __future__ import annotations

from fractions import Fraction

from .. import errors as err
from .. import polymer
from . import UsageError, parse_frac, parse_int, report

# The command line caps the grid, whose cost input length does not
# bound; the library takes any.  A window with no eigenvalue scans every
# grid point (README times it).
_MAX_GRID_POINTS = 4096


def parse_positive(text, what: str) -> Fraction:
    value = parse_frac(text, what)
    if value <= 0:
        raise UsageError(f"{what} must be positive, got {text!r}")
    return value


def cmd_polymer(args) -> dict:
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
        import csv

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


def text_polymer(rep):
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

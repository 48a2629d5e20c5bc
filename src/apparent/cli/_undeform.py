"""The undeform subcommand."""

from __future__ import annotations

from .. import transform
from . import UsageError, ode_json, parse_frac, parse_int, parse_ode, read_json_input, report
from ._analysis import check_exponents, finite_candidates

# The command line caps the slack, whose cost input length does not
# bound; the library takes any.  The slack loop grows about as slack^3:
# on 2 cores, 32 take about 0.06 s and 64 about 0.6 s.
_MAX_SLACK = 32


def cmd_undeform(args) -> dict:
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
    check_exponents(ode, targets or finite_candidates(ode))
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


def text_undeform(rep):
    print("antecedent:")
    for k, row in enumerate(rep["ode"]["coeffs"]):
        print(f"  P_{k}: [{', '.join(row)}]")
    print(f"removed: {', '.join(rep['removed_points']) or 'none'}")
    print(f"free parameters: {rep['free_parameters']}")

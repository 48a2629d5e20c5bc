"""What the subcommands that analyze an equation share: the cap on the
exponents they decide apparency for, and the analysis report."""

from __future__ import annotations

from fractions import Fraction

from .. import odemodel
from . import UsageError, ode_json, poly_json

# The apparency verdict at a point sums its Frobenius series up to the
# largest exponent E there when every exponent is a nonnegative integer,
# and that cost grows with E, not with the length of the input: about as
# E^2, with E = 4,000 about 0.35 s and E = 10,000 about 2.4 s on the
# third-order family.  The command line refuses a larger integer exponent
# before any verdict runs; the library takes any.
_MAX_INTEGER_EXPONENT = 4000


def check_exponents(ode, points) -> None:
    """UsageError when an integer exponent at one of the regular points
    among points exceeds _MAX_INTEGER_EXPONENT."""
    from .. import frobenius

    for point in points:
        data, loc = frobenius._local(ode, point)
        if data.is_regular and any(
            e.denominator == 1 and e > _MAX_INTEGER_EXPONENT for e in data.exponents[0]
        ):
            raise UsageError(
                f"an integer exponent at {loc} exceeds {_MAX_INTEGER_EXPONENT}; "
                "the command line decides apparency only up to that exponent"
            )


def finite_candidates(ode) -> list[Fraction]:
    """The rational roots of P_0: the finite points that can be singular."""
    return [r for r, _m in odemodel._leading_roots(ode)[0]]


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


def analysis_payload(ode) -> dict:
    check_exponents(ode, [*finite_candidates(ode), odemodel.INFINITY])
    rep = odemodel.fuchs_check(ode)
    return {
        "ode": ode_json(ode),
        "order": ode.order,
        "degree_convention": ode.degree_convention,
        "singular_points": [point_json(sp) for sp in rep.points],
        "fuchs": fuchs_json(rep),
    }


def text_analysis(rep):
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

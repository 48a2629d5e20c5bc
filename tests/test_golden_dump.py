"""Exact outputs of the local analysis, pinned byte for byte.

``golden_local.json`` holds, for a fixed set of generated equations (two
draws of each of the four families, plus one ``deform`` of each), the
indicial polynomial and classification of every rational root of P_0
and of infinity, every attribute of the ``fuchs_check`` report, the
Riemann symbol of the Fuchsian ones, the pullback
z = 1/zeta and ``undeform`` of the deformed ones: the removed points and
the antecedent, or the error it raises (also with the first stage's
points as explicit targets on the second stage).  A few hand-picked
``undeform`` cases are pinned beside them: a logarithmic integer gap
that is not removable, a second stage that only inverts with a
nonconstant content multiplier, and a constant-coefficient equation.
The third-order family at wide exponent gaps at 1 pins the apparency
verdict of every singular point and a digest of every Frobenius series
there.  Any change to the arithmetic kernels under
these functions must leave the dump unchanged.

Regenerate the file (only for a deliberate change of output) with
``PYTHONPATH=src python tests/test_golden_dump.py --write``.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from apparent import (
    INFINITY,
    ApparentError,
    IrregularPointError,
    ThirdOrderParams,
    classify_point,
    confluent_heun,
    deform_iter,
    frobenius_series,
    fuchs_check,
    general_heun,
    indicial_exponents,
    indicial_polynomial,
    is_apparent,
    make_ode,
    moebius_transform,
    multi_heun,
    rational_roots,
    riemann_symbol,
    third_order_example,
    undeform,
)

from _gen import (
    LOG_GAP_PARAMS,
    README_HEUN_PARAMS,
    TWO_STAGE_PARAMS,
    confluent_params,
    heun_params,
    multi_params,
    planted_roots_poly,
    third_params,
)

GOLDEN = Path(__file__).with_name("data") / "golden_local.json"
DRAWS = 2


def poly(p):
    return [str(c) for c in p.coeffs]


def ode_dump(ode):
    return [poly(p) for p in ode.coeffs]


def point_dump(ode, point):
    try:
        indicial = poly(indicial_polynomial(ode, point))
    except IrregularPointError:
        indicial = None
    sp = classify_point(ode, point)
    return {
        "location": str(sp.location),
        "indicial": indicial,
        "kind": str(sp.kind),
        "exponents": None if sp.exponents is None else [str(e) for e in sp.exponents],
        "residual": None if sp.residual is None else poly(sp.residual),
    }


def symbol_dump(ode):
    sym = riemann_symbol(ode)
    return {
        "columns": [
            [str(c.location), [str(e) for e in c.exponents],
             None if c.residual is None else poly(c.residual)]
            for c in sym.columns
        ],
        "extra": [[str(loc), role] for loc, role in sym.apparent_params],
    }


FUCHS_FIELDS = (
    "is_fuchsian", "points", "num_singular", "exponent_sum", "expected_sum",
    "identity_holds", "unresolved_factor", "complete",
)


def fuchs_dump(ode):
    rep = fuchs_check(ode)
    return {name: str(getattr(rep, name)) for name in FUCHS_FIELDS}


def equation_dump(ode, fuchsian):
    points = [r for r, _m in rational_roots(ode.leading)[0]] + [INFINITY]
    return {
        "ode": ode_dump(ode),
        "points": [point_dump(ode, p) for p in points],
        "fuchs": fuchs_dump(ode),
        "riemann": symbol_dump(ode) if fuchsian else None,
        "at_infinity": ode_dump(moebius_transform(ode, (0, 1, 1, 0))),
    }


def undeform_dump(ode, targets=None, multiplicities=None, max_slack=1):
    try:
        res = undeform(ode, targets, multiplicities=multiplicities, max_slack=max_slack)
    except ApparentError as exc:
        return {"error": exc.code, "message": exc.message,
                "details": {k: str(v) for k, v in sorted(exc.details.items())}}
    return {
        "removed_points": [str(q) for q in res.removed_points],
        # the pinned layout: 0 free parameters, as the apparent/v1 report
        # writes them, and the antecedent as the only solution
        "free_parameters": 0,
        "solutions": [ode_dump(res.ode)],
    }


def special_undeform_cases():
    log_gap = general_heun(LOG_GAP_PARAMS)
    two_stage = deform_iter(general_heun(TWO_STAGE_PARAMS), 2)[-1].ode
    constant = make_ode([[1], [0], [1]])
    return {
        "log_gap": undeform_dump(log_gap, [Fraction(0)]),
        "two_stage_slack0": undeform_dump(two_stage, max_slack=0),
        "two_stage_slack1": undeform_dump(two_stage),
        "constant_slack1": undeform_dump(constant, [0], [1]),
        "constant_slack2": undeform_dump(constant, [0], [1], max_slack=2),
    }


ROOT_STAGES = 24


def roots_dump(p):
    """The rational roots of p with multiplicities, and a digest of the residual."""
    roots, residual = rational_roots(p)
    return {
        "roots": [[str(r), m] for r, m in roots],
        "residual_sha256": hashlib.sha256(" ".join(poly(residual)).encode()).hexdigest(),
    }


def root_search_dump():
    """Root searches on growing coefficients: every stage of a long
    deform chain, and one high-degree polynomial with planted roots."""
    stages = [
        {
            "leading": roots_dump(res.ode.leading),
            "trailing": roots_dump(res.ode.coeffs[-1]),
            "new_apparent": [[str(q), gap] for q, gap in res.new_apparent],
        }
        for res in deform_iter(general_heun(README_HEUN_PARAMS), ROOT_STAGES)
    ]
    planted = roots_dump(planted_roots_poly(random.Random("golden root search"), 116, 120))
    return {"deform_stages": stages, "planted_degree_120": planted}


WIDE_GAP_THETA2 = (49, 199, 799)


def hexfrac(x):
    """x in hex: these coefficients pass the int/str digit limit in decimal."""
    return f"{x.numerator:x}/{x.denominator:x}"


def series_digest(sol):
    text = json.dumps([[hexfrac(c) for c in sol.coeffs],
                       [[m, hexfrac(v)] for m, v in sol.obstructions]])
    return hashlib.sha256(text.encode()).hexdigest()


def wide_gap_dump():
    """third_order_example with exponents {0, 1, 2 + theta2} at 1: the
    verdict at every singular point, and a digest of the series from
    every rational exponent, summed 3 terms past the widest integer gap
    above it."""
    out = {}
    for theta2 in WIDE_GAP_THETA2:
        ode = third_order_example(ThirdOrderParams(
            t=3, alpha=Fraction(1, 3), beta=Fraction(2, 5), theta2=theta2,
            theta3=Fraction(1, 7), kappa=Fraction(1, 2), q=Fraction(1, 11)))
        points = {}
        for point in [r for r, _m in rational_roots(ode.leading)[0]] + [INFINITY]:
            v = is_apparent(ode, point)
            exps = indicial_exponents(ode, point).exponents
            series = {}
            for rho in sorted(set(exps)):
                reach = max(int(e - rho) for e in exps if (e - rho).denominator == 1 and e >= rho)
                series[str(rho)] = series_digest(frobenius_series(ode, point, rho, reach + 3))
            points[str(point)] = {
                "verdict": [v.is_apparent, [str(e) for e in v.exponents],
                            v.failed_condition, v.holomorphic_dim],
                "series": series,
            }
        out[f"theta2={theta2}"] = points
    return out


def equations():
    """(name, equation, Fuchsian?) for every pinned base equation."""
    rng = random.Random("golden local analysis")
    out = []
    for i in range(DRAWS):
        out.append((f"general{i}", general_heun(heun_params(rng)), True))
        out.append((f"multi5_{i}", multi_heun(multi_params(rng, 5)), True))
        out.append((f"third{i}", third_order_example(third_params(rng)), True))
        out.append((f"confluent{i}", confluent_heun(confluent_params(rng)), False))
    return out


def dump() -> str:
    entries = {}
    for name, ode, fuchsian in equations():
        d, d2 = deform_iter(ode, 2)
        created = [q for q, _gap in d.new_apparent]
        entries[name] = {
            "base": equation_dump(ode, fuchsian),
            "deformed": equation_dump(d.ode, fuchsian),
            "undeformed": ode_dump(undeform(d.ode).ode),
            "undeform": undeform_dump(d.ode),
            "undeform_stage2": undeform_dump(d2.ode, created, [1] * len(created)),
        }
    entries["root_search"] = root_search_dump()
    entries["undeform_cases"] = special_undeform_cases()
    # the key sorts first, so adding it added lines to the dump and changed none
    entries["apparency_at_wide_gaps"] = wide_gap_dump()
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"


def test_local_analysis_matches_golden_dump():
    assert dump() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_dump.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump(), encoding="utf-8")

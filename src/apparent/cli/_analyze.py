"""The analyze and riemann subcommands."""

from __future__ import annotations

from .. import odemodel
from . import ode_json, parse_ode, poly_json, read_json_input, report
from ._analysis import analysis_payload, check_exponents, finite_candidates, text_analysis


def cmd_analyze(args) -> dict:
    ode = parse_ode(read_json_input(args.input))
    return report("analyze", analysis_payload(ode))


text_analyze = text_analysis


def cmd_riemann(args) -> dict:
    ode = parse_ode(read_json_input(args.input))
    check_exponents(ode, [*finite_candidates(ode), odemodel.INFINITY])
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


def text_riemann(rep):
    print(rep["pretty"])

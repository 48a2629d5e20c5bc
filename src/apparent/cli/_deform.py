"""The deform subcommand."""

from __future__ import annotations

from .. import transform
from . import ode_json, parse_int, parse_ode, poly_json, read_json_input, report

# The command line caps the stages, whose cost input length does not
# bound; the library takes any count.  The coefficients keep growing,
# and the cost of a stage with them (README times it).
_MAX_ITERATIONS = 32


def cmd_deform(args) -> dict:
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


def text_deform(rep):
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

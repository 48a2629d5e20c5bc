"""The heun subcommand."""

from __future__ import annotations

import typing
from fractions import Fraction

from .. import heun
from . import _FAMILIES, UsageError, parse_frac, read_json_input, report
from ._analysis import analysis_payload, text_analysis


def cmd_heun(args) -> dict:
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


text_heun = text_analysis

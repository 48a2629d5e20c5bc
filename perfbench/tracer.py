"""Span tracing at the package's layer boundaries, from outside the package.

Each boundary is a public function (or the ``RatPoly.shifted`` method)
of one ``apparent`` module.  Installing the tracer replaces that object
in every ``apparent.*`` module namespace that binds it, so calls made
through ``from .polyrat import rational_roots`` are caught as well as
calls through ``polyrat.rational_roots``.  Nothing under ``src/`` is
edited; ``uninstall`` puts every original back.

A span records its name, start, end, parent span and the op it belongs
to.  Self time is a span's duration minus the time its child spans
cover.  Spans stay in memory and are written out only when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute) pairs; "RatPoly.shifted" names a method on a class.
# polyrat.as_fraction is public but left out: RatPoly.__init__ calls it
# once per coefficient, and wrapping it would bury every other number
# under tracing overhead.
BOUNDARIES = {
    "polyrat": (
        "rational_roots", "RatPoly.shifted", "radical", "exact_div",
        "poly_gcd", "poly_derivative", "root_multiplicity",
    ),
    "odemodel": (
        "make_ode", "moebius_transform", "singular_points", "fuchs_check",
        "riemann_symbol", "leading_residual",
    ),
    "frobenius": (
        "classify_point", "indicial_exponents", "indicial_polynomial",
        "is_apparent", "frobenius_series", "substitution_rows",
    ),
    "transform": ("deform", "deform_iter", "undeform"),
    "_linalg": ("nullspace_basis", "rref", "nullity"),
    "heun": ("general_heun", "multi_heun", "third_order_example", "confluent_heun"),
    "polymer": (
        "solve_spectrum", "wronskian_mismatch", "eigenfunction_samples",
        "polymer_ode", "polymer_deformed", "apparent_location",
    ),
}


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


def _matrix_shape(args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    return {"max_rows": len(matrix), "max_cols": ncols}


# per-boundary input statistics, kept as running maxima
_INPUT_STATS = {
    "polyrat.rational_roots": lambda args, kwargs: {"max_bits": _coeff_bits(args[0])},
    "linalg.nullspace_basis": _matrix_shape,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.maxima: dict[str, dict[str, int]] = {}
        self.op = -1
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = _INPUT_STATS.get(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        if stats is not None:
            self.maxima[name] = {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stats is not None:
                seen = self.maxima[name]
                for key, value in stats(args, kwargs).items():
                    if value > seen.get(key, -1):
                        seen[key] = value
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((span_id, parent, self.op, name, start, end))

        return traced

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; raises if one of them no longer exists."""
        modules = [m for n, m in sys.modules.items() if n == "apparent" or n.startswith("apparent.")]
        for module, attrs in BOUNDARIES.items():
            mod = sys.modules[f"apparent.{module}"]
            for attr in attrs:
                # metric names must start with a letter: _linalg -> linalg
                name = f"{module.lstrip('_')}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(name, original))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        for name, seen in self.maxima.items():
            for key, value in seen.items():
                out[f"{name}.{key}"] = value
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")

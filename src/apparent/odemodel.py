"""Equation data model and global singularity analysis.

A LinearODE is the operator sum_{k=0..n} P_k(z) w^{(n-k)} applied to w,
canonical by construction: its constructor divides out the common
polynomial factor of the coefficients and scales the leading coefficient
polynomial P_0 monic, so no equation out of canonical form exists and
"equal up to a nonzero constant or polynomial factor" is plain equality.

The point at infinity is always analyzed through the pullback z = 1/zeta
rather than by separate degree-counting rules: one code path, one set of
conventions.  An exponent rho at infinity describes behavior w ~ z^(-rho).

Local analysis is memoized per equation instance: the local data of
each point (INFINITY included) and the rational roots of P_0 are
computed on first use and kept on the LinearODE for its lifetime, never
shared between instances and ignored by equality, hashing and repr.
An equation made by transform.deform also keeps that stage's clearing
factor there (_CLEARING), which the next deform of it divides out
first.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DegenerateLeadingError,
    NotAnODEError,
    NotFuchsianError,
    SingularMoebiusError,
)
from .polyrat import (
    RatPoly,
    _common_ints,
    _from_ints,
    _int_divexact,
    _int_gcd,
    _list_addmul,
    _list_mul,
    _rational_roots,
    _scaled,
    as_fraction,
    rational_roots,
)


class _InfinityType:
    """Singleton marker for the point at infinity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"

    def __str__(self):
        return "inf"


INFINITY = _InfinityType()


class PointKind(str, Enum):
    ORDINARY = "Ordinary"
    REGULAR = "RegularSingular"
    IRREGULAR = "IrregularSingular"
    APPARENT = "ApparentSingular"

    def __str__(self):
        return self.value


class LinearODE:
    """Linear ODE sum P_k(z) w^{(n-k)} = 0, canonical by construction.

    LinearODE(coeffs) takes P_0, ..., P_n (RatPolys or coefficient
    lists; n >= 1, P_0 nonzero) and keeps them as coeffs in canonical
    form: their common polynomial factor divided out, then scaled so
    that P_0 is monic.  Immutable: equality and hashing go by coeffs
    alone.
    """

    def __init__(self, coeffs):
        polys = [c if isinstance(c, RatPoly) else RatPoly(c) for c in coeffs]
        if len(polys) < 2:
            raise NotAnODEError("an ODE needs at least two coefficient polynomials")
        if polys[0].is_zero:
            raise DegenerateLeadingError("leading coefficient polynomial is zero")
        # P_k = s_k I_k with I_k integer and primitive; the gcd G of the
        # I_k is the common factor, and P_k / G over the leading coefficient
        # of P_0 / G is s_k (I_k / G) / (s_0 lead(I_0 / G))
        prims = [p._form for p in polys]
        g = prims[0][0]
        for ints, _scale in prims[1:]:
            if len(g) == 1:
                break
            if ints:
                g = _int_gcd(g, ints)
        if len(g) > 1:
            prims = [(_int_divexact(ints, g), scale) for ints, scale in prims]
        lead = prims[0][1] * prims[0][0][-1]
        coeffs = tuple(_scaled(ints, scale / lead) for ints, scale in prims)
        object.__setattr__(self, "coeffs", coeffs)
        # point (Fraction or INFINITY) -> frobenius._LocalData; _LEADING_ROOTS -> roots of P_0;
        # _CLEARING -> the clearing factor of the deform that made this equation
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> RatPoly:
        return self.coeffs[0]

    @property
    def degree_convention(self) -> bool:
        """True when deg P_0 is maximal among the P_k and exceeds the
        order n (the regularity-at-infinity degree pattern of the
        all-singularities-regular families; confluent equations break
        it and are still accepted)."""
        d0 = self.leading.degree
        return d0 > self.order and all(p.degree <= d0 for p in self.coeffs)

    def __repr__(self):
        inner = ", ".join(p.pretty() for p in self.coeffs)
        return f"LinearODE([{inner}])"


class SingularPoint(NamedTuple):
    """Classified point: location, kind, and exponents when defined.

    exponents are present exactly for the regular-singular and apparent
    kinds, and list the rational ones; residual is the monic factor of
    the indicial polynomial holding the others, None when there are none.
    """

    location: Fraction | _InfinityType
    kind: PointKind
    exponents: tuple[Fraction, ...] | None = None
    residual: RatPoly | None = None


class RiemannSymbol(NamedTuple):
    """Singular points with exponents, plus the extra-location column.

    columns holds one frobenius.IndicialExponents per singular point:
    its location, rational exponents and the monic factor holding the
    non-rational ones (residual, None when every exponent is rational).
    apparent_params lists (location, role): role "apparent" for genuine
    apparent singular points, role "accessory" for zeros of P_n that are
    ordinary points of the equation (they become apparent under the
    derivative transform).
    """

    columns: tuple[frobenius.IndicialExponents, ...]  # not imported: frobenius imports this module
    apparent_params: tuple[tuple[Fraction | _InfinityType, str], ...]

    def pretty(self) -> str:
        """Matrix-style text layout: locations on top, exponents below."""
        cells: list[list[str]] = []
        for col in self.columns:
            body = [str(e) for e in col.exponents]
            if col.residual is not None:
                body.append(f"roots of {col.residual.pretty('s')}")
            cells.append([str(col.location)] + body)
        if not cells:
            cells = [["-"]]
        extra = [f"{loc} ({role})" for loc, role in self.apparent_params]
        height = max(len(c) for c in cells)
        widths = [max(len(s) for s in c) for c in cells]
        lines = []
        for row in range(height):
            entries = [
                (c[row] if row < len(c) else "").ljust(w)
                for c, w in zip(cells, widths)
            ]
            body = "  ".join(entries).rstrip()
            if row == 0:
                tail = ("  | " + ", ".join(extra)) if extra else ""
                lines.append(f"P(  {body}{tail}  ; z )")
            else:
                lines.append(f"    {body}")
        return "\n".join(lines)


class FuchsReport(NamedTuple):
    """Outcome of the global regularity and exponent-sum checks.

    exponent_sum is the sum of all characteristic exponents over the s
    singular points (infinity included when singular), computed from the
    indicial polynomials by Vieta so irrational exponents contribute
    exactly; expected_sum = (s-2) n(n-1)/2.  Both are None unless the
    equation is Fuchsian.  unresolved_factor is the non-rational factor
    of P_0 when its roots could not be enumerated (None when every root
    is rational, as leading_residual gives it); the report then covers
    only the enumerated points.  num_singular, complete and
    identity_holds are derived from these fields.
    """

    is_fuchsian: bool
    points: tuple[SingularPoint, ...]
    exponent_sum: Fraction | None
    expected_sum: Fraction | None
    unresolved_factor: RatPoly | None

    @property
    def num_singular(self) -> int:
        return len(self.points)

    @property
    def complete(self) -> bool:
        return self.unresolved_factor is None

    @property
    def identity_holds(self) -> bool:
        return self.exponent_sum is not None and self.exponent_sum == self.expected_sum


def make_ode(coeffs) -> LinearODE:
    """The canonical equation of a coefficient list [P_0 .. P_n].

    The same as LinearODE(coeffs), which validates and canonicalizes.
    """
    return LinearODE(coeffs)


_LEADING_ROOTS = "leading roots"
_CLEARING = "clearing factor"


def _leading_roots(ode: LinearODE) -> tuple[tuple[tuple[Fraction, int], ...], RatPoly | None]:
    """rational_roots(P_0) as a tuple, the residual None when it is
    constant; computed once per equation."""
    found = ode._memo.get(_LEADING_ROOTS)
    if found is None:
        roots, residual = rational_roots(ode.leading)
        found = ode._memo[_LEADING_ROOTS] = (
            tuple(roots), residual if residual.degree > 0 else None)
    return found


def _accessory_roots(ode: LinearODE, squarefree: RatPoly | None = None) -> list[tuple[Fraction, int]]:
    """Rational roots (with multiplicities) of P_n at which P_0 does not vanish.

    These ordinary points become apparent under differentiation (see
    transform.deform).  squarefree, when given, is radical(P_n), and the
    root search starts from it instead of computing it again.
    """
    trailing = ode.coeffs[-1]
    if trailing.degree <= 0:
        return []
    if squarefree is None:
        roots = rational_roots(trailing)[0]
    else:
        roots = _rational_roots(trailing._form[0], squarefree._form[0])[0]
    p0 = ode.leading
    return [(r, m) for r, m in roots if p0(r) != 0]


def leading_residual(ode: LinearODE) -> RatPoly | None:
    """Monic factor of P_0 carrying the non-rational roots, None when
    every root of P_0 is rational."""
    return _leading_roots(ode)[1]


def moebius_transform(ode: LinearODE, m) -> LinearODE:
    """Change of variable z = (a zeta + b)/(c zeta + d), ad - bc != 0.

    With c = 0 the map is z = b/d + (a/d) zeta, else it is
    z = a/c + mu/(zeta + d/c) with mu = -(ad - bc)/c^2, so it is composed
    of Taylor shifts (RatPoly.shifted), a scaling and the Lah-number
    inversion, each skipped when it is the identity: z = 1/zeta is the
    inversion alone.  make_ode canonicalizes the result.
    """
    a, b, c, d = (as_fraction(v) for v in m)
    det = a * d - b * c
    if det == 0:
        raise SingularMoebiusError("Moebius matrix has zero determinant")
    if c == 0:
        return make_ode(_rescaled(_translated(ode.coeffs, b / d), a / d))
    polys = _rescaled(_translated(ode.coeffs, a / c), -det / (c * c))
    return make_ode(_translated(_inverted(polys), d / c))


def _translated(polys, shift: Fraction):
    """Pullback z = y + shift: each P_k(y + shift)."""
    return polys if shift == 0 else [p.shifted(shift) for p in polys]


def _rescaled(polys, mu: Fraction):
    """Pullback z = mu y: d/dz = d/dy / mu, so P_k becomes P_k(mu y) mu^-(n-k)."""
    n = len(polys) - 1
    return polys if mu == 1 else [
        RatPoly([x * mu ** (i + k - n) for i, x in enumerate(p.coeffs)])
        for k, p in enumerate(polys)
    ]


def _inverted(polys) -> list[RatPoly]:
    """Pullback z = 1/zeta, on integer coefficients over the common unit
    of the coefficients' contents.

    d/dz = -zeta^2 d/dzeta, and (zeta^2 d/dzeta)^m = sum_{j=1..m} L(m, j)
    zeta^(m+j) d^j/dzeta^j with the unsigned Lah numbers
    L(m, j) = C(m-1, j-1) m!/j!; zeta^D P_k(1/zeta), D = max deg P_k, is
    the reversed coefficient list of P_k padded to degree D.
    """
    n = len(polys) - 1
    big_d = max(p.degree for p in polys)
    unit, lists = _common_ints(polys)
    out = [[0] * (big_d + n + j + 1) for j in range(n, -1, -1)]  # out[n - j]: d^j/dzeta^j
    for k, (p, ints) in enumerate(zip(polys, lists)):
        m = n - k
        rev = ints[::-1]
        for j in range(min(m, 1), m + 1):
            lah = (-1) ** m * math.comb(m - 1, j - 1) * math.perm(m, m - j) if m else 1
            acc = out[n - j]
            for i, y in enumerate(rev, m + j + big_d - p.degree):
                acc[i] += lah * y
    return [_from_ints(acc, unit) for acc in out]


def _stirling_rows(n: int) -> list[list[int]]:
    """Rows m = 0..n of the signed Stirling numbers of the first kind: row
    m lists the coefficients, ascending in s, of s(s-1)...(s-m+1), the
    product of row m - 1 and s - (m - 1)."""
    rows = [[1]]
    for m in range(n):
        rows.append(_list_mul(rows[-1], [-m, 1]))
    return rows


def _recurrence(coeffs: tuple[RatPoly, ...], point: Fraction):
    """The coefficient recurrence of the equation with coefficients
    (P_0, ..., P_n) at a finite point (conventions in frobenius).

    Returns v0 = ord T_0, j0, jmax and unit, rows: C_j(s) = unit * rows[j - j0],
    each row n + 1 integers ascending in s.  C_j = sum_k t_{k,j-k} S_{n-k} is
    built on integer lists: S_m is row m of the Stirling table, and the T_k
    are put over the common unit of their contents.
    """
    n = len(coeffs) - 1
    shifted = [p.shifted(point) for p in coeffs]
    spans = [(t.valuation() + k, t.degree + k) for k, t in enumerate(shifted) if not t.is_zero]
    j0, jmax = min(lo for lo, _hi in spans), max(hi for _lo, hi in spans)
    stirling = _stirling_rows(n)
    unit, tables = _common_ints(shifted)
    rows = []
    for j in range(j0, jmax + 1):
        acc = [0] * (n + 1)
        for k, tk in enumerate(tables):
            if 0 <= j - k < len(tk) and tk[j - k]:
                _list_addmul(acc, tk[j - k], stirling[n - k])
        rows.append(acc)
    return shifted[0].valuation(), j0, jmax, unit, rows


def singular_points(ode: LinearODE) -> list[SingularPoint]:
    """Every rational singular location plus infinity, classified.

    Ordinary points are omitted.  Finite candidates are the rational
    roots of P_0; a non-rational factor of P_0 (see leading_residual)
    hides further singular points this scan cannot enumerate.
    """
    from . import frobenius

    locations = [r for r, _m in _leading_roots(ode)[0]] + [INFINITY]
    points = [frobenius.classify_point(ode, x) for x in locations]
    return [sp for sp in points if sp.kind is not PointKind.ORDINARY]


def _exponent_sum_at(ode: LinearODE, location) -> Fraction:
    """Sum of the n indicial roots at a regular point, by Vieta (degree n >= 1)."""
    from . import frobenius

    ind = frobenius.indicial_polynomial(ode, location)
    return Fraction(-ind._form[0][-2], ind._form[0][-1])


def fuchs_check(ode: LinearODE) -> FuchsReport:
    """Global regularity plus the exponent-sum identity.

    For an order-n equation with s singular points (infinity counted
    when singular), the sum of all characteristic exponents of a
    Fuchsian equation equals (s-2) n(n-1)/2.  The sum is taken from the
    indicial polynomials' subleading coefficients, so irrational
    exponents are handled exactly.
    """
    points = tuple(singular_points(ode))
    unresolved = _leading_roots(ode)[1]
    is_fuchsian = unresolved is None and all(
        p.kind in (PointKind.REGULAR, PointKind.APPARENT) for p in points
    )
    total = expected = None
    if is_fuchsian:
        n = ode.order
        total = sum((_exponent_sum_at(ode, p.location) for p in points), Fraction(0))
        expected = Fraction((len(points) - 2) * n * (n - 1), 2)
    return FuchsReport(is_fuchsian, points, total, expected, unresolved)


def riemann_symbol(ode: LinearODE) -> RiemannSymbol:
    """Generalized Riemann symbol of a Fuchsian equation.

    One column per singular point with its n exponents; the extra
    column lists apparent points and the accessory zeros of P_n (zeros
    that are ordinary points of the equation).  Raises NotFuchsian when
    any enumerated point is irregular or P_0 has non-rational roots.
    """
    from . import frobenius

    residual = _leading_roots(ode)[1]
    if residual is not None:
        raise NotFuchsianError(
            "leading coefficient has non-rational roots; cannot tabulate",
            unresolved_factor=residual.pretty(),
        )
    points = singular_points(ode)
    for p in points:
        if p.kind is PointKind.IRREGULAR:
            raise NotFuchsianError(
                f"irregular singular point at {p.location}", location=str(p.location)
            )
    columns = tuple(frobenius.indicial_exponents(ode, p.location) for p in points)
    extra = [(r, "accessory") for r, _m in _accessory_roots(ode)]
    extra += [(p.location, "apparent") for p in points if p.kind is PointKind.APPARENT]
    return RiemannSymbol(columns, tuple(extra))

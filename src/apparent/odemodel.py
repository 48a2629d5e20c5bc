"""Equation data model and global singularity analysis.

A LinearODE is the operator sum_{k=0..n} P_k(z) w^{(n-k)} applied to w,
held in canonical form so that "equal up to a nonzero constant factor"
collapses to plain equality: the coefficients share no common polynomial
factor and the leading coefficient polynomial P_0 is monic.

The point at infinity is always analyzed through the pullback z = 1/zeta
rather than by separate degree-counting rules: one code path, one set of
conventions.  An exponent rho at infinity describes behavior w ~ z^(-rho).

Local analysis is memoized per equation instance: the local data of
each point (INFINITY included) and the rational roots of P_0 are
computed on first use and kept on the LinearODE for its lifetime, never
shared between instances and ignored by equality, hashing and repr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import (
    DegenerateLeadingError,
    NotAnODEError,
    NotFuchsianError,
    SingularMoebiusError,
)
from .polyrat import (
    RatPoly,
    _int_divexact,
    _int_gcd,
    _list_addmul,
    _list_mul,
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


@dataclass(frozen=True)
class LinearODE:
    """Canonical-form linear ODE sum P_k(z) w^{(n-k)} = 0.

    coeffs: (P_0, ..., P_n) with P_0 nonzero and monic, no common
    polynomial factor among all coefficients.
    degree_convention: True when deg P_0 is maximal among the P_k and
    exceeds the order n (the regularity-at-infinity degree pattern of
    the all-singularities-regular families; confluent equations break
    it and are still accepted).
    """

    coeffs: tuple[RatPoly, ...]
    degree_convention: bool = field(compare=False, default=False)
    # point (Fraction or INFINITY) -> frobenius._LocalData; _LEADING_ROOTS -> roots of P_0
    _memo: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> RatPoly:
        return self.coeffs[0]

    def __repr__(self):
        inner = ", ".join(p.pretty() for p in self.coeffs)
        return f"LinearODE([{inner}])"


@dataclass(frozen=True)
class SingularPoint:
    """Classified point: location, kind, and exponents when defined.

    exponents are present exactly for the regular-singular and apparent
    kinds.  residual is the monic non-rational factor of the indicial
    polynomial when some exponents are irrational: exponents then lists
    only the rational ones, and the residual holds the non-rational
    factor.
    """

    location: Fraction | _InfinityType
    kind: PointKind
    exponents: tuple[Fraction, ...] | None = None
    residual: RatPoly | None = None


@dataclass(frozen=True)
class RiemannColumn:
    location: Fraction | _InfinityType
    exponents: tuple[Fraction, ...]
    residual: RatPoly | None = None


@dataclass(frozen=True)
class RiemannSymbol:
    """Singular points with exponents, plus the extra-location column.

    apparent_params lists (location, role): role "apparent" for genuine
    apparent singular points, role "accessory" for zeros of P_n that are
    ordinary points of the equation (they become apparent under the
    derivative transform).
    """

    columns: tuple[RiemannColumn, ...]
    apparent_params: tuple[tuple[Fraction | _InfinityType, str], ...]

    def pretty(self) -> str:
        """Matrix-style text layout: locations on top, exponents below."""
        cells: list[list[str]] = []
        for col in self.columns:
            body = [str(e) for e in col.exponents]
            if col.residual is not None and col.residual.degree > 0:
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


@dataclass(frozen=True)
class FuchsReport:
    """Outcome of the global regularity and exponent-sum checks.

    exponent_sum is the sum of all characteristic exponents over the s
    singular points (infinity included when singular), computed from the
    indicial polynomials by Vieta so irrational exponents contribute
    exactly.  expected_sum = (s-2) n(n-1)/2.  complete is False when
    P_0 has a non-rational factor whose roots could not be enumerated;
    the report then covers only the enumerated points.
    """

    is_fuchsian: bool
    points: tuple[SingularPoint, ...]
    num_singular: int
    exponent_sum: Fraction | None
    expected_sum: Fraction | None
    identity_holds: bool
    unresolved_factor: RatPoly | None
    complete: bool


def make_ode(coeffs) -> LinearODE:
    """Validate and canonicalize a coefficient list [P_0 .. P_n].

    Canonical form: divide out the common polynomial factor of all
    coefficients, then scale so P_0 is monic.  The degree-convention
    flag records whether deg P_0 is maximal and exceeds the order.
    """
    polys = [c if isinstance(c, RatPoly) else RatPoly(c) for c in coeffs]
    if len(polys) < 2:
        raise NotAnODEError("an ODE needs at least two coefficient polynomials")
    if polys[0].is_zero:
        raise DegenerateLeadingError("leading coefficient polynomial is zero")
    # P_k = s_k I_k with I_k integer and primitive; the gcd G of the
    # I_k is the common factor, and P_k / G over the leading coefficient
    # of P_0 / G is s_k (I_k / G) / (s_0 lead(I_0 / G))
    prims = [p.integer_primitive() for p in polys]
    g = prims[0][0]
    for ints, _scale in prims[1:]:
        if len(g) == 1:
            break
        if ints:
            g = _int_gcd(g, ints)
    if len(g) > 1:
        prims = [(_int_divexact(ints, g), scale) for ints, scale in prims]
    lead = prims[0][1] * prims[0][0][-1]
    polys = [_scaled(ints, scale / lead) for ints, scale in prims]
    n = len(polys) - 1
    d0 = polys[0].degree
    convention = d0 > n and all(p.degree <= d0 for p in polys)
    return LinearODE(tuple(polys), convention)


_LEADING_ROOTS = "leading roots"


def _leading_roots(ode: LinearODE) -> tuple[tuple[tuple[Fraction, int], ...], RatPoly]:
    """rational_roots(P_0) as a tuple, computed once per equation."""
    found = ode._memo.get(_LEADING_ROOTS)
    if found is None:
        roots, residual = rational_roots(ode.leading)
        found = ode._memo[_LEADING_ROOTS] = (tuple(roots), residual)
    return found


def _accessory_roots(ode: LinearODE) -> list[tuple[Fraction, int]]:
    """Rational roots (with multiplicities) of P_n at which P_0 does not vanish.

    These ordinary points become apparent under differentiation (see
    transform.deform).
    """
    trailing = ode.coeffs[-1]
    if trailing.is_zero:
        return []
    p0 = ode.leading
    return [(r, m) for r, m in rational_roots(trailing)[0] if p0(r) != 0]


def leading_residual(ode: LinearODE) -> RatPoly:
    """Monic factor of P_0 carrying the non-rational roots (1 if none)."""
    return _leading_roots(ode)[1]


def moebius_transform(ode: LinearODE, m) -> LinearODE:
    """Change of variable z = (a zeta + b)/(c zeta + d), ad - bc != 0.

    With r(zeta) = (c zeta + d)^2 / (ad - bc) the derivative transforms
    as d/dz = r d/dzeta, so the operator pulls back through the
    expansion (r d/dzeta)^m = sum_j c_{m,j} d^j/dzeta^j with polynomial
    c_{m,j} given by c_{m,j} = r (c_{m-1,j-1} + c_{m-1,j}').  Composed
    coefficients P_k(z(zeta)) are cleared of their (c zeta + d) powers,
    and the result is canonicalized.

    The work is done on integer coefficient lists, skipping zero
    entries.  The matrix is projective, so it is scaled to integers;
    the rows use (c zeta + d)^2 in place of r, which multiplies c_{m,j}
    by det^m, and the composed P_k carry det^k to balance it, so every
    new coefficient gains the same factor det^n.  The equation is
    scaled to integer coefficients too.  make_ode removes both
    constants, so the canonical result is the same as over Q.
    """
    entries = [as_fraction(v) for v in m]
    scale = math.lcm(*[v.denominator for v in entries])
    a, b, c, d = (int(v * scale) for v in entries)
    det = a * d - b * c
    if det == 0:
        raise SingularMoebiusError("Moebius matrix has zero determinant")
    n = ode.order
    num = [b, a] if a else [b]
    den = [d, c] if c else [d]
    r = _list_mul(den, den)

    # rows[m][j] = det^m c_{m,j}; row 0 is the identity operator
    rows = [[[1]]]
    for _ in range(n):
        prev = rows[-1]
        cur = []
        for j in range(len(prev) + 1):
            acc = list(prev[j - 1]) if j >= 1 else []
            if j < len(prev):
                _list_addmul(acc, 1, [i * v for i, v in enumerate(prev[j])][1:])
            cur.append(_list_mul(r, acc))
        rows.append(cur)

    # P_k(z(zeta)) * den^D is polynomial for D = max deg P_k
    big_d = max(p.degree for p in ode.coeffs if not p.is_zero)
    num_pows = [[1]]
    den_pows = [[1]]
    for _ in range(big_d):
        num_pows.append(_list_mul(num_pows[-1], num))
        den_pows.append(_list_mul(den_pows[-1], den))
    basis = [_list_mul(num_pows[i], den_pows[big_d - i]) for i in range(big_d + 1)]
    common = math.lcm(*[x.denominator for p in ode.coeffs for x in p.coeffs])

    composed = []
    det_k = 1
    for p in ode.coeffs:
        acc = []
        for i, x in enumerate(p.coeffs):
            if x:
                _list_addmul(acc, det_k * x.numerator * (common // x.denominator), basis[i])
        composed.append(acc)
        det_k *= det
    new_coeffs = []
    for j in range(n, -1, -1):
        acc = []
        for k in range(n + 1):
            row = rows[n - k]
            if j < len(row) and composed[k]:
                _list_addmul(acc, 1, _list_mul(composed[k], row[j]))
        new_coeffs.append(acc)
    return make_ode(new_coeffs)


def singular_points(ode: LinearODE) -> list[SingularPoint]:
    """Every rational singular location plus infinity, classified.

    Ordinary points are omitted.  Finite candidates are the rational
    roots of P_0; a non-rational factor of P_0 (see leading_residual)
    hides further singular points this scan cannot enumerate.
    """
    from . import frobenius

    out = []
    for r, _m in _leading_roots(ode)[0]:
        sp = frobenius.classify_point(ode, r)
        if sp.kind is not PointKind.ORDINARY:
            out.append(sp)
    sp_inf = frobenius.classify_point(ode, INFINITY)
    if sp_inf.kind is not PointKind.ORDINARY:
        out.append(sp_inf)
    return out


def _exponent_sum_at(ode: LinearODE, location) -> Fraction:
    """Sum of the n indicial roots at a regular point, by Vieta."""
    from . import frobenius

    ind = frobenius.indicial_polynomial(ode, location)
    return -ind.coeffs[-2] / ind.coeffs[-1] if ind.degree >= 1 else Fraction(0)


def fuchs_check(ode: LinearODE) -> FuchsReport:
    """Global regularity plus the exponent-sum identity.

    For an order-n equation with s singular points (infinity counted
    when singular), the sum of all characteristic exponents of a
    Fuchsian equation equals (s-2) n(n-1)/2.  The sum is taken from the
    indicial polynomials' subleading coefficients, so irrational
    exponents are handled exactly.
    """
    points = tuple(singular_points(ode))
    residual = leading_residual(ode)
    complete = residual.degree <= 0
    is_fuchsian = complete and all(
        p.kind in (PointKind.REGULAR, PointKind.APPARENT) for p in points
    )
    n = ode.order
    s = len(points)
    if not is_fuchsian:
        return FuchsReport(
            is_fuchsian=False,
            points=points,
            num_singular=s,
            exponent_sum=None,
            expected_sum=None,
            identity_holds=False,
            unresolved_factor=None if complete else residual,
            complete=complete,
        )
    total = Fraction(0)
    for p in points:
        total += _exponent_sum_at(ode, p.location)
    expected = Fraction((s - 2) * n * (n - 1), 2)
    return FuchsReport(
        is_fuchsian=True,
        points=points,
        num_singular=s,
        exponent_sum=total,
        expected_sum=expected,
        identity_holds=total == expected,
        unresolved_factor=None,
        complete=True,
    )


def riemann_symbol(ode: LinearODE) -> RiemannSymbol:
    """Generalized Riemann symbol of a Fuchsian equation.

    One column per singular point with its n exponents; the extra
    column lists apparent points and the accessory zeros of P_n (zeros
    that are ordinary points of the equation).  Raises NotFuchsian when
    any enumerated point is irregular or P_0 has non-rational roots.
    """
    from . import frobenius

    residual = leading_residual(ode)
    if residual.degree > 0:
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
    columns = []
    for p in points:
        ind = frobenius.indicial_exponents(ode, p.location)
        columns.append(
            RiemannColumn(
                location=p.location,
                exponents=ind.exponents,
                residual=None if ind.complete else ind.residual,
            )
        )
    extra = [(r, "accessory") for r, _m in _accessory_roots(ode)]
    for p in points:
        if p.kind is PointKind.APPARENT:
            extra.append((p.location, "apparent"))
    return RiemannSymbol(tuple(columns), tuple(extra))

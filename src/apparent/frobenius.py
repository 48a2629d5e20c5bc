"""Local analysis at a point: indicial data, Frobenius series, and the
apparent-singularity decision procedure.

Conventions.  Recenter the equation at z_0 (zeta = z - z_0) and write
T_k for the shifted coefficient polynomials with entries t_{k,i}.  The
operator acts on zeta^s as

    sum_k T_k (zeta^s)^{(n-k)} = sum_{j >= j_0} C_j(s) zeta^{s - n + j},

    C_j(s) = sum_k t_{k, j-k} * s(s-1)...(s - (n-k) + 1),

where j_0 = min_k (ord T_k + k).  The point is ordinary or regular
singular exactly when j_0 = ord T_0; the indicial polynomial is then
C_{j_0}, of degree exactly n, and its roots are the characteristic
exponents.  A series w = sum a_M zeta^(rho+M) satisfies the coefficient
recurrence a_M C_{j_0}(rho+M) = -sum_{m<M} a_m C_{j_0+M-m}(rho+m).
odemodel._recurrence builds the C_j, for this module and for polymer.

The point at infinity is always handled by the pullback z = 1/zeta and
analysis at zeta = 0; an exponent rho there describes w ~ z^(-rho).

The local data of a point (indicial roots, recurrence table, apparency
verdict) is memoized on the LinearODE instance, built on first use and
kept as long as that equation lives; the public functions below run on
every call and share it, so infinity is pulled back once per equation.

Each point pays only for what is read of it (_LocalData): exponents in
closed form at an ordinary point or a simple root of P_0, the kind
deform creates; the table, n + 1 Taylor shifts, only for a series or at
a multiple root; the series on integers, with Fractions built only for
frobenius_series.  The verdict at a point whose exponents are distinct
nonnegative integers sums the recurrence up to the largest, E, on
integers of about E log E bits, so its cost grows about as E^2
(third_order_example at theta2 = 799: 0.02 s; at 9999: about 2.4 s).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import odemodel
from ._linalg import nullspace_basis
from .errors import (
    IrregularPointError,
    NotAnExponentError,
    NotSingularError,
)
from .odemodel import INFINITY, LinearODE, PointKind, SingularPoint, _InfinityType
from .polyrat import RatPoly, _from_ints, _list_addmul, as_fraction, rational_roots


class _LocalData:
    """Local data of one finite point; never mutated.

    At a simple root q of P_0 (v0 = ord_q P_0 = 1) the indicial
    polynomial is P_0'(q) S_n + P_1(q) S_{n-1} = P_0'(q) S_{n-1}(s)
    (s - n + 1 + P_1(q)/P_0'(q)), S_m the falling factorial
    s(s-1)...(s-m+1), so the exponents are 0..n-2 and
    n-1 - P_1(q)/P_0'(q) (Ince, *Ordinary Differential Equations*, 1926);
    at an ordinary point it is P_0(q) S_n.  Both are read off P_0 and P_1
    at q.  The recurrence table (cpolys[j - j0] = C_j,
    odemodel._recurrence) is built on first use: by a series, or by the
    regularity test at a multiple root.  It holds the coefficient tuple,
    not the equation, whose memo holds this record.
    """

    def __init__(self, ode: LinearODE, point: Fraction):
        self.n = ode.order
        self.coeffs, self.point = ode.coeffs, point
        # head: the first Taylor coefficient of P_0 at the point while v0 <= 1
        p0 = ode.leading
        self.head, self.v0 = p0(point), 0
        if not self.head:
            self.head = p0.derivative()(point)
            self.v0 = 1 if self.head else self._table[0]
        self.tail = ode.coeffs[1](point) if self.v0 == 1 else Fraction(0)  # P_1(q)

    @cached_property
    def _table(self):
        return odemodel._recurrence(self.coeffs, self.point)

    @property
    def j0(self) -> int:
        return self._table[1]

    @property
    def jmax(self) -> int:
        return self._table[2]

    @cached_property
    def cpolys(self) -> tuple[RatPoly, ...]:
        _v0, _j0, _jmax, unit, rows = self._table
        return tuple(_from_ints(list(row), unit) for row in rows)

    @property
    def is_regular(self) -> bool:
        # a pole of P_k / P_0 of order at most v0 <= 1 <= k is regular (Fuchs)
        return self.v0 <= 1 or self.j0 == self.v0

    @property
    def is_ordinary(self) -> bool:
        return self.v0 == 0

    @cached_property
    def indicial(self) -> RatPoly:
        if self.v0 > 1:
            return self.cpolys[0]
        # head S_n + tail S_{n-1}, on the integer Stirling rows of S_m
        a, b, falling = self.head, self.tail, odemodel._stirling_rows(self.n)
        ints = [a.numerator * b.denominator * c for c in falling[self.n]]
        _list_addmul(ints, b.numerator * a.denominator, falling[self.n - 1])
        return _from_ints(ints, Fraction(1, a.denominator * b.denominator))

    @cached_property
    def exponents(self) -> tuple[tuple[Fraction, ...], RatPoly | None]:
        """Rational indicial roots, ascending and repeated per
        multiplicity, and the monic factor holding the others (None
        when there are none)."""
        if self.v0 <= 1:
            ladder = [Fraction(i) for i in range(self.n - self.v0)]
            if self.v0:
                ladder.append(self.n - 1 - self.tail / self.head)
            return tuple(sorted(ladder)), None
        roots, residual = rational_roots(self.indicial)
        return (tuple(r for r, m in roots for _ in range(m)),
                residual if residual.degree > 0 else None)

    def series(self, rho: Fraction, top: int, cap: int):
        """Steps M = 0..top of the module's recurrence from zeta^rho,
        fraction-free: yields (a, d, blocked) with a_M = a / d, a an
        integer vector over the first `cap` free parameters opened up to
        offset M (later parameters are set to zero).

        A parameter opens wherever C_{j0}(rho+M) = 0, and blocked is then
        (row, weight): the right-hand side there is row * weight, an
        obstruction that must vanish for a log-free continuation (empty
        at M = 0); else blocked is None.  Every C_j shares the table's
        unit and, at rho + m = (u + m v) / v, the factor v^-n, so the
        steps read the integers h_j(m) = v^n C_j(rho + m) / unit.  The
        running denominator d_M is the product of the nonzero h_{j0}(m),
        m <= M; a_m, kept over d_m, reaches d_{M-1} through the product of
        those between m and M, a short integer.  A step multiplies long
        integers by short ones only and takes no gcd.
        """
        _v0, _j0, _jmax, unit, rows = self._table
        n, width = self.n, len(rows) - 1
        u, v = rho.numerator, rho.denominator
        vpow = [v ** (n - i) for i in range(n + 1)]
        d, window, opened = 1, [], 0  # window: (a_m over d_m, h(m)) for the last `width` m
        for m_idx in range(top + 1):
            x = u + m_idx * v
            xpow = [vp * x**i for i, vp in enumerate(vpow)]
            h = [sum(c * p for c, p in zip(row, xpow) if c) for row in rows]
            acc, between = [0] * opened, 1
            for back, (a, hm) in enumerate(reversed(window), 1):
                value = hm[back] * between
                if value:
                    for i, ai in enumerate(a):
                        acc[i] -= ai * value
                between *= hm[0] or 1
            if h[0]:
                d *= h[0]
                blocked = None
            else:
                blocked = acc, Fraction(unit.numerator, unit.denominator * vpow[0] * d)
                # a_M is free: 1 in a newly opened parameter, 0 in the others
                acc = [0] * opened + ([d] if opened < cap else [])
                opened = len(acc)
            yield acc, d, blocked
            window.append((acc, h))
            if len(window) > width:
                del window[0]

    @cached_property
    def verdict(self) -> ApparentVerdict:
        """Apparency decision at a regular singular point."""
        n = self.n
        exponents, residual = self.exponents
        if residual is not None:
            return ApparentVerdict(False, exponents, "non-rational exponent", None)
        if any(e.denominator != 1 for e in exponents):
            return ApparentVerdict(False, exponents, "non-integer exponent", None)
        if any(e < 0 for e in exponents):
            return ApparentVerdict(False, exponents, "negative exponent", None)
        if len(set(exponents)) != n:
            return ApparentVerdict(False, exponents, "repeated exponents", None)

        # Holomorphic dimension: a power series solution is pinned by its
        # jet a_0..a_E (E = max exponent), and the recurrence run from 0
        # opens one parameter and one obstruction row per exponent.  A
        # parameter opened early can cancel a later obstruction, so the
        # rows are reduced together rather than checked one by one.
        rows = []
        for _a, _d, blocked in self.series(Fraction(0), int(max(exponents)), n):
            if blocked:
                rows.append(blocked[0] + [0] * (n - len(blocked[0])))
        dim = len(nullspace_basis(rows, n))
        if dim == n:
            return ApparentVerdict(True, exponents, None, dim)
        return ApparentVerdict(False, exponents, "nonzero log obstruction", dim)


def _local(ode: LinearODE, point) -> tuple[_LocalData, object]:
    """Local data at a finite point or, via pullback, at infinity.

    Returns (data, reported_location).  The data is memoized on the
    equation, keyed by the location.
    """
    loc = INFINITY if isinstance(point, _InfinityType) else as_fraction(point)
    data = ode._memo.get(loc)
    if data is None:
        if loc is INFINITY:
            data = _LocalData(odemodel.moebius_transform(ode, (0, 1, 1, 0)), Fraction(0))
        else:
            data = _LocalData(ode, loc)
        ode._memo[loc] = data
    return data, loc


def _regular(ode: LinearODE, point) -> tuple[_LocalData, object]:
    """_local, raising IrregularPoint unless the point is ordinary or regular."""
    data, loc = _local(ode, point)
    if not data.is_regular:
        raise IrregularPointError(f"irregular singular point at {loc}")
    return data, loc


class IndicialExponents(NamedTuple):
    """Roots of the indicial polynomial at one point: one column of the
    generalized Riemann symbol.

    exponents: the rational roots, sorted ascending, repeated per
    multiplicity.  residual: monic factor holding the non-rational
    roots, None when there are none.  complete: True when all n
    exponents are listed in `exponents`.  The polynomial itself is
    indicial_polynomial at the same point.
    """

    location: object
    exponents: tuple[Fraction, ...]
    residual: RatPoly | None

    @property
    def complete(self) -> bool:
        return self.residual is None


class FrobeniusSolution(NamedTuple):
    """Truncated local series solution zeta^rho sum a_M zeta^M.

    a_0 = 1.  obstructions lists (offset, value) for every resonance
    offset M >= 1 where the recurrence denominator C_{j0}(rho+M)
    vanishes; the value is the right-hand side that must be zero for a
    log-free continuation.  Nonzero values mean the honest solution
    with this exponent needs a logarithm; by convention the free
    coefficient is set to zero and the attempt continues formally.
    """

    point: Fraction | _InfinityType
    exponent: Fraction
    coeffs: tuple[Fraction, ...]
    truncation: int
    obstructions: tuple[tuple[int, Fraction], ...]

    @property
    def log_free(self) -> bool:
        return all(v == 0 for _off, v in self.obstructions)


class ApparentVerdict(NamedTuple):
    """Outcome of the apparency test at a singular point.

    holomorphic_dim is the dimension of the space of holomorphic local
    solutions, the nullity of the obstruction rows of the series
    recurrence run from 0; the point is apparent exactly when it equals
    the order.
    """

    is_apparent: bool
    exponents: tuple[Fraction, ...]
    failed_condition: str | None
    holomorphic_dim: int | None


def indicial_polynomial(ode: LinearODE, point) -> RatPoly:
    """The degree-n indicial polynomial C_{j0}(s) at a regular point."""
    return _regular(ode, point)[0].indicial


def indicial_exponents(ode: LinearODE, point) -> IndicialExponents:
    """Characteristic exponents at an ordinary or regular singular point."""
    data, loc = _regular(ode, point)
    return IndicialExponents(loc, *data.exponents)


def frobenius_series(ode: LinearODE, point, exponent, n_terms: int) -> FrobeniusSolution:
    """Series coefficients a_0..a_N at a regular point, in 1/z at infinity.

    exponent must be a root of the indicial polynomial.  At each
    resonance the obstruction value is recorded; see FrobeniusSolution.
    """
    exponent = as_fraction(exponent)
    if n_terms < 1:
        raise ValueError("series needs at least one computed term")
    data, point = _regular(ode, point)
    ind = data.indicial
    if ind(exponent) != 0:
        raise NotAnExponentError(
            f"{exponent} is not an indicial root at {point}",
            indicial=ind.pretty("s"),
        )
    # carry only the a_0 = 1 parameter: later free coefficients are zero
    coeffs, obstructions = [], []
    for m, (a, d, blocked) in enumerate(data.series(exponent, n_terms, 1)):
        coeffs.append(Fraction(a[0], d))
        if blocked and m:
            row, weight = blocked
            obstructions.append((m, row[0] * weight))
    return FrobeniusSolution(
        point=point,
        exponent=exponent,
        coeffs=tuple(coeffs),
        truncation=n_terms,
        obstructions=tuple(obstructions),
    )


def substitution_rows(ode: LinearODE, sol: FrobeniusSolution, upto: int | None = None) -> list[Fraction]:
    """Residual rows of a truncated series pushed through the equation.

    Row t is the coefficient of zeta^(rho - n + j0 + t) of the image of
    the truncated series; rows 0..N vanish exactly for a log-free
    solution (rows above N involve missing coefficients and are not
    meaningful).
    """
    data, _loc = _local(ode, sol.point)
    width = data.jmax - data.j0
    top = sol.truncation if upto is None else upto
    rows = []
    for t in range(top + 1):
        acc = Fraction(0)
        for m in range(max(0, t - width), min(t, sol.truncation) + 1):
            cj = data.cpolys[t - m]
            if not cj.is_zero:
                acc += sol.coeffs[m] * cj(sol.exponent + m)
        rows.append(acc)
    return rows


def is_apparent(ode: LinearODE, point) -> ApparentVerdict:
    """Decide whether a singular point is apparent.

    Apparent means every local solution is holomorphic: all n exponents
    are distinct nonnegative integers and the holomorphic solution
    space has full dimension n.  Irregular points are rejected with
    IrregularPoint, ordinary points (which are regular) with NotSingular:
    the question is vacuous there.
    """
    data, loc = _regular(ode, point)
    if data.is_ordinary:
        raise NotSingularError(f"{loc} is an ordinary point")
    return data.verdict


def classify_point(ode: LinearODE, point) -> SingularPoint:
    """Full classification of one point (finite rational or infinity)."""
    data, loc = _local(ode, point)
    if data.is_ordinary:
        return SingularPoint(loc, PointKind.ORDINARY)
    if not data.is_regular:
        return SingularPoint(loc, PointKind.IRREGULAR)
    kind = PointKind.APPARENT if data.verdict.is_apparent else PointKind.REGULAR
    return SingularPoint(loc, kind, *data.exponents)

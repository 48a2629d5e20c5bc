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

The local data of a point (shifted tables, indicial roots, apparency
verdict) is memoized on the LinearODE instance, built on first use and
kept as long as that equation lives; the public functions below run on
every call and share it, so infinity is pulled back once per equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import odemodel
from ._linalg import nullspace_basis
from .errors import (
    IrregularPointError,
    NotAnExponentError,
    NotSingularError,
)
from .odemodel import INFINITY, LinearODE, PointKind, SingularPoint, _InfinityType
from .polyrat import RatPoly, _from_ints, as_fraction, rational_roots


class _LocalData:
    """Tables of one finite point, cpolys[j - j0] = C_j (odemodel._recurrence); never mutated."""

    def __init__(self, ode: LinearODE, point: Fraction):
        self.n = ode.order
        self.v0, self.j0, self.jmax, unit, rows = odemodel._recurrence(ode, point)
        self.cpolys: tuple[RatPoly, ...] = tuple(_from_ints(row, unit) for row in rows)

    @property
    def is_regular(self) -> bool:
        # covers ordinary points too: there j0 = v0 = 0
        return self.j0 == self.v0

    @property
    def is_ordinary(self) -> bool:
        return self.v0 == 0

    @property
    def indicial(self) -> RatPoly:
        return self.cpolys[0]

    @cached_property
    def exponents(self) -> tuple[tuple[Fraction, ...], RatPoly | None]:
        """Rational indicial roots, ascending and repeated per
        multiplicity, and the monic factor holding the others (None
        when there are none)."""
        roots, residual = rational_roots(self.indicial)
        return (tuple(r for r, m in roots for _ in range(m)),
                residual if residual.degree > 0 else None)

    def series(self, rho: Fraction, top: int, cap: int) -> tuple[list, list]:
        """a_0..a_top of zeta^rho sum a_M zeta^M by the module's recurrence,
        each a_M a vector over the first `cap` free parameters opened up
        to offset M; later parameters are set to zero.

        A parameter opens wherever C_{j0}(rho+M) = 0, and the right-hand
        side there is recorded as the obstruction row (M, row) that must
        vanish for a log-free continuation (empty at M = 0).
        """
        width = self.jmax - self.j0
        coeffs, obstructions = [], []
        for m_idx in range(top + 1):
            rhs = [Fraction(0)] * min(len(obstructions), cap)
            for m in range(max(0, m_idx - width), m_idx):
                value = self.cpolys[m_idx - m](rho + m)
                if value:
                    for i, a in enumerate(coeffs[m]):
                        rhs[i] -= a * value
            denom = self.indicial(rho + m_idx)
            if denom:
                coeffs.append([r / denom for r in rhs])
            else:
                obstructions.append((m_idx, rhs))
                opened = [Fraction(1)] if len(rhs) < cap else []
                coeffs.append([Fraction(0)] * len(rhs) + opened)
        return coeffs, obstructions

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
        _coeffs, rows = self.series(Fraction(0), int(max(exponents)), n)
        padded = [row + [Fraction(0)] * (n - len(row)) for _m, row in rows]
        dim = len(nullspace_basis(padded, n))
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


@dataclass(frozen=True)
class IndicialExponents:
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


@dataclass(frozen=True)
class FrobeniusSolution:
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


@dataclass(frozen=True)
class ApparentVerdict:
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
    vectors, rows = data.series(exponent, n_terms, 1)
    return FrobeniusSolution(
        point=point,
        exponent=exponent,
        coeffs=tuple(v[0] for v in vectors),
        truncation=n_terms,
        obstructions=tuple((m, row[0]) for m, row in rows if m),
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

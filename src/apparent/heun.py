"""Constructors for the second- and third-order equation families.

All families are order-n equations sum P_k w^{(n-k)} = 0 with explicit
polynomial coefficients; parameters are exact rationals.  Exponent-sum
constraints are enforced at construction: for an order-2 Fuchsian
equation with s singular points the exponents must add up to s - 2,
which pins sum(theta_k) + theta_inf + alpha to 2 for the four-point
family and to m - 1 for the m-point family.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DegenerateGeometryError,
    FuchsianIdentityError,
    NotConfluentClassError,
)
from .odemodel import LinearODE, make_ode
from .polyrat import RatPoly, as_fraction, exact_div


# NamedTuple forbids __new__ in its own body, so each record's fields sit
# on a private base and the public class converts its inputs in __new__;
# cli.cmd_heun reads a record's fields from the base's annotations


class _HeunFields(NamedTuple):
    t: Fraction
    theta1: Fraction
    theta2: Fraction
    theta3: Fraction
    theta_inf: Fraction
    alpha: Fraction
    q: Fraction


class HeunParams(_HeunFields):
    """Four regular points 0, 1, t, infinity; accessory location q.

    Exponents are {0, theta_k} at the finite points and {alpha,
    theta_inf} at infinity, tied by sum(theta) + theta_inf + alpha = 2.
    """

    __slots__ = ()

    def __new__(cls, t, theta1, theta2, theta3, theta_inf, alpha, q):
        values = (t, theta1, theta2, theta3, theta_inf, alpha, q)
        return super().__new__(cls, *map(as_fraction, values))


class _MultiHeunFields(NamedTuple):
    zs: tuple[Fraction, ...]
    thetas: tuple[Fraction, ...]
    theta_inf: Fraction
    alpha: Fraction
    qs: tuple[Fraction, ...]


class MultiHeunParams(_MultiHeunFields):
    """m distinct finite regular points and m - 2 accessory locations.

    The list lengths are checked here (ValueError); multi_heun checks
    that there are at least three distinct points.
    """

    __slots__ = ()

    def __new__(cls, zs, thetas, theta_inf, alpha, qs):
        zs = tuple(map(as_fraction, zs))
        thetas = tuple(map(as_fraction, thetas))
        qs = tuple(map(as_fraction, qs))
        m = len(zs)
        if len(thetas) != m:
            raise ValueError(
                f"'thetas' needs one entry per point of 'zs': {m} points, {len(thetas)} thetas"
            )
        if m >= 3 and len(qs) != m - 2:
            raise ValueError(
                f"'qs' needs len(zs) - 2 = {m - 2} accessory locations, got {len(qs)}"
            )
        return super().__new__(cls, zs, thetas, as_fraction(theta_inf), as_fraction(alpha), qs)

    @property
    def m(self) -> int:
        return len(self.zs)


class _ThirdOrderFields(NamedTuple):
    t: Fraction
    alpha: Fraction
    beta: Fraction
    theta2: Fraction
    theta3: Fraction
    kappa: Fraction
    q: Fraction


class ThirdOrderParams(_ThirdOrderFields):
    """Parameters of the order-3 four-point equation with accessory q."""

    __slots__ = ()

    def __new__(cls, t, alpha, beta, theta2, theta3, kappa, q):
        values = (t, alpha, beta, theta2, theta3, kappa, q)
        return super().__new__(cls, *map(as_fraction, values))


class _ConfluentHeunFields(NamedTuple):
    p0: RatPoly
    p1: RatPoly
    alpha: Fraction
    q: Fraction


class ConfluentHeunParams(_ConfluentHeunFields):
    """Raw coefficients for the confluent degree pattern.

    The pattern is deg P_0 <= 2, deg P_1 = 2, deg P_2 = 1; the trailing
    coefficient is alpha (z - q).  Coalescence limits that produce
    these equations are not modeled; the pattern is taken as given.
    """

    __slots__ = ()

    def __new__(cls, p0, p1, alpha, q):
        p0 = p0 if isinstance(p0, RatPoly) else RatPoly(p0)
        p1 = p1 if isinstance(p1, RatPoly) else RatPoly(p1)
        return super().__new__(cls, p0, p1, as_fraction(alpha), as_fraction(q))


def _sum_check(observed: Fraction, expected: Fraction):
    if observed != expected:
        raise FuchsianIdentityError(
            "exponent parameters violate the Fuchsian sum constraint",
            observed=str(observed),
            expected=str(expected),
        )


def general_heun(p: HeunParams) -> LinearODE:
    """Order-2 equation with regular points 0, 1, t and infinity.

    multi_heun at zs = (0, 1, t): P_0 = z(z-1)(z-t),
    P_1 = sum_k (1-theta_k) P_0/(z-z_k), P_2 = alpha theta_inf (z-q).
    """
    if p.t == 0 or p.t == 1:
        raise DegenerateGeometryError("t must differ from 0 and 1", t=str(p.t))
    return multi_heun(
        MultiHeunParams(
            zs=(0, 1, p.t),
            thetas=(p.theta1, p.theta2, p.theta3),
            theta_inf=p.theta_inf,
            alpha=p.alpha,
            qs=(p.q,),
        )
    )


def multi_heun(p: MultiHeunParams) -> LinearODE:
    """Order-2 equation with m distinct finite regular points.

    P_0 = prod (z - z_j), P_1 = sum_k (1-theta_k) P_0/(z-z_k),
    P_2 = alpha theta_inf prod (z - q_j) over the m-2 accessory
    locations (repetitions allowed: a repeated q_j is a multiple root).
    """
    m = p.m
    if m < 3:
        raise DegenerateGeometryError("need at least three finite points", m=m)
    if len(set(p.zs)) != m:
        raise DegenerateGeometryError("finite singular locations must be distinct")
    total = sum(p.thetas, Fraction(0)) + p.theta_inf + p.alpha
    _sum_check(total, Fraction(m - 1))
    p0 = RatPoly.from_roots(p.zs)
    p1 = RatPoly()
    for z_k, th in zip(p.zs, p.thetas):
        p1 = p1 + (1 - th) * exact_div(p0, RatPoly([-z_k, 1]))
    p2 = p.alpha * p.theta_inf * RatPoly.from_roots(p.qs)
    return make_ode([p0, p1, p2])


def third_order_example(p: ThirdOrderParams) -> LinearODE:
    """Order-3 four-point equation with one accessory location.

    Exponents: {0, alpha, beta} at 0, {0, 1, 2+theta2} at 1,
    {0, 1, 2+theta3} at t; at infinity they satisfy
    e1 = -(alpha+beta+theta2+theta3), e2 = alpha beta + theta2 + theta3,
    e3 = kappa (elementary symmetric functions).
    """
    if p.t == 0 or p.t == 1:
        raise DegenerateGeometryError("t must differ from 0 and 1", t=str(p.t))
    z = RatPoly([0, 1])
    z1 = RatPoly([-1, 1])
    zt = RatPoly([-p.t, 1])
    p0 = z * z * z1 * zt
    p1 = (3 - p.alpha - p.beta) * z * z1 * zt - p.theta2 * z * z * zt - p.theta3 * z * z * z1
    p2 = (p.alpha - 1) * (p.beta - 1) * z1 * zt
    p3 = p.kappa * RatPoly([-p.q, 1])
    return make_ode([p0, p1, p2, p3])


def confluent_heun(p: ConfluentHeunParams) -> LinearODE:
    """Order-2 equation of the confluent degree pattern.

    Validates deg P_0 <= 2 (nonzero), deg P_1 = 2, alpha != 0 (so
    P_2 = alpha (z-q) has degree exactly 1).  Infinity is then always
    irregular (Fuchs): deg P_1 >= deg P_0, so P_1/P_0 does not vanish
    there, and a common factor divided out by make_ode lowers every
    degree alike and keeps that gap.
    """
    if p.p0.is_zero:
        raise NotConfluentClassError("P_0 must be nonzero")
    if p.p0.degree > 2:
        raise NotConfluentClassError("P_0 degree must be at most 2", degree=p.p0.degree)
    if p.p1.degree != 2:
        raise NotConfluentClassError("P_1 degree must be exactly 2", degree=p.p1.degree)
    if p.alpha == 0:
        raise NotConfluentClassError("alpha must be nonzero")
    p2 = p.alpha * RatPoly([-p.q, 1])
    return make_ode([p.p0, p.p1, p2])

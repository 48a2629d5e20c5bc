"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed,
so the same seed always yields the same inputs.  These generators are
kept apart from the test-suite helpers on purpose: editing the tests
must never change what the benchmark measures.

Thetas are drawn away from the integers, so the base singular points of
a generated equation are never apparent themselves, and accessory
locations are drawn off the finite singular set, so every generated
equation gains new apparent points under ``deform``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from apparent import (
    ConfluentHeunParams,
    HeunParams,
    MultiHeunParams,
    RatPoly,
    ThirdOrderParams,
)


def _frac(rng: random.Random, exclude=(), span=6, dmax=6) -> Fraction:
    while True:
        v = Fraction(rng.randint(-span, span), rng.randint(1, dmax))
        if v not in exclude:
            return v


def _nonint(rng: random.Random, span=6, dmax=6) -> Fraction:
    while True:
        v = Fraction(rng.randint(-span, span), rng.randint(2, dmax))
        if v.denominator > 1:
            return v


def heun_params(rng: random.Random) -> HeunParams:
    """General Heun on the Fuchsian identity, accessory q off {0, 1, t}."""
    t = _frac(rng, exclude=(0, 1))
    while True:
        thetas = [_nonint(rng) for _ in range(3)]
        theta_inf = _nonint(rng)
        alpha = 2 - sum(thetas) - theta_inf
        if alpha != 0:
            break
    q = _frac(rng, exclude=(0, 1, t))
    return HeunParams(
        t=t, theta1=thetas[0], theta2=thetas[1], theta3=thetas[2],
        theta_inf=theta_inf, alpha=alpha, q=q,
    )


def multi_params(rng: random.Random, m: int = 5) -> MultiHeunParams:
    """m-point Heun with m - 2 distinct accessory roots off the base points."""
    zs: list[Fraction] = []
    while len(zs) < m:
        zs.append(_frac(rng, exclude=zs))
    while True:
        thetas = [_nonint(rng) for _ in range(m)]
        theta_inf = _nonint(rng)
        alpha = (m - 1) - sum(thetas) - theta_inf
        if alpha != 0:
            break
    qs: list[Fraction] = []
    while len(qs) < m - 2:
        qs.append(_frac(rng, exclude=zs + qs))
    return MultiHeunParams(
        zs=tuple(zs), thetas=tuple(thetas), theta_inf=theta_inf, alpha=alpha, qs=tuple(qs)
    )


def third_params(rng: random.Random) -> ThirdOrderParams:
    """Order-3 four-point equation with accessory q off {0, 1, t}."""
    t = _frac(rng, exclude=(0, 1))
    return ThirdOrderParams(
        t=t,
        alpha=_nonint(rng),
        beta=_nonint(rng),
        theta2=_nonint(rng),
        theta3=_nonint(rng),
        kappa=_frac(rng, exclude=(0,)),
        q=_frac(rng, exclude=(0, 1, t)),
    )


def confluent_params(rng: random.Random) -> ConfluentHeunParams:
    """Confluent degree pattern with q off the roots of P_0."""
    while True:
        p0 = RatPoly([_frac(rng) for _ in range(rng.randint(1, 3))])
        if not p0.is_zero:
            break
    p1 = RatPoly([_frac(rng), _frac(rng), _frac(rng, exclude=(0,))])
    alpha = _frac(rng, exclude=(0,))
    q = _frac(rng)
    while p0(q) == 0:
        q = _frac(rng)
    return ConfluentHeunParams(p0=p0, p1=p1, alpha=alpha, q=q)


def family_params(rng: random.Random, family: str):
    return {
        "general": heun_params,
        "multi5": multi_params,
        "third": third_params,
        "confluent": confluent_params,
    }[family](rng)

"""End-to-end acceptance gate, one numbered test per contract.

Everything symbolic is compared in exact rational arithmetic.  The one
numerical contract (criterion 9) pins the shooting spectrum against the
independent finite-difference oracle in tests/_oracle.py to a relative
1e-6: the extrapolated oracle lies within 5e-8 of the shooting values
and within 1.3e-7 of its own value on a grid half as fine, so the
bound keeps a margin of 7 over the oracle's own error estimate.
"""

import random
import time
from fractions import Fraction

import pytest

from apparent import (
    INFINITY,
    PointKind,
    PolymerParams,
    RatPoly,
    apparent_location,
    confluent_heun,
    deform,
    frobenius_series,
    fuchs_check,
    general_heun,
    indicial_exponents,
    is_apparent,
    make_ode,
    multi_heun,
    polymer_deformed,
    polymer_ode,
    rational_roots,
    singular_points,
    solve_spectrum,
    third_order_example,
    undeform,
)
from apparent.frobenius import FrobeniusSolution, substitution_rows

from _gen import (
    backward_third_params,
    confluent_params,
    heun_params,
    multi_params,
    rand_frac,
    rand_nonint,
    third_params,
)
from _oracle import oracle_nu1
from _polymer_one_step import one_step_deformed
from _ratfunc import RatFunc

F = Fraction

ONE = RatPoly([1])
Z = RatPoly([0, 1])


def lin(c):
    return RatPoly([-c, 1])


def inv(p):
    return RatFunc(ONE, p)


def one_step_clearing(ode, q):
    """[(z-q)P_0, (z-q)(P_1+P_0')-P_0, (z-q)(P_2+P_1')-P_1] canonicalized."""
    p0, p1, p2 = ode.coeffs
    step = lin(q)
    return make_ode([step * p0, step * (p1 + p0.derivative()) - p0, step * (p2 + p1.derivative()) - p1])


def test_criterion_01_deform_matches_cleared_one_step_form():
    rng = random.Random(101)
    for _ in range(50):
        p = heun_params(rng)
        ode = general_heun(p)
        assert deform(ode).ode == one_step_clearing(ode, p.q)


def test_criterion_02_third_order_deform_matches_printed_equation():
    rng = random.Random(102)
    for _ in range(20):
        p = third_params(rng)
        ode = third_order_example(p)
        out = deform(ode).ode
        o0, o1, o2, o3 = out.coeffs

        sigma = inv(lin(F(1))) + inv(lin(p.t)) - inv(lin(p.q))
        d1 = (
            (5 - p.alpha - p.beta) * inv(Z)
            - (p.theta2 - 1) * inv(lin(F(1)))
            - (p.theta3 - 1) * inv(lin(p.t))
            - inv(lin(p.q))
        )
        d2 = (
            (2 - p.alpha) * (2 - p.beta) * inv(Z * Z)
            + (3 - p.alpha - p.beta) * inv(Z) * sigma
            - 2 * p.theta2 * inv(Z * lin(F(1)))
            - 2 * p.theta3 * inv(Z * lin(p.t))
            - (p.theta2 + p.theta3) * inv(lin(F(1)) * lin(p.t))
            + p.theta2 * inv(lin(p.q) * lin(F(1)))
            + p.theta3 * inv(lin(p.q) * lin(p.t))
        )
        d3 = (1 - p.alpha) * (1 - p.beta) * inv(Z * Z) * sigma + RatFunc(
            p.kappa * lin(p.q), Z * Z * lin(F(1)) * lin(p.t)
        )

        assert RatFunc(o1, o0) == d1
        assert RatFunc(o2, o0) == d2
        assert RatFunc(o3, o0) == d3


def test_criterion_03_apparent_points_and_gap_ladder():
    rng = random.Random(103)
    # distinct accessory roots: m - 2 points, exponents {0, 2} each
    for m in (4, 5):
        p = multi_params(rng, m)
        res = deform(multi_heun(p))
        apparent = [sp for sp in singular_points(res.ode) if sp.kind is PointKind.APPARENT]
        assert len(apparent) == m - 2
        assert {sp.location for sp in apparent} == set(p.qs)
        for sp in apparent:
            assert sorted(sp.exponents) == [F(0), F(2)]

    # repeated accessory roots climb the ladder: {0, multiplicity + 1}
    for m, mult in ((4, 2), (5, 3), (6, 4)):
        p = multi_params(rng, m, repeated=mult)
        res = deform(multi_heun(p))
        repeated_root = p.qs[0]
        verdict = is_apparent(res.ode, repeated_root)
        assert verdict.is_apparent
        assert sorted(verdict.exponents) == [F(0), F(mult + 1)]
        for loc in set(p.qs) - {repeated_root}:
            simple = is_apparent(res.ode, loc)
            assert simple.is_apparent and sorted(simple.exponents) == [F(0), F(2)]


def test_criterion_04_undeform_inverts_deform_across_families():
    rng = random.Random(104)
    builders = []
    for _ in range(34):
        builders.append(general_heun(heun_params(rng)))
    for i in range(33):
        builders.append(multi_heun(multi_params(rng, 4 + i % 2)))
    for _ in range(33):
        builders.append(confluent_heun(confluent_params(rng)))

    for ode in builders:
        res = undeform(deform(ode).ode)
        assert res.ode == ode
        assert res.free_parameters == 0


def test_criterion_05_fuchs_relation_sums():
    rng = random.Random(105)
    for _ in range(50):
        report = fuchs_check(general_heun(heun_params(rng)))
        assert report.identity_holds and report.exponent_sum == 2
    for _ in range(30):
        m = rng.choice((4, 5, 6))
        report = fuchs_check(multi_heun(multi_params(rng, m)))
        assert report.identity_holds and report.exponent_sum == m - 1


def test_criterion_06_infinity_exponents_obey_symmetric_relations():
    rng = random.Random(106)
    for _ in range(50):
        p, (a, b, c) = backward_third_params(rng)
        ode = third_order_example(p)
        exps = sorted(indicial_exponents(ode, INFINITY).exponents)
        assert exps == sorted((a, b, c))
        e1 = sum(exps)
        e2 = exps[0] * exps[1] + exps[0] * exps[2] + exps[1] * exps[2]
        e3 = exps[0] * exps[1] * exps[2]
        assert e1 == -(p.alpha + p.beta + p.theta2 + p.theta3)
        assert e2 == p.alpha * p.beta + p.theta2 + p.theta3
        assert e3 == p.kappa


def ordinary_rational_point(deformed, rng):
    while True:
        z0 = rand_frac(rng, span=9, dmax=5)
        if deformed.leading(z0) != 0:
            return z0


def test_criterion_07_derivative_of_series_solves_deformed_equation():
    rng = random.Random(107)
    cases = [general_heun(heun_params(rng)) for _ in range(12)]
    cases += [third_order_example(third_params(rng)) for _ in range(8)]
    for ode in cases:
        n = ode.order
        deformed = deform(ode).ode
        z0 = ordinary_rational_point(deformed, rng)
        sol = frobenius_series(ode, z0, F(0), 40 + n)
        assert sol.obstructions == tuple((k, F(0)) for k, _ in sol.obstructions)

        derived = FrobeniusSolution(
            point=z0,
            exponent=F(-1),
            coeffs=tuple(k * a for k, a in enumerate(sol.coeffs)),
            truncation=sol.truncation,
            obstructions=(),
        )
        rows = substitution_rows(deformed, derived, upto=39)
        assert rows == [F(0)] * 40


def test_criterion_08_polymer_equation_consistency():
    cases = [
        (F(100), F(1, 4), F(40)),
        (F(7), F(1, 3), F(9, 2)),
        (F(3), F(2, 5), F(17, 3)),
        (F(50), F(1, 10), F(26)),
    ]
    for b, W, nu in cases:
        p = PolymerParams(b=b, W=W)
        ode = polymer_ode(p, nu)
        direct = one_step_deformed(p, nu)
        assert polymer_deformed(p, nu) == direct

        q = apparent_location(b, p.kappa, nu)
        roots, residual = rational_roots(ode.coeffs[-1])
        assert residual.degree == 0
        assert roots == [(q, 1)]

        verdict = is_apparent(direct, q)
        assert verdict.is_apparent
        assert sorted(verdict.exponents) == [F(0), F(2)]


def test_criterion_09_spectrum_matches_discretization_oracle():
    start = time.monotonic()
    b = F(100)
    t_rels = []
    for W in (F(1, 4), F(7, 20), F(9, 20)):
        p = PolymerParams(b=b, W=W)
        res = solve_spectrum(p, F(1), F(60), count=1)
        nu1 = res.eigenvalues[0]
        reference = oracle_nu1(float(b), float(W))
        assert abs(nu1 - reference) / reference <= 1e-6
        t_rels.append(res.t_rel)
    assert t_rels[0] < t_rels[1] < t_rels[2]
    assert time.monotonic() - start <= 60.0


def test_criterion_10_degenerate_trailing_creates_nothing():
    rng = random.Random(110)
    # constant trailing coefficient: differentiation adds no singularity
    for _ in range(10):
        a = rand_frac(rng, exclude=(0,))
        b = rand_frac(rng, exclude=(0,))
        c = rand_nonint(rng)
        while (c - a - b).denominator == 1:
            c = rand_nonint(rng)
        ode = make_ode([Z * lin(F(1)), RatPoly([-c, a + b + 1]), RatPoly([a * b])])
        res = deform(ode)
        assert res.new_apparent == ()
        before = {sp.location for sp in singular_points(ode)}
        after = {sp.location for sp in singular_points(res.ode)}
        assert after == before == {F(0), F(1), INFINITY}

    # accessory location on a root of P_0: no new singular location
    for i in range(15):
        base = heun_params(rng)
        p = base._replace(q=(F(0), F(1), base.t)[i % 3])
        ode = general_heun(p)
        res = deform(ode)
        assert res.new_apparent == ()
        before = {sp.location for sp in singular_points(ode)}
        after = {sp.location for sp in singular_points(res.ode)}
        assert after == before

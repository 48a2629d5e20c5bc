"""The recurrence verdict and series against the references in ``_dense_local``.

The package runs the Frobenius recurrence once, carrying each coefficient
as a vector over the parameters opened at resonances; the verdict is the
nullity of the obstruction rows and the series is the a_0 = 1
projection.  The references solve the (E+1)-square system and run the
scalar loop.  Both must agree on every regular singular point below:
the verdict (apparency, failed condition, holomorphic dimension) and,
at finite points, the series from every rational exponent with its
obstruction values.

At a simple root of P_0 and at an ordinary point the package reads the
indicial polynomial and the exponents off P_0 and P_1 at the point; the
references read them off the recurrence table's C_{j0} and its
rational roots, and the closed form must agree with the table there.
The series at an ordinary point must agree with the scalar loop too.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from apparent import (
    INFINITY,
    MultiHeunParams,
    PointKind,
    RatPoly,
    classify_point,
    confluent_heun,
    deform_iter,
    frobenius_series,
    general_heun,
    is_apparent,
    make_ode,
    multi_heun,
    rational_roots,
    third_order_example,
)

from apparent.frobenius import _local

from _dense_local import dense_verdict, scalar_series, table_exponents
from _gen import (
    LOG_GAP_PARAMS,
    confluent_params,
    heun_params,
    multi_params,
    rand_frac,
    rand_nonint,
    third_params,
)

F = Fraction

FAMILIES = {
    "general": lambda rng: general_heun(heun_params(rng)),
    "multi": lambda rng: multi_heun(multi_params(rng, 4, repeated=rng.choice([0, 2]))),
    "third": lambda rng: third_order_example(third_params(rng)),
    "confluent": lambda rng: confluent_heun(confluent_params(rng)),
}


def hypergeometric(a, b, c):
    """z(1-z) w'' + (c - (a+b+1) z) w' - ab w = 0; exponents {0, 1-c} at 0."""
    return make_ode([RatPoly([0, 1, -1]), RatPoly([c, -(a + b + 1)]), RatPoly([-a * b])])


def gap_ladder(m, qs):
    """The multi-point layouts of demos/02_gap_ladder.py."""
    thetas = (F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1, 13))[:m]
    alpha = (m - 1) - sum(thetas) - F(1, 17)
    return multi_heun(MultiHeunParams(
        zs=tuple(F(j) for j in range(m)), thetas=thetas, theta_inf=F(1, 17), alpha=alpha, qs=qs,
    ))


def compare(ode):
    """Check every regular singular point of ode; return the verdicts."""
    verdicts = []
    for point in [q for q, _m in rational_roots(ode.leading)[0]] + [INFINITY]:
        if classify_point(ode, point).kind in (PointKind.ORDINARY, PointKind.IRREGULAR):
            continue
        verdict = is_apparent(ode, point)
        assert verdict == dense_verdict(ode, point), (ode, point)
        verdicts.append(verdict)
        if point is INFINITY:
            continue
        exps = set(verdict.exponents)
        for rho in exps:
            reach = max(int(e - rho) for e in exps if (e - rho).denominator == 1 and e >= rho)
            got = frobenius_series(ode, point, rho, reach + 3)
            assert got == scalar_series(ode, point, rho, reach + 3), (ode, point, rho)
    return verdicts


def tally(verdicts):
    return Counter(v.failed_condition or "apparent" for v in verdicts)


def test_hypergeometric_gap_points():
    # c = 1 - E: exponents {0, E} at 0, and a = -k is apparent iff k < E
    seen = []
    for gap in range(1, 13):
        for k in range(gap + 3):
            if gap == 1 and k == 0:
                continue  # c = ab = 0: z divides out and 0 is ordinary
            for b in (F(1, 3), F(-7, 2)):
                ode = hypergeometric(F(-k), b, F(1 - gap))
                assert is_apparent(ode, 0).is_apparent == (k < gap), (gap, k, b)
                assert is_apparent(ode, 0).holomorphic_dim == (2 if k < gap else 1)
                seen += compare(ode)
    counts = tally(seen)
    assert counts["apparent"] > 100 and counts["nonzero log obstruction"] > 50, counts


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_planted_points_over_two_stages(family):
    seen = []
    for draw in range(3):
        base = FAMILIES[family](random.Random(f"local reference {family} {draw}"))
        seen += compare(base)
        for stage in deform_iter(base, 2):
            seen += compare(stage.ode)
    counts = tally(seen)
    assert counts["apparent"] >= 3, counts


def test_gap_ladder_layouts():
    q = F(1, 2)
    for m, qs in ((4, (q, F(7, 2))), (4, (q, q)), (5, (q, q, q)), (6, (q, q, q, q))):
        stage = deform_iter(gap_ladder(m, qs), 1)[0]
        assert is_apparent(stage.ode, q).holomorphic_dim == 2
        assert compare(stage.ode)


def test_heun_with_a_logarithm():
    # theta1 = 2: exponents {0, 2} at the origin, blocked by a logarithm
    for ode in (general_heun(LOG_GAP_PARAMS), deform_iter(general_heun(LOG_GAP_PARAMS), 1)[0].ode):
        assert tally(compare(ode))["nonzero log obstruction"] >= 1


def prescribed_exponents(rng, n, double=None):
    """Order-n equation with three simple roots of P_0, each given a top
    exponent e = n - 1 - P_1(r)/P_0'(r) by interpolating P_1: a repeated
    one (0..n-2), a nonnegative integer gap, a negative integer or a
    fraction.  double = "regular" or "irregular" adds a double root of
    P_0, where P_1 vanishes or not."""
    roots = []
    while len(roots) < 3 + bool(double):
        r = rand_frac(rng, span=4, dmax=3)
        if r not in roots:
            roots.append(r)
    simple, p0 = roots[:3], RatPoly.from_roots(roots + roots[3:])
    # P_1 = factor * (interpolant of the values over factor)
    factor = RatPoly.from_roots(roots[3:]) if double == "regular" else RatPoly([1])
    dp0 = p0.derivative()
    choices = [F(rng.randint(n - 1, n + 4)), F(-rng.randint(1, 3)), rand_nonint(rng)]
    if n > 1:
        choices.append(F(rng.randint(0, n - 2)))
    p1 = RatPoly.from_roots(simple) * RatPoly([rand_frac(rng)])
    for i, r in enumerate(simple):
        others = simple[:i] + simple[i + 1:]
        basis = RatPoly.from_roots(others) / RatPoly.from_roots(others)(r)
        p1 = p1 + (n - 1 - rng.choice(choices)) * dp0(r) / factor(r) * basis
    rest = [RatPoly([rand_frac(rng) for _ in range(rng.randint(1, 3))]) for _ in range(n - 1)]
    return make_ode([p0, factor * p1, *rest])


def test_closed_form_read_off_matches_the_table():
    rng = random.Random("closed form read-off")
    seen = Counter()
    for n in (1, 2, 3):
        for draw in range(12):
            ode = prescribed_exponents(rng, n, (None, "regular", "irregular")[draw % 3])
            roots = [q for q, _m in rational_roots(ode.leading)[0]]
            # 7/2 is no root: rand_frac(span=4, dmax=3) never draws it
            for point in roots + [INFINITY, F(7, 2)]:
                data, _loc = _local(ode, point)
                closed = data.v0 <= 1
                regular, exponents = data.is_regular, data.is_regular and data.exponents
                indicial = data.indicial if regular else None
                verdict = is_apparent(ode, point) if regular and data.v0 else None
                # the table, built after every closed-form answer was read
                v0, j0 = data._table[0], data.j0
                assert data.v0 == v0
                assert regular == (j0 == v0), (ode, point)
                if not regular:
                    seen["irregular"] += 1
                    continue
                assert indicial == data.cpolys[0]
                assert exponents == table_exponents(data)
                if not data.v0 and point is not INFINITY:
                    assert frobenius_series(ode, point, 0, 6) == scalar_series(ode, point, 0, 6)
                    seen["ordinary"] += 1
                if verdict is not None:
                    assert verdict == dense_verdict(ode, point), (ode, point)
                    if closed and point is not INFINITY:
                        seen[n, verdict.failed_condition or "apparent"] += 1
                seen["closed" if closed else "table"] += 1
    for n in (1, 2, 3):
        assert seen[n, "apparent"] + seen[n, "nonzero log obstruction"] >= 1, (n, seen)
        assert seen[n, "negative exponent"] >= 1 and seen[n, "non-integer exponent"] >= 1, seen
    assert seen[2, "repeated exponents"] >= 1 and seen[3, "repeated exponents"] >= 1, seen
    assert seen["irregular"] >= 1 and seen["table"] >= 10 and seen["closed"] >= 80, seen
    assert seen["ordinary"] == 36, seen

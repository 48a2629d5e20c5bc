import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from apparent import (
    INFINITY,
    ConfluentHeunParams,
    DegenerateGeometryError,
    FuchsianIdentityError,
    HeunParams,
    MultiHeunParams,
    NotConfluentClassError,
    PointKind,
    RatPoly,
    ThirdOrderParams,
    classify_point,
    confluent_heun,
    deform,
    exact_div,
    fuchs_check,
    general_heun,
    indicial_exponents,
    make_ode,
    multi_heun,
    third_order_example,
)

from _gen import confluent_params, heun_params, multi_params, rand_frac, third_params
from test_int_form import checked

F = Fraction


# Each builder is checked against its P_k written out in RatPoly arithmetic,
# on seeded draws and on the inputs that trip an integer-list construction:
# zero scalars (the coefficient must come out as the true zero polynomial),
# a repeated q, a q on a root of P_0, and locations with large denominators
BIG_T = F(2**89 - 1, 3**61)


def _lin(r):
    return RatPoly([-r, 1])


def _prod(roots):
    out = RatPoly([1])
    for r in roots:
        out = out * _lin(r)
    return out


def _assert_written(ode, written):
    """ode == make_ode(written), with every coefficient's integer form valid."""
    for c in ode.coeffs:
        checked(c)
    assert ode == make_ode(written)


def _heun_on_identity(p, **changes):
    """p with the given fields changed and alpha put back on the Fuchs sum."""
    fields = {**p._asdict(), **changes}
    fields["alpha"] = 2 - fields["theta1"] - fields["theta2"] - fields["theta3"] - fields["theta_inf"]
    return HeunParams(**fields)


def _general_cases():
    rng = random.Random("general_heun written formula")
    cases = [heun_params(rng) for _ in range(14)]
    cases += [heun_params(rng, q=F(0)), heun_params(rng, q=F(1))]
    p = heun_params(rng)
    cases += [
        p._replace(q=p.t),
        _heun_on_identity(p, theta1=F(1)),
        _heun_on_identity(p, theta_inf=F(0)),
        _heun_on_identity(p, t=BIG_T, q=F(-5, 2**70 + 1)),
        _heun_on_identity(p, theta1=F(1), theta2=F(1), theta3=F(1), theta_inf=F(0)),
    ]
    return cases


def test_general_heun_coefficients():
    for p in _general_cases():
        z, z1, zt = _lin(0), _lin(1), _lin(p.t)
        p1 = (1 - p.theta1) * z1 * zt + (1 - p.theta2) * z * zt + (1 - p.theta3) * z * z1
        _assert_written(general_heun(p), [z * z1 * zt, p1, p.alpha * p.theta_inf * _lin(p.q)])


def _multi_on_identity(p, **changes):
    fields = {**p._asdict(), **changes}
    fields["alpha"] = len(fields["zs"]) - 1 - sum(fields["thetas"]) - fields["theta_inf"]
    return MultiHeunParams(**fields)


def _multi_cases():
    rng = random.Random("multi_heun written formula")
    cases = [multi_params(rng, rng.randint(3, 6)) for _ in range(12)]
    cases += [multi_params(rng, 5, repeated=3), multi_params(rng, 6, repeated=2)]
    p = multi_params(rng, 5)
    cases += [
        p._replace(qs=(p.zs[0], p.zs[2], p.zs[2])),
        _multi_on_identity(p, thetas=(F(1),) + p.thetas[1:]),
        _multi_on_identity(p, thetas=(F(1),) * 5),
        _multi_on_identity(p, theta_inf=F(0)),
        _multi_on_identity(p, zs=(BIG_T, F(1, 2**75), F(-(3**50), 7), F(0), F(2**64 + 13, 5**30))),
        p._replace(qs=(BIG_T, BIG_T, F(2**80 + 1, 2**80 - 1))),
    ]
    return cases


def test_multi_heun_matches_written_polynomials():
    for p in _multi_cases():
        p1 = RatPoly()
        for k, th in enumerate(p.thetas):
            p1 = p1 + (1 - th) * _prod(p.zs[:k] + p.zs[k + 1:])
        _assert_written(multi_heun(p), [_prod(p.zs), p1, p.alpha * p.theta_inf * _prod(p.qs)])


def test_general_heun_exponents():
    rng = random.Random(21)
    p = heun_params(rng)
    ode = general_heun(p)
    assert set(indicial_exponents(ode, p.t).exponents) == {F(0), p.theta3}
    assert set(indicial_exponents(ode, INFINITY).exponents) == {p.alpha, p.theta_inf}


def test_general_heun_rejects_broken_identity():
    with pytest.raises(FuchsianIdentityError):
        general_heun(
            HeunParams(
                t=F(3), theta1=F(1, 2), theta2=F(1, 3), theta3=F(1, 5),
                theta_inf=F(1, 7), alpha=F(1), q=F(5),
            )
        )


def test_general_heun_rejects_collapsed_geometry():
    with pytest.raises(DegenerateGeometryError):
        general_heun(
            HeunParams(
                t=F(1), theta1=F(1, 2), theta2=F(1, 3), theta3=F(1, 5),
                theta_inf=F(1, 7), alpha=2 - F(1, 2) - F(1, 3) - F(1, 5) - F(1, 7), q=F(5),
            )
        )


def test_multi_heun_validation():
    base = dict(theta_inf=F(1, 2), alpha=F(1, 2))
    with pytest.raises(DegenerateGeometryError):
        multi_heun(MultiHeunParams(zs=(F(0), F(1)), thetas=(F(1, 3), F(1, 3)), qs=(), **base))
    with pytest.raises(DegenerateGeometryError):
        multi_heun(
            MultiHeunParams(
                zs=(F(0), F(1), F(1)), thetas=(F(1, 3),) * 3, qs=(F(5),), **base
            )
        )
    # the count rules belong to the record, so they hold before multi_heun runs
    with pytest.raises(ValueError, match="'thetas' needs one entry per point of 'zs'"):
        MultiHeunParams(zs=(F(0), F(1), F(2)), thetas=(F(1, 3),) * 2, qs=(F(5),), **base)
    with pytest.raises(ValueError, match=r"'qs' needs len\(zs\) - 2 = 1 accessory"):
        MultiHeunParams(zs=(F(0), F(1), F(2)), thetas=(F(1, 3),) * 3, qs=(F(5), F(6)), **base)


def test_multi_heun_reduces_to_general_heun():
    rng = random.Random(22)
    p = heun_params(rng)
    as_multi = MultiHeunParams(
        zs=(F(0), F(1), p.t),
        thetas=(p.theta1, p.theta2, p.theta3),
        theta_inf=p.theta_inf,
        alpha=p.alpha,
        qs=(p.q,),
    )
    assert multi_heun(as_multi) == general_heun(p)


def test_multi_heun_fuchs_relation():
    rng = random.Random(23)
    for m in (4, 5, 6):
        ode = multi_heun(multi_params(rng, m))
        report = fuchs_check(ode)
        assert report.is_fuchsian and report.identity_holds
        assert report.exponent_sum == m - 1


def _third_cases():
    rng = random.Random("third_order_example written formula")
    cases = [third_params(rng) for _ in range(14)]
    p = third_params(rng)
    cases += [
        p._replace(q=F(0)),
        p._replace(q=p.t),
        p._replace(alpha=F(1)),
        p._replace(kappa=F(0)),
        p._replace(alpha=3 - p.beta),
        p._replace(t=BIG_T, q=F(2**66 + 3, 11**19)),
        p._replace(alpha=F(1), beta=F(2), theta2=F(0), theta3=F(0), kappa=F(0)),
    ]
    return cases


def test_third_order_matches_written_polynomials():
    for p in _third_cases():
        z, z1, zt = _lin(0), _lin(1), _lin(p.t)
        written = [
            z * z * z1 * zt,
            (3 - p.alpha - p.beta) * z * z1 * zt - p.theta2 * z * z * zt - p.theta3 * z * z * z1,
            (p.alpha - 1) * (p.beta - 1) * z1 * zt,
            p.kappa * _lin(p.q),
        ]
        _assert_written(third_order_example(p), written)


def _confluent_cases():
    rng = random.Random("confluent_heun written formula")
    cases = [confluent_params(rng) for _ in range(16)]
    p = confluent_params(rng)
    cases += [
        p._replace(p0=RatPoly([-3, 1]), q=F(3)),
        p._replace(p0=RatPoly([F(1, 4), 0, -1]), q=F(-1, 2)),
        p._replace(q=BIG_T),
        p._replace(alpha=F(2**90 + 1, 3**57), q=F(-(7**40), 2**61 - 1)),
    ]
    return cases


def test_confluent_heun_matches_written_polynomials():
    for p in _confluent_cases():
        _assert_written(confluent_heun(p), [p.p0, p.p1, p.alpha * _lin(p.q)])


def _calls(build, p) -> Counter:
    """build(p)'s calls to make_ode, RatPoly.__init__ and exact_div, by
    code object, so that every binding of each name is counted."""
    watched = {
        make_ode.__code__: "make_ode",
        RatPoly.__init__.__code__: "RatPoly.__init__",
        exact_div.__code__: "exact_div",
    }
    seen = Counter()

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code in watched:
            seen[watched[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        build(p)
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("build, cases", [
    (general_heun, _general_cases),
    (multi_heun, _multi_cases),
    (third_order_example, _third_cases),
    (confluent_heun, _confluent_cases),
])
def test_builders_make_one_ode_without_ratpoly_arithmetic(build, cases):
    # each P_k is built as one integer list, so no coefficient goes through
    # the RatPoly constructor or an exact division on its way to make_ode
    for p in cases():
        assert _calls(build, p) == {"make_ode": 1}, p


def test_third_order_local_exponents():
    p = ThirdOrderParams(
        t=F(7, 2), alpha=F(1, 3), beta=F(2, 5), theta2=F(1, 2),
        theta3=F(3, 7), kappa=F(11, 4), q=F(9, 4),
    )
    ode = third_order_example(p)
    assert set(indicial_exponents(ode, F(0)).exponents) == {F(0), p.alpha, p.beta}
    assert set(indicial_exponents(ode, F(1)).exponents) == {F(0), F(1), 2 + p.theta2}
    assert set(indicial_exponents(ode, p.t).exponents) == {F(0), F(1), 2 + p.theta3}


def test_confluent_heun_rejects_wrong_pattern():
    with pytest.raises(NotConfluentClassError):
        confluent_heun(ConfluentHeunParams(p0=RatPoly(), p1=RatPoly([1, 1, 1]), alpha=F(1), q=F(0)))
    with pytest.raises(NotConfluentClassError):
        confluent_heun(
            ConfluentHeunParams(p0=RatPoly([0, 0, 0, 1]), p1=RatPoly([1, 1, 1]), alpha=F(1), q=F(0))
        )
    with pytest.raises(NotConfluentClassError):
        confluent_heun(ConfluentHeunParams(p0=RatPoly([1]), p1=RatPoly([1, 1]), alpha=F(1), q=F(0)))
    with pytest.raises(NotConfluentClassError):
        confluent_heun(ConfluentHeunParams(p0=RatPoly([1]), p1=RatPoly([1, 1, 1]), alpha=F(0), q=F(0)))


def test_confluent_pattern_is_irregular_at_infinity():
    # deg P_1 = 2 >= deg P_0, so P_1/P_0 does not vanish at infinity;
    # a factor (z - q) shared by all three coefficients keeps that gap
    rng = random.Random(2967)
    for _ in range(40):
        ode = confluent_heun(confluent_params(rng))
        assert classify_point(ode, INFINITY).kind is PointKind.IRREGULAR
    for _ in range(40):
        q = rand_frac(rng)
        lin = RatPoly([-q, 1])
        low = [rand_frac(rng) for _ in range(rng.randint(0, 1))]
        p0 = lin * RatPoly(low + [rand_frac(rng, exclude=(0,))])
        p1 = lin * RatPoly([rand_frac(rng), rand_frac(rng, exclude=(0,))])
        ode = confluent_heun(ConfluentHeunParams(p0=p0, p1=p1, alpha=rand_frac(rng, exclude=(0,)), q=q))
        assert ode.coeffs[1].degree == 1
        assert classify_point(ode, INFINITY).kind is PointKind.IRREGULAR


def test_confluent_heun_deform_is_one_step_clearing():
    rng = random.Random(24)
    for _ in range(5):
        p = confluent_params(rng)
        ode = confluent_heun(p)
        res = deform(ode)
        lin = RatPoly([-p.q, 1])
        c0, c1, c2 = ode.coeffs
        expect = [lin * c0, lin * (c1 + c0.derivative()) - c0, lin * (c2 + c1.derivative()) - c1]
        assert res.ode == make_ode(expect)
        assert res.new_apparent == ((p.q, 2),)

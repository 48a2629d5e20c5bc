import random
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
    fuchs_check,
    general_heun,
    indicial_exponents,
    make_ode,
    multi_heun,
    third_order_example,
)

from _gen import confluent_params, heun_params, multi_params, rand_frac

F = Fraction


def test_general_heun_coefficients():
    p = HeunParams(
        t=F(3), theta1=F(1, 2), theta2=F(1, 3), theta3=F(1, 5),
        theta_inf=F(1, 7), alpha=2 - F(1, 2) - F(1, 3) - F(1, 5) - F(1, 7), q=F(5),
    )
    ode = general_heun(p)
    z = RatPoly([0, 1])
    z1 = RatPoly([-1, 1])
    zt = RatPoly([-3, 1])
    p0 = z * z1 * zt
    p1 = (1 - p.theta1) * z1 * zt + (1 - p.theta2) * z * zt + (1 - p.theta3) * z * z1
    p2 = p.alpha * p.theta_inf * RatPoly([-5, 1])
    assert ode.coeffs == (p0, p1, p2)


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


def test_third_order_matches_written_polynomials():
    p = ThirdOrderParams(
        t=F(7, 2), alpha=F(1, 3), beta=F(2, 5), theta2=F(1, 2),
        theta3=F(3, 7), kappa=F(11, 4), q=F(9, 4),
    )
    ode = third_order_example(p)
    z = RatPoly([0, 1])
    z1 = RatPoly([-1, 1])
    zt = RatPoly([-F(7, 2), 1])
    expect = (
        z * z * z1 * zt,
        (3 - p.alpha - p.beta) * z * z1 * zt - p.theta2 * z * z * zt - p.theta3 * z * z * z1,
        (p.alpha - 1) * (p.beta - 1) * z1 * zt,
        p.kappa * RatPoly([-F(9, 4), 1]),
    )
    assert ode.coeffs == expect


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

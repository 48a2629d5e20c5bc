import random
from fractions import Fraction

import pytest

from apparent import (
    INFINITY,
    ConfluentHeunParams,
    HeunParams,
    IrregularPointError,
    NotAnExponentError,
    NotSingularError,
    PointKind,
    RatPoly,
    classify_point,
    confluent_heun,
    deform,
    frobenius_series,
    general_heun,
    indicial_exponents,
    indicial_polynomial,
    is_apparent,
    make_ode,
    moebius_transform,
    undeform,
)
from apparent.frobenius import substitution_rows

from _gen import confluent_params, heun_params

F = Fraction


def heun_with(theta1, q):
    rest = F(1, 3), F(1, 5), F(1, 7)
    return general_heun(
        HeunParams(
            t=F(3),
            theta1=theta1,
            theta2=rest[0],
            theta3=rest[1],
            theta_inf=rest[2],
            alpha=2 - theta1 - sum(rest),
            q=q,
        )
    )


def test_indicial_exponents_match_construction():
    ode = heun_with(F(1, 2), F(5))
    assert set(indicial_exponents(ode, F(0)).exponents) == {F(0), F(1, 2)}
    assert set(indicial_exponents(ode, F(1)).exponents) == {F(0), F(1, 3)}
    assert set(indicial_exponents(ode, F(3)).exponents) == {F(0), F(1, 5)}
    inf = indicial_exponents(ode, INFINITY)
    assert set(inf.exponents) == {F(1, 7), 2 - F(1, 2) - F(1, 3) - F(1, 5) - F(1, 7)}


def test_indicial_polynomial_at_origin():
    # z^2 w'' + z w' - 1/4 w = 0: Euler equation, indicial s^2 - 1/4
    ode = make_ode([RatPoly([0, 0, 1]), RatPoly([0, 1]), RatPoly([F(-1, 4)])])
    ind = indicial_polynomial(ode, F(0))
    assert ind.monic() == RatPoly([F(-1, 4), 0, 1])


def test_ordinary_location_behavior():
    ode = heun_with(F(1, 2), F(5))
    # exponents degenerate to 0..n-1 away from the singular set
    assert sorted(indicial_exponents(ode, F(7)).exponents) == [F(0), F(1)]
    with pytest.raises(NotSingularError):
        is_apparent(ode, F(7))


def test_classify_point_kinds():
    ode = heun_with(F(1, 2), F(5))
    assert classify_point(ode, F(7)).kind is PointKind.ORDINARY
    assert classify_point(ode, F(0)).kind is PointKind.REGULAR
    conf = confluent_heun(
        ConfluentHeunParams(p0=RatPoly([0, 1]), p1=RatPoly([1, -2, 1]), alpha=F(3), q=F(2))
    )
    assert classify_point(conf, INFINITY).kind is PointKind.IRREGULAR


def test_frobenius_series_solves_recurrence():
    ode = heun_with(F(1, 2), F(5))
    sol = frobenius_series(ode, F(0), F(1, 2), 12)
    assert sol.coeffs[0] == 1
    assert sol.obstructions == ()
    assert sol.log_free
    rows = substitution_rows(ode, sol)
    assert all(r == 0 for r in rows)


def test_obstruction_vanishes_at_apparent_point():
    ode = heun_with(F(1, 2), F(5))
    deformed = deform(ode).ode
    sol = frobenius_series(deformed, F(5), F(0), 8)
    assert sol.obstructions == ((2, F(0)),)
    assert sol.log_free
    upper = frobenius_series(deformed, F(5), F(2), 8)
    assert upper.obstructions == ()


def test_obstruction_nonzero_at_log_point():
    # theta1 = 2 gives integer exponents {0, 2} at the origin, but the
    # generic accessory position forces a logarithm
    ode = heun_with(F(2), F(5))
    sol = frobenius_series(ode, F(0), F(0), 8)
    assert len(sol.obstructions) == 1
    offset, value = sol.obstructions[0]
    assert offset == 2 and value != 0
    assert not sol.log_free


def test_is_apparent_at_deformed_accessory_point():
    rng = random.Random(14)
    for _ in range(5):
        ode = general_heun(heun_params(rng))
        q = -ode.coeffs[-1].shifted(F(0))(F(0)) / ode.coeffs[-1].leading  # root of P_2
        verdict = is_apparent(deform(ode).ode, q)
        assert verdict.is_apparent
        assert sorted(verdict.exponents) == [F(0), F(2)]
        assert verdict.holomorphic_dim == 2


def test_is_apparent_failure_reasons():
    ode = heun_with(F(1, 2), F(5))
    v = is_apparent(ode, F(0))
    assert not v.is_apparent and v.failed_condition == "non-integer exponent"

    logs = heun_with(F(2), F(5))
    v = is_apparent(logs, F(0))
    assert not v.is_apparent and v.failed_condition == "nonzero log obstruction"
    assert v.holomorphic_dim == 1

    negative = heun_with(F(-1, 1) - F(1), F(5))  # theta1 = -2: exponents {0, -2}
    v = is_apparent(negative, F(0))
    assert not v.is_apparent and v.failed_condition == "negative exponent"

    euler = make_ode([RatPoly([0, 0, 1]), RatPoly([0, 1]), RatPoly([0])])
    v = is_apparent(euler, F(0))  # double exponent 0
    assert not v.is_apparent and v.failed_condition == "repeated exponents"


def test_truncation_and_coefficient_count():
    # n_terms is the top retained order: coefficients 0..n_terms inclusive
    ode = heun_with(F(1, 2), F(5))
    sol = frobenius_series(ode, F(0), F(0), 20)
    assert len(sol.coeffs) == 21
    assert sol.truncation == 20


def test_wide_gap_points_are_decided_by_the_recurrence():
    # exponent gaps of 423 and 61: the verdict's cost must follow the
    # recurrence (at most n parameters per term), not the cube of the gap
    base = confluent_heun(confluent_params(random.Random(153)))
    deformed = deform(base).ode
    sp = classify_point(deformed, F(-15))
    assert sp.kind is PointKind.REGULAR and sp.exponents == (F(0), F(423))
    assert is_apparent(deformed, F(-15)).holomorphic_dim == 1
    assert undeform(deformed).ode == base

    ode = make_ode([RatPoly([1, 0, 1]), RatPoly([3, 1]), RatPoly([-2, 1]) ** 60])
    v = is_apparent(deform(ode).ode, F(2))
    assert v.is_apparent and v.exponents == (F(0), F(61)) and v.holomorphic_dim == 2


@pytest.mark.parametrize(
    "local", [indicial_polynomial, indicial_exponents, is_apparent, frobenius_series]
)
def test_local_data_at_an_irregular_point_raises(local):
    ode = confluent_heun(ConfluentHeunParams(p0=[0, 0, 1], p1=[1, 0, 1], alpha=1, q=2))
    series_args = (0, 4) if local is frobenius_series else ()
    with pytest.raises(IrregularPointError, match="irregular singular point at inf"):
        local(ode, INFINITY, *series_args)


def test_frobenius_series_at_an_irregular_point_raises():
    # z^3 w'' + w = 0: z = 0 is irregular
    with pytest.raises(IrregularPointError):
        frobenius_series(make_ode([[0, 0, 0, 1], [0], [1]]), 0, 0, 4)


def test_frobenius_series_at_infinity_is_the_series_of_the_pullback():
    ode = heun_with(F(1, 2), F(5))
    pulled = moebius_transform(ode, (0, 1, 1, 0))
    for rho in indicial_exponents(ode, INFINITY).exponents:
        sol = frobenius_series(ode, INFINITY, rho, 6)
        assert sol.point is INFINITY and sol.coeffs == frobenius_series(pulled, 0, rho, 6).coeffs
        assert not any(substitution_rows(ode, sol))


@pytest.mark.parametrize(
    "exponent, n_terms, error, match",
    [
        (F(0), 0, ValueError, "at least one"),
        (F(1, 4), 3, NotAnExponentError, "not an indicial root"),
    ],
)
def test_frobenius_series_refuses_what_it_cannot_compute(exponent, n_terms, error, match):
    ode = heun_with(F(1, 2), F(5))
    with pytest.raises(error, match=match):
        frobenius_series(ode, F(0), exponent, n_terms)

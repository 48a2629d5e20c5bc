import random
from fractions import Fraction

import pytest

from apparent import (
    INFINITY,
    ConfluentHeunParams,
    DegenerateLeadingError,
    HeunParams,
    LinearODE,
    NotAnODEError,
    NotFuchsianError,
    PointKind,
    RatPoly,
    SingularMoebiusError,
    confluent_heun,
    deform,
    fuchs_check,
    general_heun,
    indicial_exponents,
    make_ode,
    moebius_transform,
    riemann_symbol,
    singular_points,
)
from apparent.odemodel import leading_residual

from _gen import heun_params

F = Fraction


def sample_heun():
    return general_heun(
        HeunParams(
            t=F(2),
            theta1=F(1, 2),
            theta2=F(1, 3),
            theta3=F(1, 5),
            theta_inf=F(1, 7),
            alpha=2 - F(1, 2) - F(1, 3) - F(1, 5) - F(1, 7),
            q=F(5),
        )
    )


def test_canonical_scaling_makes_leading_monic():
    ode = make_ode([[2], [0], [2]])
    assert ode.coeffs == (RatPoly([1]), RatPoly([0]), RatPoly([1]))


def test_canonical_form_strips_common_factor():
    shared = RatPoly([-5, 1])
    a = RatPoly([0, -1, 1])
    b = RatPoly([3, 2])
    c = RatPoly([7])
    ode = make_ode([shared * a * 3, shared * b * 3, shared * c * 3])
    assert ode.coeffs == (a, b, c)
    # powers of z as the common factor, or in it: the gcd is taken with
    # each coefficient's own power of z divided out, the least one put back
    z, zero = RatPoly([0, 1]), RatPoly()
    for coeffs in ((a, b, c), (a, zero, c), (c, b, zero), (shared * a, b * a, c * a)):
        for k in (1, 2, 3):
            assert make_ode([z**k * p * 3 for p in coeffs]) == make_ode(coeffs)
    # all vanish at 0 to different powers of z, as after a pullback to infinity
    assert make_ode([z**2 * a, z**2 * b, z * c]) == make_ode([z * a, z * b, c])
    assert make_ode([z * a, z**2 * b, z**3 * c]) == make_ode([a, z * b, z**2 * c])
    assert make_ode([z**3 * shared, z**2 * shared * b, z**4 * c * shared]) == make_ode(
        [z, b, z**2 * c])
    # P_0(0) = 0 with no common factor
    assert make_ode([a, b, c]).coeffs == (a, b, c)
    assert make_ode([a, zero, z + 1]).coeffs == (a, zero, z + 1)


@pytest.mark.parametrize("build", [make_ode, LinearODE], ids=["make_ode", "LinearODE"])
def test_make_ode_rejects_degenerate_input(build):
    with pytest.raises(DegenerateLeadingError):
        build([[0], [1]])
    with pytest.raises(DegenerateLeadingError):
        build((RatPoly(), RatPoly([1]), RatPoly([0, 1])))
    with pytest.raises(NotAnODEError):
        build([[1]])
    with pytest.raises(NotAnODEError):
        build(())


def test_constructor_canonicalizes_like_make_ode():
    # no LinearODE out of canonical form exists: the constructor divides
    # out a constant and a common polynomial factor as make_ode does
    coeffs = [[0, -1, 1], [3, 2], [7]]
    ode = make_ode(coeffs)
    assert LinearODE(coeffs) == ode
    for factor in (RatPoly([2]), RatPoly([-5, 1])):
        scaled = tuple(factor * RatPoly(c) for c in coeffs)
        assert LinearODE(scaled) == make_ode(scaled) == ode
    assert LinearODE([[2], [0], [2]]) == make_ode([[1], [0], [1]])
    assert not LinearODE([[1], [0], [1]]).degree_convention


def test_an_equation_equals_no_other_kind_of_object():
    ode = make_ode([[1], [0], [1]])
    assert ode.__eq__(ode.coeffs) is NotImplemented
    assert ode != ode.coeffs and ode != 1 and ode != "ode"
    assert ode == LinearODE(ode.coeffs)


def test_degree_convention_flag():
    # Heun: deg P_0 = 3 exceeds the order and dominates the rest
    assert sample_heun().degree_convention
    # constant-coefficient equation: deg P_0 = 0 never exceeds the order
    assert not make_ode([[2], [0], [2]]).degree_convention


def test_degree_convention_is_read_off_the_coefficients():
    # a directly built equation reports it too, not only make_ode's output
    assert LinearODE(sample_heun().coeffs).degree_convention
    assert not LinearODE(make_ode([[2], [0], [2]]).coeffs).degree_convention
    # deg P_1 = 4 above deg P_0 = 3 breaks the pattern
    assert not make_ode([[0, 3, -4, 1], [0, 0, 0, 0, 1], [1]]).degree_convention


def test_heun_singular_set():
    pts = singular_points(sample_heun())
    locs = {sp.location for sp in pts}
    assert locs == {F(0), F(1), F(2), INFINITY}
    assert all(sp.kind is PointKind.REGULAR for sp in pts)


def test_deformed_heun_gains_one_apparent_point():
    ode = sample_heun()
    res = deform(ode)
    pts = singular_points(res.ode)
    locs = {sp.location for sp in pts}
    assert locs == {F(0), F(1), F(2), F(5), INFINITY}
    kinds = {sp.location: sp.kind for sp in pts}
    assert kinds[F(5)] is PointKind.APPARENT
    assert all(kinds[z] is PointKind.REGULAR for z in (F(0), F(1), F(2)))


def test_fuchs_check_on_heun():
    report = fuchs_check(sample_heun())
    assert report.is_fuchsian and report.complete and report.identity_holds
    assert report.num_singular == 4
    assert report.exponent_sum == 2
    assert report.expected_sum == 2


def test_fuchs_check_flags_irregular():
    # constant P_0 with quadratic P_1 forces an irregular point at infinity
    report = fuchs_check(make_ode([[1], [0, 0, 1], [1]]))
    assert not report.is_fuchsian


def test_moebius_inversion_swaps_zero_and_infinity():
    ode = sample_heun()
    flipped = moebius_transform(ode, (0, 1, 1, 0))  # z -> 1/zeta
    at_zero = indicial_exponents(flipped, F(0))
    at_inf = indicial_exponents(ode, INFINITY)
    assert sorted(at_zero.exponents) == sorted(at_inf.exponents)
    # and the finite points land on their reciprocals
    locs = {sp.location for sp in singular_points(flipped)}
    assert locs == {F(0), F(1), F(1, 2), INFINITY}


def test_moebius_translation_moves_exponents():
    rng = random.Random(3)
    ode = general_heun(heun_params(rng))
    shift = moebius_transform(ode, (1, -3, 0, 1))  # z = zeta - 3
    orig = indicial_exponents(ode, F(0))
    moved = indicial_exponents(shift, F(3))
    assert sorted(orig.exponents) == sorted(moved.exponents)


def test_moebius_rejects_singular_matrix():
    with pytest.raises(SingularMoebiusError):
        moebius_transform(sample_heun(), (1, 2, 2, 4))


def test_riemann_symbol_layout():
    ode = deform(sample_heun()).ode
    sym = riemann_symbol(ode)
    cols = {c.location: set(c.exponents) for c in sym.columns}
    # derivative shifts the nonzero exponent down by one at each base point
    assert cols[F(0)] == {F(0), F(1, 2) - 1}
    assert cols[F(1)] == {F(0), F(1, 3) - 1}
    assert cols[F(5)] == {F(0), F(2)}
    assert sym.apparent_params == ((F(5), "apparent"),)
    text = sym.pretty()
    assert "inf" in text and "5 (apparent)" in text


def test_fuchs_sum_shifts_by_two_under_deform():
    # one extra finite point, exponents {0, 2}: the identity stays exact
    ode = sample_heun()
    report = fuchs_check(deform(ode).ode)
    assert report.is_fuchsian and report.identity_holds
    assert report.num_singular == 5
    assert report.exponent_sum == 3


def test_riemann_symbol_of_an_irregular_equation_raises():
    ode = confluent_heun(ConfluentHeunParams(p0=[0, 0, 1], p1=[1, 0, 1], alpha=1, q=2))
    with pytest.raises(NotFuchsianError):
        riemann_symbol(ode)


def test_riemann_symbol_with_irrational_singular_points_raises():
    # (z^2 - 2) w'' + w = 0: the singular points are +-sqrt(2)
    with pytest.raises(NotFuchsianError) as info:
        riemann_symbol(make_ode([[-2, 0, 1], [0], [1]]))
    assert info.value.details == {"unresolved_factor": "z^2 - 2"}


def test_leading_residual_is_none_when_every_root_is_rational():
    assert leading_residual(make_ode([[0, -1, 1], [0], [1]])) is None
    assert leading_residual(make_ode([[-2, 0, 1], [0], [1]])) == RatPoly([-2, 0, 1])


@pytest.mark.parametrize(
    "ode, complete",
    [
        (sample_heun(), True),
        (deform(sample_heun()).ode, True),
        # w' (z + 1) + 2 w = 0: infinity is apparent
        (make_ode([[1, 1], [2]]), True),
        # Euler equation z^2 w'' + z w' - 2 w = 0: exponents +-sqrt 2 at 0 and infinity
        (make_ode([[0, 0, 1], [0, 1], [-2]]), False),
    ],
    ids=["heun", "deformed", "apparent-infinity", "irrational"],
)
def test_riemann_columns_are_the_indicial_records(ode, complete):
    columns = riemann_symbol(ode).columns
    assert [c.location for c in columns] == [p.location for p in singular_points(ode)]
    for col in columns:
        record = indicial_exponents(ode, col.location)
        assert col == record and col.complete == record.complete == complete


@pytest.mark.parametrize(
    "coeffs, pretty",
    [
        # P_2 = 0 has no accessory zeros; 0 is apparent with exponents {0, 2}
        ([[0, -1, 1], [1], [0]],
         "P(  0  1  inf  | 0 (apparent)  ; z )\n    0  0  -1\n    2  0  0"),
        # z^2 w'' + z w' - 2 w = 0: exponents +-sqrt(2) at 0 and infinity
        ([[0, 0, 1], [0, 1], [-2]],
         "P(  0                 inf  ; z )\n    roots of s^2 - 2  roots of s^2 - 2"),
    ],
)
def test_riemann_symbol_of_edge_equations(coeffs, pretty):
    assert riemann_symbol(make_ode(coeffs)).pretty() == pretty

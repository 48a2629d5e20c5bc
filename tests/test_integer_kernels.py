"""The integer kernels under local analysis agree with rational arithmetic.

RatPoly.shifted and the Stirling table behind the indicial tables work
on integer coefficient lists; these properties pin them to plain RatPoly
references.  The Moebius pullback is composed from Taylor shifts, a
scaling and the Lah-number inversion; it is pinned to the group law of
Moebius maps and to the former power-basis expansion kept in
``_moebius_reference.py``, on matrices with each entry zero in turn.
"""

import random
from fractions import Fraction as F

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apparent import (
    RatPoly,
    confluent_heun,
    deform,
    general_heun,
    moebius_transform,
    multi_heun,
    third_order_example,
)
from apparent.odemodel import _stirling_rows

from _gen import confluent_params, heun_params, multi_params, third_params
from _moebius_reference import reference_moebius

big = st.integers(-(2**64), 2**64)
rationals = st.builds(F, big, st.integers(1, 2**64))


def horner_shift(p: RatPoly, a) -> RatPoly:
    """p(z + a) by Horner's rule in RatPoly arithmetic."""
    za = RatPoly([a, 1])
    acc = RatPoly()
    for c in reversed(p.coeffs):
        acc = acc * za + c
    return acc


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, max_size=9), st.one_of(st.just(F(0)), big.map(F), rationals))
def test_shift_matches_horner_reference(coeffs, a):
    p = RatPoly(coeffs)
    shifted = p.shifted(a)
    assert shifted == horner_shift(p, a)
    assert all(type(c) is F for c in shifted.coeffs)


def test_shift_of_zero_constant_and_by_zero():
    assert RatPoly().shifted(F(7, 3)).is_zero
    assert RatPoly([F(-5, 2)]).shifted(F(1, 3)) == RatPoly([F(-5, 2)])
    p = RatPoly([1, F(2, 3), 0, -4])
    assert p.shifted(0) == p
    assert p.shifted(F(-1, 2)) == RatPoly([F(7, 6), F(-7, 3), 6, -4])


def test_stirling_rows_are_falling_factorials():
    rows = _stirling_rows(8)
    assert len(rows) == 9
    falling = RatPoly([1])
    for m, row in enumerate(rows):
        assert all(type(c) is int for c in row)
        assert RatPoly(row) == falling
        falling = falling * RatPoly([-m, 1])


FAMILIES = (
    lambda rng: general_heun(heun_params(rng)),
    lambda rng: multi_heun(multi_params(rng, 4)),
    lambda rng: third_order_example(third_params(rng)),
    lambda rng: confluent_heun(confluent_params(rng)),
)
small = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
matrices = st.tuples(small, small, small, small).filter(lambda m: m[0] * m[3] != m[1] * m[2])


@st.composite
def equations(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    ode = FAMILIES[draw(st.integers(0, len(FAMILIES) - 1))](rng)
    return deform(ode).ode if draw(st.booleans()) else ode


def compose(m1, m2):
    """Matrix of z = m1(m2(w)) for z = m1(zeta), zeta = m2(w)."""
    a, b, c, d = m1
    e, f, g, h = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


@settings(max_examples=30, deadline=None)
@given(equations(), small)
def test_inversion_twice_and_translation_back_are_identity(ode, shift):
    flip = (0, 1, 1, 0)
    assert moebius_transform(moebius_transform(ode, flip), flip) == ode
    moved = moebius_transform(ode, (1, shift, 0, 1))
    assert moebius_transform(moved, (1, -shift, 0, 1)) == ode


@settings(max_examples=30, deadline=None)
@given(equations(), matrices, matrices)
def test_moebius_composes_and_inverts(ode, m1, m2):
    a, b, c, d = m1
    once = moebius_transform(ode, m1)
    assert moebius_transform(once, m2) == moebius_transform(ode, compose(m1, m2))
    assert moebius_transform(once, (d, -b, -c, a)) == ode


@st.composite
def matrices_with_a_zero(draw):
    """Invertible matrices; in most draws one chosen entry is zero."""
    m = list(draw(st.tuples(small, small, small, small)))
    zero = draw(st.sampled_from((None, 0, 1, 2, 3)))
    if zero is not None:
        m[zero] = F(0)
    assume(m[0] * m[3] != m[1] * m[2])
    return tuple(m)


@settings(max_examples=80, deadline=None)
@given(equations(), matrices_with_a_zero())
@example(general_heun(heun_params(random.Random(5))), (0, 1, 1, 0))
@example(general_heun(heun_params(random.Random(5))), (F(3, 2), 0, 0, F(-1, 3)))
def test_moebius_matches_power_basis_reference(ode, m):
    got = moebius_transform(ode, m)
    want = reference_moebius(ode, m)
    assert got.coeffs == want.coeffs
    assert got.degree_convention == want.degree_convention
    assert all(type(c) is F for p in got.coeffs for c in p.coeffs)

"""The integer kernels under local analysis agree with rational arithmetic.

RatPoly.shifted and the Stirling table behind the indicial tables work
on integer coefficient lists; these properties pin them to plain RatPoly
references, and _LocalData's one integer Horner pass for P_0(q) and
P_0'(q) is pinned to RatPoly evaluation.  polyrat's one division loop
(_int_divmod, under _int_divexact and _pseudo_divmod) is pinned to
division over Q in ``_fraction_poly.py``, and its one Horner loop
(_int_eval) to Fraction evaluation.  The Moebius pullback is composed
from Taylor shifts, a scaling and the Lah-number inversion; it is pinned
to the group law of Moebius maps and to the former power-basis expansion
kept in ``_moebius_reference.py``, on matrices with each entry zero in
turn.
"""

import math
import random
from fractions import Fraction as F

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apparent import (
    RatPoly,
    confluent_heun,
    deform,
    deform_iter,
    general_heun,
    make_ode,
    moebius_transform,
    multi_heun,
    rational_roots,
    third_order_example,
)
from apparent.frobenius import _LocalData
from apparent.odemodel import _stirling_rows
from apparent.polyrat import _int_divexact, _int_divmod, _int_eval, _pseudo_divmod, root_multiplicity

import _fraction_poly as fp
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


def test_stirling_rows_are_built_once_per_order():
    for n in range(9):
        rows = _stirling_rows(n)
        assert type(rows) is tuple and len(rows) == n + 1
        for m, row in enumerate(rows):
            assert type(row) is tuple
            # s(s-1)...(s-m+1) at s = 0..11 is perm(s, m), zero for s < m
            assert [sum(c * s**i for i, c in enumerate(row)) for s in range(12)] == [
                math.perm(s, m) for s in range(12)]
        # one shared table per order, which no caller can edit
        assert _stirling_rows(n) is rows


def check_head(ode, q):
    """_LocalData's v0, head and tail at q against RatPoly arithmetic:
    (0, P_0(q), 0) at an ordinary point, (1, P_0'(q), P_1(q)) at a simple
    root of P_0, and at a multiple root v0 = ord_q P_0 from the table."""
    data = _LocalData(ode, q)
    p0 = ode.leading
    value, slope = p0(q), p0.derivative()(q)
    if value:
        want = 0, value, 0
    elif slope:
        want = 1, slope, ode.coeffs[1](q)
    else:
        want = root_multiplicity(p0, q), 0, 0
        assert want[0] >= 2
    assert (data.v0, data.head, data.tail) == want, (ode, q)
    return data.v0


def test_one_horner_pass_reads_p0_and_its_derivative():
    z = RatPoly([0, 1])
    double = RatPoly.from_roots([F(-7, 3), F(-7, 3), 0, 4])
    ladder = [make_ode([double, z * 3 - 1, RatPoly([F(5, 2)])]),
              make_ode([RatPoly.from_roots([F(1, 2)] * 3 + [-2]), z + 1, z * z, RatPoly([1])])]
    rng = random.Random("one Horner pass")
    for family in FAMILIES:
        for _draw in range(3):
            base = family(rng)
            ladder += [base] + [stage.ode for stage in deform_iter(base, 2)]
    seen = set()
    for ode in ladder:
        # every root of P_0, the origin, an ordinary point, a negative
        # non-integer point, and the origin of the pullback to infinity
        roots = [q for q, _m in rational_roots(ode.leading)[0]]
        for q in roots + [F(0), F(13, 5), F(-7, 3)]:
            seen.add(check_head(ode, q))
        seen.add(check_head(moebius_transform(ode, (0, 1, 1, 0)), F(0)))
    assert {0, 1, 2, 3} <= seen


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


coefficients = st.integers(-60, 60)
divisors = st.builds(lambda low, lead: low + [lead], st.lists(coefficients, max_size=3),
                     coefficients.filter(bool))


def as_ints(cs) -> list[int]:
    """A trimmed Fraction tuple of integral values as an int list."""
    assert all(c.denominator == 1 for c in cs)
    return [int(c) for c in cs]


@st.composite
def division_pairs(draw):
    """(a, b), a trimmed: drawn freely (mostly a quotient that is not
    integral), as q b (exact), or as q b + r with deg r < deg b (an
    integral quotient and, mostly, a nonzero remainder)."""
    b = draw(divisors)
    kind = draw(st.sampled_from(("free", "exact", "remainder")))
    if kind == "free":
        a = fp.trim(draw(st.lists(coefficients, max_size=8)))
    else:
        a = fp.mul(fp.trim(draw(st.lists(coefficients, max_size=5))), fp.trim(b))
        if kind == "remainder":
            a = fp.add(a, fp.trim(draw(st.lists(coefficients, max_size=len(b) - 1))))
    return as_ints(a), b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(division_pairs())
@example(([1, 0, 1], [1, 2]))  # non-monic b: the quotient 1/2 z - 1/4 is not integral
@example(([6, 3, 2], [1, 2]))  # non-monic b, quotient z + 1, remainder 5
@example(([-1, 1, 2], [-1, 2]))  # non-monic b dividing exactly
@example(([3], [1, 0, 2]))  # len(a) < len(b)
@example(([7, 1], [2, 0, 0, 5]))  # len(a) < len(b)
@example(([3, 6, -9], [3]))  # constant b dividing exactly
@example(([1, 6], [-3]))  # constant b, quotient not integral
@example(([], [1, 2]))  # zero a
@example(([], [4]))  # zero a, constant b
def test_division_kernels_match_division_over_q(pair):
    a, b = pair
    quot, rem = fp.divmod_(fp.trim(a), fp.trim(b))
    integral = all(c.denominator == 1 for c in quot)
    qr = _int_divmod(a, b)
    if integral:
        q, r = qr
        assert q == as_ints(quot) and fp.trim(r) == rem and len(r) < len(b)
    else:
        assert qr is None
    # None exactly when the quotient over Q is not integral or the
    # remainder is nonzero
    exact = _int_divexact(a, b)
    assert exact == (as_ints(quot) if integral and not rem else None)
    k, q, r = _pseudo_divmod(a, b)
    assert k == max(len(a) - len(b) + 1, 0)
    quot, rem = fp.divmod_(fp.trim([b[-1] ** k * v for v in a]), fp.trim(b))
    assert q == as_ints(quot) and fp.trim(r) == rem and len(r) < len(b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(-(2**70), 2**70), max_size=7), st.integers(-(10**6), 10**6),
       st.one_of(st.just(0), st.integers(1, 10**9), st.just(2**61 - 1)), st.integers(1, 10**4))
@example([], 3, 0, 1)  # empty list
@example([], -3, 11, 7)
@example([9], -4, 0, 5)  # constants: v^0 = 1
@example([-9], 2, 7, 3)
@example([1, -2, 3], -5, 0, 4)  # negative y, v > 1
@example([1, -2, 3], -5, 11, 4)  # and a modulus
@example([5, 0, 0, -1], 3, 0, 1)
def test_horner_matches_fraction_evaluation(coeffs, y, modulus, v):
    # v^d times the value at y/v, d = len(coeffs) - 1, reduced mod modulus
    want = fp.evaluate(coeffs, F(y, v)) * F(v) ** max(len(coeffs) - 1, 0)
    assert want.denominator == 1
    want = int(want) % modulus if modulus else int(want)
    assert _int_eval(coeffs, y, modulus, v) == want
    if v == 1:
        assert _int_eval(coeffs, y, modulus) == want

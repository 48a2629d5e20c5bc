"""``RatPoly``'s integer form against the ``Fraction`` oracle of ``_fraction_poly``.

The integer form (content x primitive integer list) is a ``RatPoly``'s
only state; ``coeffs`` builds a view of it on each read, and ``coeff``
reads one entry.  Every operation must give the coefficients the
``Fraction`` arithmetic gives, and every polynomial it returns must
carry a valid form: content > 0, gcd of the integer list 1, a nonzero
last entry, and content times the list equal to ``coeffs``.  Its
equality and hash must agree with those of the polynomial rebuilt from
the view.
The strategies mix small fractions with 200-bit numerators and
denominators, and the draws are derandomized.
"""

import math
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from apparent import RatPoly, exact_div, make_ode, radical

import _fraction_poly as oracle

BIG = 1 << 200

small = st.fractions(min_value=-9, max_value=9, max_denominator=12)
big = st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
coefficient = st.one_of(st.just(F(0)), small, big)
polys = st.lists(coefficient, max_size=5).map(RatPoly)
points = st.one_of(st.integers(-7, 7), small, big)


def checked(p: RatPoly) -> tuple:
    """p.coeffs, after asserting that p's integer form is valid, that
    p equals and hashes like RatPoly(p.coeffs) on two reads of the view,
    and that p.coeff(i) reads the same coefficients, zero outside."""
    ints, content = p._form
    h = hash(p)
    for _ in range(2):
        twin = RatPoly(p.coeffs)
        assert twin == p and p == twin and hash(twin) == hash(p) == h
    assert tuple(p.coeff(i) for i in range(-1, p.degree + 2)) == (0, *p.coeffs, 0)
    if not ints:
        assert p.coeffs == () and content == 0
    else:
        assert content > 0
        assert math.gcd(*ints) == 1
        assert ints[-1] != 0
        assert tuple(content * v for v in ints) == p.coeffs
    return p.coeffs


Z2 = RatPoly([0, 0, 1])
NEG = RatPoly([F(1, 3), F(-2, 3 * BIG - 1)])
HUGE = RatPoly([F(BIG - 1, BIG + 1), 0, F(-5, BIG)])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(polys, polys, points)
@example(RatPoly(), RatPoly(), 0)
@example(RatPoly([F(-3, 4)]), RatPoly([6]), F(1, 2))
@example(Z2, Z2, 3)
@example(NEG, -NEG, F(-1, BIG))
@example(HUGE, NEG, F(BIG, 3))
def test_integer_form_agrees_with_fraction_arithmetic(p, q, x):
    a, b = checked(p), checked(q)
    for u, v, pu, pv in ((a, b, p, q), (a, a, p, p)):
        assert checked(pu + pv) == oracle.add(u, v)
        assert checked(pu - pv) == oracle.sub(u, v)
        assert checked(pu * pv) == oracle.mul(u, v)
    assert checked(-p) == oracle.neg(a)
    assert checked(p.derivative()) == oracle.derivative(a)
    assert checked(p + 3) == checked(3 + p) == oracle.add(a, (F(3),))
    assert checked(F(-1, 2) - p) == oracle.sub((F(-1, 2),), a)
    assert checked(p * F(-2, 3)) == oracle.mul(a, (F(-2, 3),))
    assert checked(p / F(-5, 7)) == oracle.mul(a, (F(-7, 5),))
    assert p(x) == oracle.evaluate(a, F(x))
    assert p._form == oracle.integer_primitive(a)
    assert (p == q) == (a == b) and (p == 2 * p) == (not a)
    assert checked(p.shifted(x)) == oracle.shift(a, x)
    if not p.is_zero:
        assert checked(p.monic()) == oracle.monic(a)
        assert checked(radical(p * p)) == oracle.radical(oracle.mul(a, a))
        ode = make_ode([p, q, p * q])
        assert tuple(map(checked, ode.coeffs)) == oracle.make_ode([a, b, oracle.mul(a, b)])
    if not q.is_zero:
        assert checked(exact_div(p * q, q)) == oracle.exact_div(oracle.mul(a, b), b)
        quot, rem = divmod(p, q)
        assert (checked(quot), checked(rem)) == oracle.divmod_(a, b)
        assert checked(p % q) == oracle.divmod_(a, b)[1]

"""GCDHEU gcd and integer exact division against the Euclidean oracles.

``poly_gcd``, ``radical``, ``exact_div`` and ``make_ode`` work on integer
primitive parts: the gcd is the heuristic GCDHEU, whose candidate is
accepted only when it divides both inputs over Z, with the Euclidean
algorithm as the fallback.  The oracles in ``_euclid_gcd`` are the
former ``Fraction`` bodies; every result here must equal theirs.
"""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apparent import (
    RatPoly,
    ZeroPolynomialError,
    deform,
    exact_div,
    general_heun,
    make_ode,
    radical,
)
from apparent import odemodel, polyrat, transform
from apparent.polyrat import poly_gcd

from _euclid_gcd import euclid_gcd, euclid_int_gcd, schoolbook_exact_div
from _gen import heun_params

small = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
wide = st.builds(F, st.integers(-(2**110), 2**110), st.integers(1, 2**20))


def polys(coeff=small, max_degree=3):
    return st.lists(coeff, min_size=1, max_size=max_degree + 1).map(RatPoly)


def first_xi(a: RatPoly, b: RatPoly) -> int:
    """The first GCDHEU evaluation point for a and b."""
    norms = [max(map(abs, p._form[0])) for p in (a, b)]
    return 2 * min(norms) + 29


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), polys())
def test_gcd_matches_euclid_on_shared_factors(f, g, h):
    a, b = f * g, f * h
    if a.is_zero and b.is_zero:
        return
    assert poly_gcd(a, b) == euclid_gcd(a, b)


@settings(max_examples=60, deadline=None)
@given(polys(wide, 3), polys(), polys())
def test_gcd_matches_euclid_with_wide_coefficients(f, g, h):
    a, b = f * g, f * h
    if a.is_zero and b.is_zero:
        return
    assert poly_gcd(a, b) == euclid_gcd(a, b)


def test_large_shared_factor():
    rng = random.Random(11)
    f = RatPoly([F(rng.getrandbits(120) - 2**119, rng.randint(1, 9)) for _ in range(5)])
    g = RatPoly([F(-3, 5), 2, 7])
    h = RatPoly([4, F(1, 3), 0, -1])
    assert max(abs(c.numerator).bit_length() for c in (f * g).coeffs) > 100
    assert poly_gcd(f * g, f * h) == euclid_gcd(f * g, f * h) == f.monic()


def test_input_vanishing_at_the_first_xi():
    # a shared factor has all its integer roots below the first xi, but
    # the input with the larger norm may vanish there: the integer gcd is
    # then |a(xi)|, the candidate a does not divide b, and xi grows
    a = RatPoly([1, 1]) * RatPoly([2, 1])
    b = RatPoly([1, 1]) * RatPoly([-35, 1])
    assert first_xi(a, b) == 35 and b(35) == 0
    assert poly_gcd(a, b) == euclid_gcd(a, b) == RatPoly([1, 1])


def test_coprime_pair_whose_first_candidate_is_wrong():
    # gcd(a(37), b(37)) = 20, whose symmetric 37-adic digits read z - 17;
    # only the division check rejects it
    a, b = RatPoly([-2, 9, 1]), RatPoly([-1, -4, 1])
    assert first_xi(a, b) == 37
    assert poly_gcd(a, b) == euclid_gcd(a, b) == RatPoly([1])


def test_constant_and_zero_inputs():
    p = RatPoly([F(1, 2), 3, 1])
    assert poly_gcd(p, RatPoly([F(-5, 3)])) == RatPoly([1])
    assert poly_gcd(RatPoly([7]), p) == RatPoly([1])
    assert poly_gcd(p, RatPoly()) == poly_gcd(RatPoly(), p) == p.monic()


def test_euclid_fallback_gives_the_same_answers(monkeypatch):
    rng = random.Random(5)
    cases = [(RatPoly([-2, 9, 1]), RatPoly([-1, -4, 1]))]
    for _ in range(20):
        f = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)] + [1])
        g = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2)] + [1])
        h = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)] + [2])
        cases.append((f * g, f * h))
    ode = general_heun(heun_params(random.Random(3)))
    before = ([poly_gcd(a, b) for a, b in cases], [radical(a * a) for a, _b in cases],
              deform(ode).ode)
    monkeypatch.setattr(polyrat, "_HEU_TRIES", 0)
    after = ([poly_gcd(a, b) for a, b in cases], [radical(a * a) for a, _b in cases],
             deform(ode).ode)
    assert before == after
    assert after[0] == [euclid_gcd(a, b) for a, b in cases]


def test_primitive_remainder_sequence_matches_euclid_on_integer_lists(monkeypatch):
    # with no GCDHEU point tried, _int_gcd is the primitive remainder
    # sequence alone; its inputs are primitive lists of either leading sign
    rng = random.Random("primitive remainder sequence")

    def draw(degree):
        return [rng.randint(-20, 20) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]

    def primitive(ints):
        return polyrat._primitive(list(ints))[0]

    pairs = [([1, 1], [2, 1]), ([-2, 9, 1], [-1, -4, 1]), ([3, 0, -1], [1, 0, 0, -7])]  # coprime
    for _ in range(40):
        f, g, h = draw(rng.randint(1, 3)), draw(rng.randint(0, 3)), draw(rng.randint(0, 3))
        a, b = polyrat._list_mul(f, g), polyrat._list_mul(f, h)
        pairs += [(a, b), (a, f), (f, a), (a, a), ([-v for v in a], b)]
    monkeypatch.setattr(polyrat, "_HEU_TRIES", 0)
    seen = set()
    for a, b in pairs:
        a, b = primitive(a), primitive(b)
        if len(a) == 1 or len(b) == 1:
            continue
        g = polyrat._int_gcd(a, b)
        assert g == euclid_int_gcd(a, b), (a, b)
        seen.add((a[-1] < 0 or b[-1] < 0, len(g) > 1, g == a or g == b))
    assert len(seen) == 6, seen


def test_exact_div_with_different_contents():
    b = F(11, 4) * RatPoly([F(-1, 2), 1])
    a = b * F(-3, 7) * RatPoly([F(5, 3), 1, F(2, 9)])
    assert exact_div(a, b) == schoolbook_exact_div(a, b) == F(-3, 7) * RatPoly([F(5, 3), 1, F(2, 9)])


def test_exact_div_by_a_constant():
    p = RatPoly([F(1, 2), -3, F(7, 5)])
    assert exact_div(p, RatPoly([F(-2, 3)])) == p / F(-2, 3)


def test_exact_div_of_zero():
    assert exact_div(RatPoly(), RatPoly([1, F(1, 3)])).is_zero


def test_exact_div_by_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        exact_div(RatPoly([1, 1]), RatPoly())


@pytest.mark.parametrize("a, b", [
    (RatPoly([1, 0, 1]), RatPoly([-1, 1])),           # remainder 2
    (RatPoly([1, F(1, 2)]), RatPoly([0, 0, 3])),       # divisor of higher degree
    (RatPoly([0, 1, 1]), RatPoly([1, 2])),             # leading quotient not integral
])
def test_inexact_division_names_the_remainder(a, b):
    r = divmod(a, b)[1]
    with pytest.raises(ValueError, match=re.escape(f"remainder {r!r}")):
        exact_div(a, b)


def test_make_ode_divides_the_common_factor():
    f = RatPoly([F(-1, 3), 1])
    p0, p1, p2 = RatPoly([0, F(2, 5), 1]), RatPoly([F(7, 2), 1]), RatPoly([F(-4, 9)])
    ode = make_ode([F(3, 2) * f * p0, -4 * f * p1, F(1, 7) * f * p2])
    lead = F(3, 2)
    assert ode.coeffs == (p0, F(-4) / lead * p1, F(1, 7) / lead * p2)


def test_deep_ladder_matches_the_euclid_oracle(monkeypatch):
    rng = random.Random(20261018)
    bases = [general_heun(heun_params(rng)) for _ in range(2)]

    def ladders():
        out = []
        for ode in bases:
            for _ in range(8):
                ode = deform(ode).ode
                out.append(ode)
        return out

    fast = ladders()
    for module in (odemodel, polyrat):
        monkeypatch.setattr(module, "_int_gcd", euclid_int_gcd)
    for module in (polyrat, transform):
        monkeypatch.setattr(module, "exact_div", schoolbook_exact_div)
    assert ladders() == fast

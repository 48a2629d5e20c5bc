import copy
import math
import operator
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apparent import (
    BothZeroError,
    RatPoly,
    ZeroPolynomialError,
    exact_div,
    radical,
    rational_roots,
)
from apparent import polyrat
from apparent.polyrat import poly_gcd, root_multiplicity

from _closed_form_roots import closed_form_rational_roots
from _gen import planted_roots_poly
from test_int_form import checked

F = Fraction


def rand_poly(rng, degree):
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree)]
    coeffs.append(F(rng.randint(1, 9), rng.randint(1, 9)))
    return RatPoly(coeffs)


def test_construction_and_basic_ops():
    p = RatPoly([F(1, 2), 0, 1])  # z^2 + 1/2
    assert p.degree == 2
    assert p(F(2)) == F(9, 2)
    assert (p - p).is_zero
    assert RatPoly([0, 0, 3, 1]).valuation() == 2
    assert RatPoly([2, 4]).monic() == RatPoly([F(1, 2), 1])


@pytest.mark.parametrize("value", [None, [1], 1j])
def test_as_fraction_names_what_it_cannot_read(value):
    with pytest.raises(TypeError, match=f"cannot interpret {re.escape(repr(value))} as an exact rational"):
        polyrat.as_fraction(value)


def test_shift_evaluates_at_offset():
    p = RatPoly([1, -2, 1])  # (z-1)^2
    s = p.shifted(F(1))
    assert s == RatPoly([0, 0, 1])


def test_gcd_of_shared_linear_factor():
    a = RatPoly.from_roots((F(3), F(3), F(-1)))
    b = RatPoly.from_roots((F(3), F(5)))
    assert poly_gcd(a, b) == RatPoly([-3, 1])


def test_gcd_coprime_is_one():
    assert poly_gcd(RatPoly([1, 1]), RatPoly([2, 1])) == RatPoly([1])


def test_radical_strips_multiplicity():
    p = RatPoly([0, 0, 0, -1, 1])  # z^3 (z - 1)
    assert radical(p) == RatPoly([0, -1, 1])


def test_rational_roots_with_multiplicities():
    p = RatPoly.from_roots((F(2), F(2), F(-1, 3)))
    roots, residual = rational_roots(p)
    assert set(roots) == {(F(2), 2), (F(-1, 3), 1)}
    assert residual == RatPoly([1])


def test_rational_roots_leaves_irrational_residual():
    # (z^2 - 2)(z - 1): only the rational root comes out
    p = RatPoly([-2, 0, 1]) * RatPoly([-1, 1])
    roots, residual = rational_roots(p)
    assert roots == [(F(1), 1)]
    assert residual == RatPoly([-2, 0, 1])


def test_from_roots_is_the_product_of_its_linear_factors():
    rng = random.Random("from_roots")
    for k in range(12):
        roots = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k % 5)]
        roots.append(F(rng.getrandbits(80) - 2**79, rng.getrandbits(70) | 1))
        leading = (0, 1, F(-7, 3), F(2**65 + 1, 3**41))[k % 4]
        expect = RatPoly([leading])
        for r in roots:
            expect = expect * RatPoly([-r, 1])
        assert checked(RatPoly.from_roots(roots, leading)) == checked(expect)
    assert RatPoly.from_roots([], F(-2, 3)) == RatPoly([F(-2, 3)])
    assert RatPoly.from_roots(["1/2", 3], 0) == RatPoly() and checked(RatPoly.from_roots([5], 0)) == ()


def test_rational_roots_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        rational_roots(RatPoly())


def expected_factorization(lead, roots, quad):
    """leading * prod (z - r)^m * quad, and what rational_roots should return."""
    p = RatPoly([lead]) * quad
    for r, m in roots:
        p = p * RatPoly([-r, 1]) ** m
    return p, sorted(roots), quad.monic()


def is_rational_square(x: Fraction) -> bool:
    return x >= 0 and all(math.isqrt(v) ** 2 == v for v in (x.numerator, x.denominator))


def rand_irreducible_quadratic(rng, bits):
    while True:
        b = F(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))
        c = F(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))
        if not is_rational_square(b * b - 4 * c):
            return RatPoly([c, b, 1])


def test_rational_roots_without_any_root_above_degree_two():
    assert rational_roots(RatPoly([-2, 0, 0, 1])) == ([], RatPoly([-2, 0, 0, 1]))
    p = RatPoly([1, 0, 1]) * RatPoly([-3, 0, 1])
    assert rational_roots(3 * p) == ([], p)


def test_rational_roots_when_small_primes_cannot_separate_the_roots():
    # every prime through 13 divides the leading coefficient or leaves
    # two roots congruent modulo it, so the prime search runs on to 17
    roots = [(F(k, 7), 1) for k in range(-5, 6)] + [(F(1, 30), 3)]
    p, want, residual = expected_factorization(F(210), roots, RatPoly([1]))
    assert rational_roots(p) == (want, residual)


def test_rational_roots_of_large_height():
    roots = [(F(2**200 + 1, 3**50), 2), (F(-(5**90), 2**150 - 3), 1), (F(0), 1)]
    quad = RatPoly([F(7, 2**70), 0, 1])
    p, want, residual = expected_factorization(F(-(3**40), 11), roots, quad)
    assert rational_roots(p) == (want, residual)


def test_rational_roots_when_the_squarefree_certificate_is_inconclusive():
    # two simple roots congruent modulo 2^31 - 1: such roots share a
    # root mod that prime, so a squarefree test run modulo it alone
    # cannot show the input squarefree
    roots = [(F(0), 1), (F(2**31 - 1), 1), (F(5, 2), 1)]
    p, want, residual = expected_factorization(F(3), roots, RatPoly([1]))
    assert rational_roots(p) == (want, residual)


def lift_moduli(monkeypatch):
    """The moduli of every modular evaluation the root search makes."""
    seen = []
    plain = polyrat._int_eval

    def recording(coeffs, y, modulus=0):
        if modulus > 0:
            seen.append(modulus)
        return plain(coeffs, y, modulus)

    monkeypatch.setattr(polyrat, "_int_eval", recording)
    return seen


def test_root_lifts_carry_the_bits_of_the_input(monkeypatch):
    # a 200-bit leading coefficient of a degree-80 polynomial: lifting
    # a monic transform of it would carry about 80 * 200 bits
    p = planted_roots_poly(random.Random(80), 76, 200)
    assert radical(p).degree == 80
    seen = lift_moduli(monkeypatch)
    roots, _residual = rational_roots(p)
    assert roots == [(F(-5, 2), 1), (F(1, 3), 1), (F(3, 7), 1), (F(11), 1)]
    coefficient_bits = max(abs(c).bit_length() for c in p._form[0])
    assert max(m.bit_length() for m in seen) <= 2 * (coefficient_bits + 2)


def test_root_lift_stops_only_past_twice_the_bound(monkeypatch):
    # the prime is 2 and the moduli square up to 65536, which passes the
    # bound |1| + 40000 but not twice it: -40000 needs one more step
    seen = lift_moduli(monkeypatch)
    assert rational_roots(RatPoly([40000, 1])) == ([(F(-40000), 1)], RatPoly([1]))
    assert sorted(set(seen)) == [2, 4, 16, 256, 65536, 2**32]


big = st.integers(-(2**64), 2**64)
positive_big = st.integers(1, 2**64)


@st.composite
def root_factorizations(draw):
    values = draw(
        st.lists(st.builds(F, big, positive_big), min_size=1, max_size=4, unique=True)
    )
    roots = [(r, draw(st.integers(1, 3))) for r in values]
    lead = draw(st.builds(F, big.filter(bool), positive_big))
    quad = RatPoly([1])
    if draw(st.booleans()):
        b = draw(st.builds(F, big, positive_big))
        c = draw(st.builds(F, big, positive_big))
        assume(not is_rational_square(b * b - 4 * c))
        quad = RatPoly([c, b, 1])
    return expected_factorization(lead, roots, quad)


@settings(max_examples=100, deadline=None)
@given(root_factorizations())
def test_rational_roots_recovers_every_planted_root(case):
    p, want, residual = case
    found, rest = rational_roots(p)
    assert found == want
    assert rest == residual
    assert [root_multiplicity(p, r) for r, _ in found] == [m for _, m in found]
    rebuilt = RatPoly([p.leading]) * rest
    for r, m in found:
        rebuilt = rebuilt * RatPoly([-r, 1]) ** m
    assert rebuilt == p


small = st.builds(F, st.integers(-50, 50), st.integers(1, 50))
wide = st.builds(F, st.integers(-(2**220), 2**220), st.integers(2**200, 2**220))
rationals = st.one_of(small, wide)


@st.composite
def small_degree_polys(draw):
    lead = draw(rationals.filter(bool))
    kind = draw(st.sampled_from(["linear", "double", "two", "coefficients"]))
    if kind == "linear":
        return RatPoly([draw(rationals), lead])
    r = draw(rationals)
    if kind == "double":
        return lead * RatPoly([-r, 1]) ** 2
    if kind == "two":
        s = draw(rationals)
        assume(r != s)
        return lead * RatPoly([-r, 1]) * RatPoly([-s, 1])
    # random coefficients: irrational or complex roots but for rare draws
    return RatPoly([r, draw(rationals), lead])


@settings(max_examples=200, deadline=None)
@given(small_degree_polys())
@example(RatPoly([F(-(3**130), 2**211 + 1), F(5**90, 7**75)]))  # linear, 200+ bits
@example(6 * RatPoly([F(-5, 3), 1]) ** 2)  # rational double root
@example(4 * RatPoly([F(-1, 2), 1]) * RatPoly([3, 1]))  # two rational roots
@example(F(3, 4) * RatPoly([-7, 0, 1]))  # irrational; roots exist mod 3
@example(RatPoly([2, 0, -5]))  # complex; roots exist mod 3
def test_rational_roots_through_degree_two_match_the_closed_forms(p):
    assert rational_roots(p) == closed_form_rational_roots(p)


def test_root_multiplicity():
    r = F(-(3**70), 2**100 - 3)  # 100-bit denominator
    p = F(5, 7) * RatPoly([-r, 1]) ** 3 * RatPoly([F(-1, 2), 1]) * RatPoly([1, 0, 1])
    assert root_multiplicity(p, r) == 3
    assert root_multiplicity(p, "1/2") == 1
    assert root_multiplicity(p, 0) == root_multiplicity(p, -r) == 0
    assert root_multiplicity(p, 1 / r) == 0
    roots, _ = rational_roots(p)
    assert roots == [(r, 3), (F(1, 2), 1)]
    with pytest.raises(ZeroPolynomialError):
        root_multiplicity(RatPoly(), 1)


def test_rational_roots_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    rng = random.Random(314)
    for _ in range(25):
        roots = {}
        for _ in range(rng.randint(0, 5)):
            roots[F(rng.randint(-(2**20), 2**20), rng.randint(1, 2**20))] = rng.randint(1, 3)
        quads = [rand_irreducible_quadratic(rng, 20) for _ in range(rng.randint(0, 2))]
        p = RatPoly([F(rng.randint(1, 2**20), rng.randint(1, 2**20))])
        for q in quads:
            p = p * q
        for r, m in roots.items():
            p = p * RatPoly([-r, 1]) ** m
        if p.degree < 1:
            continue
        expr = sum(sympy.Rational(c.numerator, c.denominator) * z**i for i, c in enumerate(p.coeffs))
        _, factors = sympy.factor_list(sympy.Poly(expr, z, domain="QQ"))
        oracle, residual = [], RatPoly([1])
        for f, m in factors:
            cs = [F(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
            if len(cs) == 2:
                oracle.append((-cs[0] / cs[1], m))
            else:
                residual = residual * RatPoly(cs) ** m
        assert rational_roots(p) == (sorted(oracle), residual.monic())


def test_exact_div_detects_remainder():
    with pytest.raises(ValueError):
        exact_div(RatPoly([1, 1]), RatPoly([0, 1]))


def test_gcd_and_radical_properties():
    rng = random.Random(20250825)
    for _ in range(25):
        g = rand_poly(rng, rng.randint(0, 2))
        a = rand_poly(rng, rng.randint(0, 3)) * g
        b = rand_poly(rng, rng.randint(0, 3)) * g
        d = poly_gcd(a, b)
        assert d.leading == 1
        assert exact_div(a, d) * d == a
        assert exact_div(b, d) * d == b
        assert exact_div(d, g.monic()) * g.monic() == d  # g divides the gcd

        r = radical(a)
        assert poly_gcd(r, r.derivative()).degree == 0
        assert rational_roots(r)[0] == [(root, 1) for root, _ in rational_roots(a)[0]]


def test_derivative_leibniz_property():
    rng = random.Random(7)
    for _ in range(25):
        p = rand_poly(rng, rng.randint(0, 4))
        q = rand_poly(rng, rng.randint(0, 4))
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_root_factorization_reconstructs():
    rng = random.Random(99)
    for _ in range(20):
        roots = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        lead = F(rng.randint(1, 5), rng.randint(1, 5))
        p = lead * RatPoly.from_roots(roots)
        found, residual = rational_roots(p)
        rebuilt = RatPoly([lead])
        for root, mult in found:
            rebuilt = rebuilt * RatPoly([-root, 1]) ** mult
        assert rebuilt * residual == p


def test_true_division_is_by_scalars_only():
    p = RatPoly([1, 2, 1])
    assert p / 2 == RatPoly([F(1, 2), 1, F(1, 2)])
    with pytest.raises(TypeError):
        p / RatPoly([1, 1])
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_pretty_round_trips_signs():
    p = RatPoly([F(-1, 2), 0, 1])
    text = p.pretty()
    assert "z^2" in text and "1/2" in text


ZERO, LINEAR = RatPoly(), RatPoly([1, 1])


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: ZERO.leading, ZeroPolynomialError, "leading"),
        (lambda: ZERO.valuation(), ZeroPolynomialError, "valuation"),
        (lambda: ZERO.monic(), ZeroPolynomialError, "monic"),
        (lambda: radical(ZERO), ZeroPolynomialError, "radical"),
        (lambda: rational_roots(ZERO), ZeroPolynomialError, "root search"),
        (lambda: divmod(LINEAR, ZERO), ZeroPolynomialError, "division by zero"),
        (lambda: exact_div(LINEAR, ZERO), ZeroPolynomialError, "division by zero"),
        (lambda: poly_gcd(ZERO, ZERO), BothZeroError, "undefined"),
        (lambda: LINEAR ** -1, ValueError, "negative power"),
        (lambda: setattr(LINEAR, "coeffs", ()), AttributeError, "immutable"),
        (lambda: RatPoly("12"), TypeError, "not a string"),
    ],
)
def test_undefined_operations_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("p", [ZERO, RatPoly([F(-3, 7)]), RatPoly([F(1 << 200, 3), 0, F(-5, (1 << 200) + 1)])])
def test_pickle_and_copy_round_trip(p):
    for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert clone == p and hash(clone) == hash(p) and clone.coeffs == p.coeffs


def test_scalars_are_constant_polynomials():
    assert RatPoly([F(1, 2)]) == F(1, 2) and RatPoly([3]) == 3
    assert LINEAR != 1 and ZERO == 0
    assert 2 - LINEAR == RatPoly([1, -1])
    assert F(1, 2) - LINEAR == RatPoly([F(-1, 2), -1])


def test_constants_hash_like_their_values():
    for value in (1, -7, F(3, 4), 0):
        const = RatPoly([value])
        assert const == value and hash(const) == hash(value)
        assert len({value, const}) == 1
    assert hash(ZERO) == hash(0) and len({0, ZERO, RatPoly([0, 0])}) == 1
    assert hash(RatPoly([F(1, 2), 1])) == hash(RatPoly([F(2, 4), F(3, 3)]))
    assert len({LINEAR, RatPoly([1, 1]), 1}) == 2


@pytest.mark.parametrize("other", ["z", None])
@pytest.mark.parametrize("op", [
    operator.add, operator.sub, lambda p, other: other - p, operator.mul, divmod,
    operator.truediv,
], ids=["add", "sub", "rsub", "mul", "divmod", "truediv"])
def test_foreign_operand_is_a_type_error(op, other):
    with pytest.raises(TypeError):
        op(RatPoly([1, 2]), other)


@pytest.mark.parametrize("other", ["z", None])
def test_foreign_operand_is_unequal(other):
    assert (RatPoly([1, 2]) == other) is False

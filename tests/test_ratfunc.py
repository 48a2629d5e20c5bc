"""The test-side rational-function helper reduces and computes exactly."""

from apparent import RatPoly

from _ratfunc import RatFunc


def test_ratfunc_reduces_common_factors():
    z1 = RatPoly([-1, 1])
    f = RatFunc(z1 * RatPoly([2, 1]), z1 * RatPoly([3, 1]))
    assert f == RatFunc(RatPoly([2, 1]), RatPoly([3, 1]))
    assert not f.is_polynomial
    assert RatFunc(z1 * z1, z1).is_polynomial


def test_ratfunc_arithmetic():
    z = RatPoly([0, 1])
    one = RatPoly([1])
    f = RatFunc(one, z) + RatFunc(one, RatPoly([-1, 1]))
    assert f == RatFunc(RatPoly([-1, 2]), z * RatPoly([-1, 1]))
    g = RatFunc(z, one)
    assert (f * g).derivative() == (f * g).derivative()
    assert RatFunc(z, z) == RatFunc(one, one)

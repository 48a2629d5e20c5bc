"""Reference gcd and exact division over Q, written out a second way.

These are the former bodies of ``poly_gcd`` and ``exact_div``: the
Euclidean algorithm on ``RatPoly`` remainders and ``divmod`` with a
remainder check.  They are kept only
as oracles for ``test_gcd.py``; ``euclid_int_gcd`` wraps the gcd in the
integer-list form of ``polyrat._int_gcd`` so it can stand in for it.
"""

from apparent import BothZeroError, RatPoly


def euclid_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd by the Euclidean algorithm."""
    if a.is_zero and b.is_zero:
        raise BothZeroError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def euclid_int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient of integer lists."""
    return euclid_gcd(RatPoly(a), RatPoly(b))._form[0]


def schoolbook_exact_div(a: RatPoly, b: RatPoly) -> RatPoly:
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ValueError(f"inexact polynomial division: remainder {r!r}")
    return q

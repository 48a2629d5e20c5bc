"""Reference rational roots through degree two, written out a second way.

These are the former closed-form candidates of ``rational_roots`` for
degree one and two (the quadratic formula with an exact rational square
root) and its former deflation loop, which tests ``p(r) == 0`` and
divides by z - r in ``Fraction`` arithmetic.  They are kept only as an
oracle for ``test_polyrat.py``.
"""

import math
from fractions import Fraction

from _euclid_gcd import schoolbook_exact_div

from apparent import RatPoly


def rational_sqrt(x: Fraction):
    """Exact square root when x is a perfect rational square, else None."""
    if x < 0:
        return None
    ns = math.isqrt(x.numerator)
    ds = math.isqrt(x.denominator)
    if ns * ns == x.numerator and ds * ds == x.denominator:
        return Fraction(ns, ds)
    return None


def small_degree_roots(p: RatPoly) -> list[Fraction]:
    """Every rational root of p of degree one or two, by closed forms."""
    if p.degree == 1:
        return [-p.coeffs[0] / p.coeffs[1]]
    c, b, a = p.coeffs
    s = rational_sqrt(b * b - 4 * a * c)
    if s is None:
        return []
    if s == 0:
        return [-b / (2 * a)]
    return [(-b + s) / (2 * a), (-b - s) / (2 * a)]


def closed_form_rational_roots(p: RatPoly) -> tuple[list[tuple[Fraction, int]], RatPoly]:
    """rational_roots of a polynomial of degree one or two."""
    roots = []
    for r in small_degree_roots(p):
        m = 0
        while p(r) == 0:
            p = schoolbook_exact_div(p, RatPoly([-r, 1]))
            m += 1
        roots.append((r, m))
    roots.sort()
    return roots, p.monic() if p.degree > 0 else RatPoly([1])

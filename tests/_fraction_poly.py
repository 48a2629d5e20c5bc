"""Polynomial arithmetic over Q on plain ``Fraction`` coefficient tuples.

This is ``RatPoly``'s arithmetic as it was when the class held only
``Fraction`` coefficients, written on ascending tuples with trailing
zeros trimmed (the zero polynomial is ``()``), so that it shares no
code with ``apparent.polyrat``.  It is kept only as the oracle of
``test_int_form.py``: ``shift`` is Horner's rule, ``divmod_`` is
schoolbook division over Q, ``exact_div`` adds a remainder check,
``radical`` divides by the Euclidean gcd with the derivative, and
``make_ode`` divides out the Euclidean gcd of all coefficients and
makes P_0 monic.
"""

import math
from fractions import Fraction


def trim(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def add(a, b) -> tuple:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def neg(a) -> tuple:
    return tuple(-c for c in a)


def sub(a, b) -> tuple:
    return add(a, neg(b))


def mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def derivative(a) -> tuple:
    return trim([i * c for i, c in enumerate(a)][1:])


def evaluate(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def shift(a, x) -> tuple:
    """a(z + x) by Horner's rule."""
    acc = ()
    for c in reversed(a):
        acc = add(mul(acc, (Fraction(x), Fraction(1))), (c,))
    return acc


def integer_primitive(a) -> tuple[list[int], Fraction]:
    if not a:
        return [], Fraction(0)
    den = math.lcm(*[c.denominator for c in a])
    ints = [c.numerator * (den // c.denominator) for c in a]
    g = math.gcd(*ints)
    return [v // g for v in ints], Fraction(g, den)


def monic(a) -> tuple:
    return tuple(c / a[-1] for c in a)


def divmod_(a, b) -> tuple[tuple, tuple]:
    rem = list(a)
    db = len(b) - 1
    quot = [Fraction(0)] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i] / b[-1]
        quot[i - db] = c
        for j, y in enumerate(b):
            rem[i - db + j] -= c * y
    return trim(quot), trim(rem[:db])


def exact_div(a, b) -> tuple:
    q, r = divmod_(a, b)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def gcd(a, b) -> tuple:
    while b:
        a, b = b, divmod_(a, b)[1]
    return monic(a)


def radical(a) -> tuple:
    if len(a) == 1:
        return (Fraction(1),)
    return monic(exact_div(a, gcd(a, derivative(a))))


def make_ode(rows) -> tuple[tuple, ...]:
    """Canonical coefficients: no common factor, P_0 monic."""
    g = ()
    for row in rows:
        if row:
            g = gcd(g, row) if g else monic(row)
    rows = [exact_div(row, g) for row in rows]
    lead = rows[0][-1]
    return tuple(tuple(c / lead for c in row) for row in rows)

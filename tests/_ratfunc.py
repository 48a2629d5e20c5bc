"""Reduced rational functions over Q, for checks written in rational form.

A test-side helper: the package itself never divides one polynomial by
another except exactly (``exact_div``) or with remainder (``divmod``).
"""

from fractions import Fraction

from apparent import RatPoly, ZeroPolynomialError, exact_div
from apparent.polyrat import poly_gcd

ONE = RatPoly([1])


class RatFunc:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = num if isinstance(num, RatPoly) else RatPoly.constant(num)
        den = den if isinstance(den, RatPoly) else RatPoly.constant(den)
        if den.is_zero:
            raise ZeroPolynomialError("rational function with zero denominator")
        if num.is_zero:
            den = ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = exact_div(num, g)
                den = exact_div(den, g)
            lead = den.leading
            if lead != 1:
                num = num / lead
                den = den / lead
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, RatPoly)):
            return RatFunc(other)
        return None

    def __eq__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self.num == q.num and self.den == q.den

    def __hash__(self):
        return hash(("RatFunc", self.num, self.den))

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return RatFunc(self.num * q.den + q.num * self.den, self.den * q.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return RatFunc(self.num * q.num, self.den * q.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if q.is_zero:
            raise ZeroPolynomialError("division by the zero rational function")
        return RatFunc(self.num * q.den, self.den * q.num)

    def __rtruediv__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q / self

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x):
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    def __repr__(self):
        if self.is_polynomial:
            return f"RatFunc({self.num.pretty()})"
        return f"RatFunc(({self.num.pretty()}) / ({self.den.pretty()}))"

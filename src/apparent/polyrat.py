"""Exact univariate polynomial and rational-function arithmetic over Q.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``).
Polynomials are stored dense in ascending degree order with trailing
zeros trimmed; the zero polynomial is the empty coefficient list.
Degrees in this package stay small (typically below ten), so products
and divisions are schoolbook.  Coefficient sizes do not stay small: each
``deform`` stage adds about ten bits.  The kernels that run most often
therefore work on integers and build a ``Fraction`` only once per output
coefficient: the Taylor shift is the integer shift by 1 of von zur
Gathen & Gerhard (ISSAC 1997), and the rational root search is p-adic
(Hensel) lifting, whose cost is polynomial in the bits, and not an
enumeration of divisors, whose cost is exponential.  The private list
kernels below (``_list_mul`` and friends) serve the same purpose for
the other modules; ``RatPoly`` itself only ever holds ``Fraction``
coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BothZeroError, ZeroPolynomialError


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like ``"3/16"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        # floats are accepted for convenience but converted exactly
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class RatPoly:
    """Dense univariate polynomial with exact rational coefficients.

    ``RatPoly([0, -1, 0, 1])`` is z^3 - z.  Instances are immutable and
    hashable; all arithmetic returns new objects.  Mixed arithmetic with
    ints and Fractions treats the scalar as a constant polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, c) -> "RatPoly":
        return cls([as_fraction(c)])

    @classmethod
    def monomial(cls, k: int, c=1) -> "RatPoly":
        """c * z^k."""
        return cls([0] * k + [c])

    @classmethod
    def from_roots(cls, roots, leading=1) -> "RatPoly":
        """leading * prod (z - r) over the given roots."""
        p = cls.constant(leading)
        for r in roots:
            p = p * cls([-as_fraction(r), 1])
        return p

    # -- basic queries -----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        """Coefficient of z^i (zero outside the stored range)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def valuation(self) -> int:
        """Order of vanishing at z = 0; raises on the zero polynomial."""
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no valuation")
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError("unreachable: trailing zeros are trimmed")

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RatPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(("RatPoly", self.coeffs))

    # -- arithmetic --------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RatPoly.constant(other)
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        n = max(len(self.coeffs), len(q.coeffs))
        return RatPoly([self.coeff(i) + q.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

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
        return RatPoly(_list_mul(self.coeffs, q.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = RatPoly.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if q.is_zero:
            raise ZeroPolynomialError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = q.degree
        lead = q.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - dq, 0)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i] / lead
            if c == 0:
                continue
            quot[i - dq] = c
            for j, b in enumerate(q.coeffs):
                rem[i - dq + j] -= c * b
        return RatPoly(quot), RatPoly(rem[:dq] if dq > 0 else [])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return RatPoly([a / c for a in self.coeffs])
        if isinstance(other, RatPoly):
            return RatFunc(self, other)
        return NotImplemented

    # -- calculus and evaluation -------------------------------------

    def derivative(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int arguments."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted(self, a) -> "RatPoly":
        """Taylor shift: returns p(z + a).

        Computed over the integers (von zur Gathen & Gerhard, *Fast
        algorithms for Taylor shifts and certain difference equations*,
        ISSAC 1997): see _taylor_shift.  a = 0 and constants return self.
        """
        a = as_fraction(a)
        if a == 0 or len(self.coeffs) <= 1:
            return self
        return RatPoly(_taylor_shift(self.coeffs, a))

    # -- normal forms ------------------------------------------------

    def monic(self) -> "RatPoly":
        if self.is_zero:
            raise ZeroPolynomialError("cannot make the zero polynomial monic")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return RatPoly([c / lead for c in self.coeffs])

    def integer_primitive(self) -> tuple[list[int], Fraction]:
        """Integer coefficient list with content 1, plus the scale factor.

        self = scale * RatPoly(int_list); scale > 0 unless self is zero.
        """
        if self.is_zero:
            return [], Fraction(0)
        den = math.lcm(*[c.denominator for c in self.coeffs])
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        return [v // g for v in ints], Fraction(g, den)

    # -- presentation ------------------------------------------------

    def pretty(self, var: str = "z") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = f"{mag}"
            else:
                zi = var if i == 1 else f"{var}^{i}"
                body = zi if mag == 1 else f"{mag}*{zi}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"RatPoly({self.pretty()})"


ONE = RatPoly([1])


def _taylor_shift(coeffs: tuple[Fraction, ...], a: Fraction) -> list[Fraction]:
    """Coefficients of p(z + a) for p = sum coeffs[i] z^i, a = u/v != 0.

    With den the common denominator of p and d = deg p, the integers
    f_i = den c_i u^i v^(d-i) are the coefficients of
    den v^d p((u/v) y), so shifting them by 1 with integer additions
    gives den v^d p((u/v)(y + 1)); substituting back y = (v/u) z, the
    coefficient of z^k is g_k / (den v^(d-k) u^k).  One gcd per output
    coefficient, no Fraction arithmetic in the d(d+1)/2 additions.
    """
    d = len(coeffs) - 1
    u, v = a.numerator, a.denominator
    # star-args from a list: a tuple grown from a generator skips CPython's
    # tuple free list when built but joins it when freed, raising peak RSS
    den = math.lcm(*[c.denominator for c in coeffs])
    vpow = [1]
    for _ in range(d):
        vpow.append(vpow[-1] * v)
    f = []
    upow = 1
    for i, c in enumerate(coeffs):
        f.append(c.numerator * (den // c.denominator) * upow * vpow[d - i] if c else 0)
        upow *= u
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            f[j] += f[j + 1]
    out = []
    upow = 1
    for k, g in enumerate(f):
        out.append(Fraction(g, den * vpow[d - k] * upow))
        upow *= u
    return out


def _list_mul(a, b) -> list:
    """Product of two ascending coefficient lists (or tuples), skipping zero entries."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _list_addmul(acc: list, c, b) -> None:
    """acc += c * b in place, growing acc as needed; c is a scalar."""
    if len(acc) < len(b):
        acc.extend([0] * (len(b) - len(acc)))
    for i, y in enumerate(b):
        if y:
            acc[i] += c * y


def poly_derivative(p: RatPoly) -> RatPoly:
    """Exact derivative dp/dz."""
    return p.derivative()


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if a.is_zero and b.is_zero:
        raise BothZeroError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def exact_div(a: RatPoly, b: RatPoly) -> RatPoly:
    """Division known to be exact; a nonzero remainder is a logic error."""
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ValueError(f"inexact polynomial division: remainder {r!r}")
    return q


def radical(p: RatPoly) -> RatPoly:
    """Monic squarefree part: same distinct roots as p, all simple."""
    if p.is_zero:
        raise ZeroPolynomialError("radical of the zero polynomial")
    if p.degree == 0:
        return ONE
    return exact_div(p, poly_gcd(p, p.derivative())).monic()


def root_multiplicity(p: RatPoly, r) -> int:
    """Multiplicity of r as a root of p (0 when p(r) != 0)."""
    if p.is_zero:
        raise ZeroPolynomialError("every value is a root of the zero polynomial")
    r = as_fraction(r)
    m = 0
    while p(r) == 0:
        p = exact_div(p, RatPoly([-r, 1]))
        m += 1
    return m


def _rational_sqrt(x: Fraction):
    """Exact square root when x is a perfect rational square, else None."""
    if x < 0:
        return None
    ns = math.isqrt(x.numerator)
    ds = math.isqrt(x.denominator)
    if ns * ns == x.numerator and ds * ds == x.denominator:
        return Fraction(ns, ds)
    return None


def _small_degree_roots(p: RatPoly) -> list[Fraction]:
    """Every rational root of p of degree one or two, by closed forms."""
    if p.degree == 1:
        return [-p.coeffs[0] / p.coeffs[1]]
    c, b, a = p.coeffs
    s = _rational_sqrt(b * b - 4 * a * c)
    if s is None:
        return []
    if s == 0:
        return [-b / (2 * a)]
    return [(-b + s) / (2 * a), (-b - s) / (2 * a)]


def _int_eval(coeffs: list[int], y: int, modulus: int = 0) -> int:
    """Horner evaluation of an integer polynomial, reduced mod modulus if nonzero."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * y + c
        if modulus:
            acc %= modulus
    return acc


# large, so that distinct roots of an input rarely meet modulo it
_SQUAREFREE_PRIME = 2**31 - 1


def _certified_squarefree(g: list[int]) -> bool:
    """True when g mod P keeps its degree and is squarefree over F_P.

    P is _SQUAREFREE_PRIME.  That certifies g squarefree over Q: a
    square factor f^2 of g would reduce to a square factor of positive
    degree, since lead(f) divides lead(g).  False proves nothing.
    """
    prime = _SQUAREFREE_PRIME
    if g[-1] % prime == 0:
        return False
    a = [c % prime for c in g]
    b = [i * c % prime for i, c in enumerate(a)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, prime)
        while len(a) >= len(b):
            c = a[-1] * inv % prime
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % prime
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _hensel_roots(p: RatPoly) -> list[Fraction]:
    """Every rational root of p (positive degree), by p-adic lifting.

    Let g be the integer primitive of p when _certified_squarefree says
    it is squarefree (the common case, and cheap), else of radical(p).
    With a = lead(g) and n = deg g, the monic h(y) = a^(n-1) g(y/a)
    has integer coefficients, and its integer roots are a times the
    rational roots of g.  h is squarefree, so some prime P leaves every
    root of h mod P simple; each integer root reduces to one of them
    and is the unique Newton lift of it.  Lifting until the modulus
    passes twice the Cauchy bound 1 + max|h_i| recovers every integer
    root as a symmetric residue, and an exact check drops the residues
    that are not roots.
    """
    g, _ = p.integer_primitive()
    if not _certified_squarefree(g):
        g, _ = radical(p).integer_primitive()
    n = len(g) - 1
    a = g[-1]
    h = [c * a ** (n - 1 - i) for i, c in enumerate(g[:-1])] + [1]
    dh = [i * c for i, c in enumerate(h)][1:]
    bound = 2 * (1 + max(abs(c) for c in h))
    prime = 1
    while True:
        prime += 1
        if any(prime % d == 0 for d in range(2, math.isqrt(prime) + 1)):
            continue
        h_mod = [c % prime for c in h]
        residues = [y for y in range(prime) if _int_eval(h_mod, y, prime) == 0]
        if all(_int_eval(dh, y, prime) for y in residues):
            break
    roots = []
    for y in residues:
        m = prime
        while m <= bound:
            m *= m
            y = (y - _int_eval(h, y, m) * pow(_int_eval(dh, y, m), -1, m)) % m
        if y > m // 2:
            y -= m
        if _int_eval(h, y) == 0:
            roots.append(Fraction(y, a))
    return roots


def rational_roots(p: RatPoly) -> tuple[list[tuple[Fraction, int]], RatPoly]:
    """All rational roots with multiplicities, plus the root-free residual.

    Through degree two the roots come from closed forms.  Above that,
    every rational root of the squarefree part is found in one pass by
    p-adic (Hensel) lifting (Loos 1983; von zur Gathen & Gerhard, Modern
    Computer Algebra, ch. 15; see _hensel_roots).  The search is
    complete: each rational root reduces to a simple root modulo the
    chosen prime and is the unique lift of it.  Each candidate is
    checked exactly, so nothing false gets in.  The cost is polynomial
    in the coefficient bits: Newton steps double the p-adic precision,
    so about log2 of the root bound's bit size of them suffice.
    Multiplicities come from exact deflation.  Irrational (and complex)
    roots are never approximated: they stay in the residual factor,
    returned monic.  Roots are sorted ascending.
    """
    if p.is_zero:
        raise ZeroPolynomialError("root search on the zero polynomial")
    if p.degree <= 0:
        return [], ONE
    candidates = _small_degree_roots(p) if p.degree <= 2 else _hensel_roots(p)
    roots: list[tuple[Fraction, int]] = []
    for r in candidates:
        m = 0
        lin = RatPoly([-r, 1])
        while p(r) == 0:
            p = exact_div(p, lin)
            m += 1
        roots.append((r, m))
    roots.sort(key=lambda rm: rm[0])
    residual = p.monic() if p.degree > 0 else ONE
    return roots, residual


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

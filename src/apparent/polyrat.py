"""Exact univariate polynomial arithmetic over Q.

A ``RatPoly`` is stored as its integer form: a positive content times a
primitive integer coefficient list, dense in ascending degree order with
trailing zeros trimmed and the sign in the last entry (the layout of
the classical integer algorithms, Gauss's lemma: von zur Gathen &
Gerhard, *Modern Computer Algebra*, 3rd ed., ch. 6).  The zero
polynomial is the empty list with content 0.  The ``Fraction``
coefficients are a view, built on each read.  Products are schoolbook,
although degrees grow: after k ``deform`` stages P_0 of a general Heun
equation has degree k + 3.  Coefficient sizes grow too, by tens of bits
a stage, and every operation runs on the integer form: a product
multiplies the primitive parts and the contents and needs no gcd; a
sum, derivative, evaluation, Taylor shift or division takes one.
The Taylor shift is the integer shift by 1 of von zur Gathen & Gerhard
(ISSAC 1997).  One division loop over Z (_int_divmod) serves exact
division, which gives up at the first leading quotient that is not an
integer, and pseudo-division (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R);
one Horner loop (_int_eval) serves every evaluation.  The gcd is the
heuristic GCDHEU of Char, Geddes & Gonnet (J. Symb. Comp. 1989), and
the rational root search lifts the polynomial itself p-adically
(Hensel) past twice |lead| + max|other coefficient|, which bounds lead
times any rational root, so its cost is polynomial in the input's bits
(an enumeration of divisors is exponential); each root is confirmed
and deflated by exact integer division.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BothZeroError, ZeroPolynomialError


def as_fraction(x) -> Fraction:
    """Coerce what Fraction() takes to Fraction: ints, strings like
    ``"3/16"``, Decimals and Fractions exactly, floats by their exact
    binary value."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except TypeError:
        raise TypeError(f"cannot interpret {x!r} as an exact rational") from None


class RatPoly:
    """Dense univariate polynomial with exact rational coefficients.

    ``RatPoly([0, -1, 0, 1])`` is z^3 - z.  Instances are immutable and
    hashable; all arithmetic returns new objects.  Mixed arithmetic with
    ints and Fractions treats the scalar as a constant polynomial, and a
    constant polynomial equals and hashes like its value.

    The one state is ``_form`` = (ints, content), self = content *
    RatPoly(ints): ints primitive with the sign in its nonzero last
    entry, content > 0, and ([], 0) for zero.  It is canonical, so
    equality compares forms; ``coeffs`` builds a view of it on each read.
    """

    __slots__ = ("_form",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (str, bytes)):
            raise TypeError("RatPoly takes a coefficient sequence, not a string")
        cs = [as_fraction(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        ints, g = _primitive([c.numerator * (den // c.denominator) for c in cs])
        object.__setattr__(self, "_form", (ints, Fraction(g, den)))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    def __reduce__(self):
        return RatPoly, (self.coeffs,)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients, ascending, trailing zeros trimmed; built from
        the integer form on each read."""
        ints, content = self._form
        num, den = content.numerator, content.denominator
        return tuple([Fraction(v * num, den) for v in ints])

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, c) -> "RatPoly":
        return cls([as_fraction(c)])

    @classmethod
    def from_roots(cls, roots, leading=1) -> "RatPoly":
        """leading * prod (z - r) over the given roots: _sum_of_products
        with one term, so zero when leading is."""
        return _sum_of_products([(as_fraction(leading), roots)])

    # -- basic queries -----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._form[0]) - 1

    @property
    def is_zero(self) -> bool:
        return not self._form[0]

    @property
    def leading(self) -> Fraction:
        ints, content = self._form
        if not ints:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return ints[-1] * content

    def valuation(self) -> int:
        """Order of vanishing at z = 0; raises on the zero polynomial."""
        ints = self._form[0]
        if not ints:
            raise ZeroPolynomialError("zero polynomial has no valuation")
        return next(i for i, v in enumerate(ints) if v)

    def __bool__(self) -> bool:
        return bool(self._form[0])

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self._form == other._form
        if isinstance(other, (int, Fraction)):
            return self == RatPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        ints, content = self._form
        if len(ints) <= 1:
            # equal to its value (zero to 0), so hashed like it
            return hash(ints[0] * content if ints else 0)
        return hash(("RatPoly", tuple(ints), content))

    # -- arithmetic --------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RatPoly.constant(other)
        return None

    def _add(self, q: "RatPoly") -> "RatPoly":
        """self + q: both integer lists over their common unit, one
        integer sum, one gcd."""
        if not q._form[0]:  # 0 + 0 has no common unit
            return self
        unit, (a, b) = _common_ints((self, q))
        _list_addmul(a, 1, b)
        return _from_ints(a, unit)

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._add(q)

    __radd__ = __add__

    def __neg__(self):
        ints, content = self._form
        return _scaled([-v for v in ints], content)

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._add(-q)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q._add(-self)

    def __mul__(self, other):
        """Product of the primitive parts, which is primitive (Gauss's
        lemma), times the product of the contents: no gcd."""
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        (a, ca), (b, cb) = self._form, q._form
        return _scaled(_list_mul(a, b), ca * cb)

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
        # lead^k a = quot b + rem on the primitive parts
        (a, ca), (b, cb) = self._form, q._form
        k, quot, rem = _pseudo_divmod(a, b)
        scale = Fraction(1, b[-1] ** k)
        return _from_ints(quot, ca / cb * scale), _from_ints(rem, ca * scale)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            ints, content = self._form
            return _scaled(ints, content / c)
        return NotImplemented

    # -- calculus and evaluation -------------------------------------

    def derivative(self) -> "RatPoly":
        ints, content = self._form
        return _from_ints([i * v for i, v in enumerate(ints)][1:], content)

    def __call__(self, x):
        """Exact value at x, read with as_fraction.  At x = u/v the integer
        form gives content * sum a_i u^i v^(d-i) / v^d: one integer Horner
        pass (_int_eval) and one Fraction."""
        ints, content = self._form
        if not ints:
            return Fraction(0)
        x = as_fraction(x)
        u, v = x.numerator, x.denominator
        return Fraction(content.numerator * _int_eval(ints, u, 0, v),
                        content.denominator * v ** (len(ints) - 1))

    def shifted(self, a) -> "RatPoly":
        """Taylor shift: returns p(z + a).

        Computed over the integers (von zur Gathen & Gerhard, *Fast
        algorithms for Taylor shifts and certain difference equations*,
        ISSAC 1997): see _taylor_shift.  a = 0 and constants return self.
        """
        a = as_fraction(a)
        ints, content = self._form
        if a == 0 or len(ints) <= 1:
            return self
        return _taylor_shift(ints, content, a)

    # -- normal forms ------------------------------------------------

    def monic(self) -> "RatPoly":
        if self.is_zero:
            raise ZeroPolynomialError("cannot make the zero polynomial monic")
        if self.leading == 1:
            return self
        return _monic(self._form[0])

    # -- presentation ------------------------------------------------

    def pretty(self, var: str = "z") -> str:
        if self.is_zero:
            return "0"
        parts = []
        cs = self.coeffs
        for i in range(self.degree, -1, -1):
            c = cs[i]
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


def _taylor_shift(f: list[int], content: Fraction, a: Fraction) -> RatPoly:
    """content * f(z + a) for a primitive integer list f of degree d >= 1
    and a = u/v != 0.

    The integers g_i = f_i u^i v^(d-i) are the coefficients of
    v^d f((u/v) y), so shifting them by 1 with integer additions gives
    h, the coefficients of v^d f((u/v)(y + 1)); substituting back
    y = (v/u) z, the coefficient of z^k is h_k / (v^(d-k) u^k), which is
    h_k u^(d-k) v^k over (u v)^d, negative for u < 0 at odd d (_scaled
    moves that sign into the list).  No Fraction arithmetic in the
    d(d+1)/2 additions, one gcd for the result.
    """
    d = len(f) - 1
    u, v = a.numerator, a.denominator
    upow, vpow = [1], [1]
    for _ in range(d):
        upow.append(upow[-1] * u)
        vpow.append(vpow[-1] * v)
    g = [c * upow[i] * vpow[d - i] for i, c in enumerate(f)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            g[j] += g[j + 1]
    scale = content / (upow[d] * vpow[d])
    return _from_ints([h * upow[d - k] * vpow[k] for k, h in enumerate(g)], scale)


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


def _scaled(ints: list[int], scale: Fraction) -> RatPoly:
    """scale * RatPoly(ints) for a primitive integer list with a nonzero
    last entry and a nonzero scale, or for ([], 0): the constructor from
    the integer form.  A negative scale moves its sign into ints."""
    if scale.numerator < 0:
        ints, scale = [-v for v in ints], -scale
    p = object.__new__(RatPoly)
    object.__setattr__(p, "_form", (ints, scale))
    return p


def _primitive(ints: list[int]) -> tuple[list[int], int]:
    """ints, trimmed in place, over its gcd g, and g: the primitive part
    with the sign of the last entry, and the content (([], 0) for zero)."""
    while ints and not ints[-1]:
        ints.pop()
    g = math.gcd(*ints)
    return [v // g for v in ints], g


def _from_ints(ints: list[int], scale: Fraction) -> RatPoly:
    """scale * RatPoly(ints) for any integer list and a nonzero scale."""
    ints, g = _primitive(ints)
    return _scaled(ints, scale if g == 1 else scale * g)


def _root_ints(roots) -> tuple[list[int], int]:
    """ints, den with prod (z - r) = RatPoly(ints) / den over the roots
    r = u/v in lowest terms: ints = prod (v z - u), primitive with a
    positive last entry since each factor is (Gauss's lemma), and
    den = prod v."""
    ints, den = [1], 1
    for r in roots:
        r = as_fraction(r)
        u, v = r.numerator, r.denominator
        # times (v z - u): coefficient i is v a_{i-1} - u a_i
        out, prev = [], 0
        for a in ints:
            out.append(v * prev - u * a)
            prev = a
        out.append(v * prev)
        ints, den = out, den * v
    return ints, den


def _sum_of_products(terms) -> RatPoly:
    """sum c prod (z - r) over the (c, roots) pairs, c a Fraction, as one
    integer list over one denominator (each product by _root_ints): one
    gcd and no RatPoly arithmetic.  Zero scalars give the zero
    polynomial."""
    products = [(c, *_root_ints(roots)) for c, roots in terms]
    unit = math.lcm(*[c.denominator * den for c, _ints, den in products])
    acc = []
    for c, ints, den in products:
        _list_addmul(acc, c.numerator * (unit // (c.denominator * den)), ints)
    return _from_ints(acc, Fraction(1, unit))


def _monic(ints: list[int]) -> RatPoly:
    """RatPoly(ints) over its last entry, for a primitive integer list."""
    return _scaled(ints, Fraction(1, ints[-1]))


ONE = RatPoly([1])


def _common_ints(polys) -> tuple[Fraction, list[list[int]]]:
    """u, lists with polys[i] = u * RatPoly(lists[i]), for polys not all
    zero: u = gcd(numerators) / lcm(denominators) of their contents, in
    lowest terms, so the lists are integral."""
    forms = [p._form for p in polys]
    g = math.gcd(*[c.numerator for _ints, c in forms])
    den = math.lcm(*[c.denominator for _ints, c in forms])
    lists = []
    for ints, c in forms:
        m = c.numerator // g * (den // c.denominator)
        lists.append([v * m for v in ints])
    return Fraction(g, den), lists


def _int_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]] | None:
    """q, r with a = q b + r over Z and deg r < deg b (r untrimmed), or
    None at the first leading quotient that is not an integer: schoolbook
    division (Knuth, TAOCP vol. 2, 4.6.1)."""
    db, lead = len(b) - 1, b[-1]
    rem = list(a)
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c, r = divmod(rem[i], lead)
        if r:
            return None
        if c:
            quot[i - db] = c
            for j in range(db):
                rem[i - db + j] -= c * b[j]
    return quot, rem[:db]


def _int_divexact(a: list[int], b: list[int]) -> list[int] | None:
    """Quotient a / b over Z when b divides a exactly there, else None."""
    qr = _int_divmod(a, b)
    return None if qr is None or any(qr[1]) else qr[0]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
    """k, q, r with lead(b)^k a = q b + r over Z, deg r < deg b and
    k = max(len(a) - deg b, 0), which is deg a - deg b + 1 for a trimmed
    a: pseudo-division (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R).  After
    scaling a by lead(b)^k each leading quotient divides exactly, so
    _int_divmod never gives up."""
    k = max(len(a) - len(b) + 1, 0)
    scale = b[-1] ** k
    return (k, *_int_divmod([v * scale for v in a], b))


# GCDHEU evaluation points tried before the Euclidean fallback
_HEU_TRIES = 6


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd of two nonzero integer polynomials of content 1, as a
    primitive integer list with a positive leading coefficient.

    GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 1989): evaluate both
    at an integer xi above twice the smaller max-norm, take the integer
    gcd and read a candidate off its symmetric xi-adic digits.  A
    primitive candidate that divides both inputs over Z is their gcd;
    that exact check makes the answer correct, and a failed one only
    grows xi.  After _HEU_TRIES points the primitive remainder sequence
    decides (von zur Gathen & Gerhard, ch. 6; Brown's dense modular gcd,
    J. ACM 1971, is the other sure method).
    """
    if len(a) == 1 or len(b) == 1:
        return [1]
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(_HEU_TRIES):
        gamma = math.gcd(_int_eval(a, xi), _int_eval(b, xi))
        g = []
        while gamma:
            d = gamma % xi
            if d > xi // 2:
                d -= xi
            g.append(d)
            gamma = (gamma - d) // xi
        # gamma > 0, so the top digit is positive
        c = math.gcd(*g)
        g = [v // c for v in g]
        if _int_divexact(a, g) is not None and _int_divexact(b, g) is not None:
            return g
        xi = xi * 73794 // 27011
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[2])[0]
    return a if a[-1] > 0 else [-v for v in a]


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic greatest common divisor, by GCDHEU (see _int_gcd)."""
    if a.is_zero and b.is_zero:
        raise BothZeroError("gcd(0, 0) is undefined")
    if a.is_zero or b.is_zero:
        return (a or b).monic()
    return _monic(_int_gcd(a._form[0], b._form[0]))


def exact_div(a: RatPoly, b: RatPoly) -> RatPoly:
    """Division known to be exact; a nonzero remainder is a logic error.

    The integer primitive parts are divided over Z, which is exact
    exactly when the division over Q is (Gauss's lemma), and the two
    contents are folded back in once per coefficient.
    """
    if b.is_zero:
        raise ZeroPolynomialError("polynomial division by zero")
    a_ints, a_scale = a._form
    b_ints, b_scale = b._form
    q = _int_divexact(a_ints, b_ints)
    if q is None:
        raise ValueError(f"inexact polynomial division: remainder {divmod(a, b)[1]!r}")
    return _scaled(q, a_scale / b_scale)


def _int_squarefree(a: list[int]) -> list[int]:
    """a / gcd(a, a') for a nonconstant integer list a of content 1.

    The quotient has the distinct roots of a, all simple, and content 1.
    """
    da, _content = _primitive([i * c for i, c in enumerate(a)][1:])
    return _int_divexact(a, _int_gcd(a, da))


def radical(p: RatPoly) -> RatPoly:
    """Monic squarefree part: same distinct roots as p, all simple."""
    if p.is_zero:
        raise ZeroPolynomialError("radical of the zero polynomial")
    if p.degree == 0:
        return ONE
    return _monic(_int_squarefree(p._form[0]))


def _deflate(f: list[int], r: Fraction) -> tuple[list[int], int]:
    """f divided by (den z - num)^m over Z for the largest such m, and m.

    r = num/den is in lowest terms, so den z - num is primitive and, by
    Gauss's lemma, divides f over Z exactly when r is a root of f: the
    exact division is the root test, and m = 0 says r is no root.
    """
    lin = [-r.numerator, r.denominator]
    m = 0
    while (q := _int_divexact(f, lin)) is not None:
        f, m = q, m + 1
    return f, m


def root_multiplicity(p: RatPoly, r) -> int:
    """Multiplicity of r as a root of p (0 when p(r) != 0)."""
    if p.is_zero:
        raise ZeroPolynomialError("every value is a root of the zero polynomial")
    return _deflate(p._form[0], as_fraction(r))[1]


def _int_eval(coeffs: list[int], y: int, modulus: int = 0, v: int = 1) -> int:
    """sum c_i y^i v^(d-i) over the d + 1 coefficients, v^d times the
    value at y/v, by Horner's rule; reduced mod modulus if nonzero."""
    acc, vpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * y + c * vpow
        vpow *= v
        if modulus:
            acc %= modulus
    return acc


def _hensel_roots(g: list[int]) -> list[Fraction]:
    """Candidates that include every rational root of g, by p-adic lifting.

    g is a squarefree integer polynomial of positive degree with
    a = lead(g).  A rational root u/v in lowest terms has v | a, so
    a u/v is an integer, and by Cauchy's bound |u/v| <= 1 + max|g_i/a|
    (i < deg g) it lies within |a| + max|g_i|.  g is squarefree, so some
    prime P with P not dividing a leaves every root of g mod P simple;
    v is a unit mod P, so u/v reduces to one of those roots and is the
    unique Newton lift of it.  Lifting until the modulus m passes twice
    that bound and reading a y mod m as a symmetric residue recovers
    a u/v exactly.  Residues that are not roots come back too; the
    caller's exact test drops them.
    """
    a = g[-1]
    dg = [i * c for i, c in enumerate(g)][1:]
    bound = 2 * (abs(a) + max(abs(c) for c in g[:-1]))
    prime = 1
    while True:
        prime += 1
        if a % prime == 0 or any(prime % d == 0 for d in range(2, math.isqrt(prime) + 1)):
            continue
        g_mod = [c % prime for c in g]
        residues = [y for y in range(prime) if _int_eval(g_mod, y, prime) == 0]
        if all(_int_eval(dg, y, prime) for y in residues):
            break
    roots = []
    for y in residues:
        m = prime
        while m <= bound:
            m *= m
            y = (y - _int_eval(g, y, m) * pow(_int_eval(dg, y, m), -1, m)) % m
        y = a * y % m
        if y > m // 2:
            y -= m
        roots.append(Fraction(y, a))
    return roots


def rational_roots(p: RatPoly) -> tuple[list[tuple[Fraction, int]], RatPoly]:
    """All rational roots with multiplicities, plus the root-free residual.

    One integer path at every degree.  The candidates come in one pass
    from p-adic (Hensel) lifting on the squarefree part g of the integer
    primitive f of p (Loos 1983; von zur Gathen & Gerhard, Modern
    Computer Algebra, ch. 15; see _hensel_roots).  The search is
    complete: each rational root reduces to a simple root modulo the
    chosen prime, which does not divide a = lead(g), and is the unique
    lift of it; a times the root is an integer of absolute value at
    most |a| + max|g_i| (Cauchy), so a modulus past twice that recovers
    it.  The lifts carry at most twice the bits of that bound, and
    Newton steps double the p-adic precision, so about log2 of its bit
    size of them suffice.  Each candidate r = num/den is then divided
    out of f as (den z - num) for as long as the division is exact over
    Z (see _deflate); that is the exact root test, so nothing false
    gets in, and the number of divisions is the multiplicity.
    Irrational (and complex) roots are never approximated: they stay in
    the residual factor, returned monic.  Roots are sorted ascending.
    """
    if p.is_zero:
        raise ZeroPolynomialError("root search on the zero polynomial")
    if p.degree <= 0:
        return [], ONE
    f = p._form[0]
    return _rational_roots(f, _int_squarefree(f))


def _rational_roots(f: list[int], g: list[int]) -> tuple[list[tuple[Fraction, int]], RatPoly]:
    """rational_roots of the nonconstant integer list f, given a
    squarefree integer list g with the same roots (the primitive part
    of radical(f), for one): the Hensel candidates of g, each deflated
    out of f."""
    roots: list[tuple[Fraction, int]] = []
    for r in sorted(_hensel_roots(g)):
        f, m = _deflate(f, r)
        if m:
            roots.append((r, m))
    residual = _monic(f) if len(f) > 1 else ONE
    return roots, residual

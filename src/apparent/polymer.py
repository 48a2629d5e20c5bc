"""Coil-stretch spectral problem for a polymer chain in elongational flow.

The stationary model is the order-2 equation

    z(z-1) w'' + [-kappa z(z-1) + (3/2)(z-1) + (b+1) z] w'
               + [(nu-kappa)(z-1) - 2 b kappa z] w = 0

on [0, 1], with kappa = b W (W the dimensionless stretching strength,
b the chain flexibility) and spectral parameter nu.  Both endpoints are
regular singular: exponents {0, -1/2} at z = 0 and {0, -b} at z = 1, so
no nontrivial solution literally vanishes at an endpoint; the physical
boundary condition is boundedness, i.e. the exponent-0 branch at each
end.  Infinity is an irregular point (confluent degree pattern).

nu is an eigenvalue when the bounded-at-0 and bounded-at-1 branches are
proportional.  The spectrum continues below 0 (one eigenvalue at b = 2,
W = 1/4; four at b = 100, W = 1/4), and counted from its bottom the
k-th eigenfunction has k - 1 zeros.  nu_1, which sets the relaxation
time T_rel = b tau / nu_1, is the smallest positive eigenvalue; T_rel
grows as W approaches the coil-stretch transition at W = 1/2.

Numerics: two-sided Frobenius-series shooting, on the recurrence of
the exact stack (odemodel._recurrence, read by _recurrences).  One
kernel (_Series.branch) sums a branch in fixed point, on Python
integers scaled by 2^F, each term rounded to nearest (Brent &
Zimmermann, Modern Computer Arithmetic, 2010, ch. 4), until the tail
is negligible against the branch's own value, and measures the digits
lost to cancellation: tens of digits at z = 1 (coefficients of size
2^b).  A scan point needs only the sign of the Wronskian, so it is
summed to 8 digits and its sign taken above the bound those leave
(_Shooting.scan_point).  The scan stops at the last bracket needed;
each bracket is refined by safeguarded inverse-quadratic and secant
interpolation (Dekker 1969, Brent 1973; _refine) on the raw Wronskian,
which is nearly linear in nu where the scale-normalized mismatch
saturates.  decimal appears only at the edges: for nu on the scan and
in the refinement, and for digit counts.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DegenerateApparentPointError,
    NoEigenvalueInWindowError,
    PrecisionExhaustedError,
)
from .odemodel import LinearODE, _recurrence, make_ode
from .polyrat import as_fraction

_ORDER_CAP = 6400
_BITS_CAP = 4096
_GUARD_DIGITS = 10
# tail test: _QUIET_TERMS consecutive terms each below 10^-digits (|w| + |w'|);
# the same digits must survive cancellation.  The refinement and the
# diagnostics sum to _TAIL_DIGITS; a scan point, which needs only a sign,
# to _SIGN_DIGITS, and its sign stands when |mismatch| > _SIGN_BOUND
_TAIL_DIGITS = 20
_SIGN_DIGITS = 8
_QUIET_TERMS = 8
_SIGN_MARGIN = 100
_SIGN_BOUND = _SIGN_MARGIN * (4 * 10.0**-_SIGN_DIGITS + 2 * 10.0 ** (-2 * _SIGN_DIGITS))
_RTOL = Decimal(10) ** -10  # relative bracket width that ends refinement
_NU_FLOOR = Decimal("1e-6")  # below |nu| = 1e-6 the width is absolute
# the refinement's absolute resolution: a root closer to 0 is not told from 0
_NU_RESOLUTION = float(_RTOL * _NU_FLOOR)
_LOG10_2 = math.log10(2)
# where the bounded-at-0 and bounded-at-1 branches are compared
_Z_MATCH = Fraction(1, 2)


# NamedTuple forbids __new__ in its own body: the fields sit on a base
class _PolymerFields(NamedTuple):
    b: Fraction
    W: Fraction
    tau: Fraction


class PolymerParams(_PolymerFields):
    """Model parameters: flexibility b, stretching W, base time tau.

    kappa = b W is always derived, never stored.  Pass Fractions,
    Decimals or decimal strings ("0.35") to keep parameters exact;
    floats are converted via their exact binary value.
    """

    __slots__ = ()

    def __new__(cls, b, W, tau=Fraction(1)):
        b, W, tau = as_fraction(b), as_fraction(W), as_fraction(tau)
        if b <= 0 or W <= 0 or tau <= 0:
            raise ValueError("b, W, tau must all be positive")
        return super().__new__(cls, b, W, tau)

    @property
    def kappa(self) -> Fraction:
        return self.b * self.W


class SpectralResult(NamedTuple):
    """Eigenvalues and diagnostics of one spectral solve.

    eigenvalues: strictly increasing; t_rel = b tau / eigenvalues[0],
    the relaxation time when the window starts above 0 (a warning says
    so when eigenvalues[0] < 0).
    wronskian_samples: (nu, scale-normalized mismatch) at the scan grid
    points evaluated; the scan stops at the grid point that closes the
    last bracket needed, and the mismatch changes sign across each
    reported eigenvalue.  A sample summed to the scan's 8 digits lies
    within 8e-8 (plus O(1e-16)) of the 20-digit mismatch; the first
    grid point, and a point evaluated again, carry 20 digits.
    series_order / precision_bits: the largest number of series terms
    and the largest precision any branch evaluation used.
    evaluations: mismatch evaluations, grid and refinement together; a
    grid point evaluated again at 20 digits counts twice.
    """

    eigenvalues: tuple[float, ...]
    t_rel: float
    wronskian_samples: tuple[tuple[float, float], ...]
    series_order: int
    precision_bits: int
    evaluations: int
    warnings: tuple[str, ...] = ()


def polymer_ode(p: PolymerParams, nu) -> LinearODE:
    """The exact order-2 equation for rational parameters and nu."""
    nu, kappa = as_fraction(nu), p.kappa
    # the module equation in powers of z
    p1 = [Fraction(-3, 2), kappa + p.b + Fraction(5, 2), -kappa]
    return make_ode([[0, -1, 1], p1, [kappa - nu, nu - kappa - 2 * p.b * kappa]])


def apparent_location(b, kappa, nu) -> Fraction:
    """Root of the trailing coefficient: q = (nu-kappa)/(nu-kappa-2b kappa)."""
    b, kappa, nu = as_fraction(b), as_fraction(kappa), as_fraction(nu)
    denom = nu - kappa - 2 * b * kappa
    if denom == 0:
        raise DegenerateApparentPointError(
            "trailing coefficient degenerates to degree zero",
            nu=str(nu),
            kappa=str(kappa),
        )
    return (nu - kappa) / denom


def polymer_deformed(p: PolymerParams, nu) -> LinearODE:
    """Equation for u = w', cleared by (z - q): deform of polymer_ode.

    Raises DegenerateApparentPoint where the trailing coefficient is
    constant, so that there is no q.
    """
    from . import transform

    apparent_location(p.b, p.kappa, nu)
    return transform.deform(polymer_ode(p, nu)).ode


def _digits(bits: int) -> int:
    return math.ceil(bits * _LOG10_2) + _GUARD_DIGITS


def _bits_for(digits: int) -> int:
    """Bits that carry `digits` digits, rounded up to a multiple of 64."""
    return -(-math.ceil(digits / _LOG10_2) // 64) * 64


def _exact(v) -> Fraction:
    """Exact rational of a number, a float taken as written."""
    return Fraction(repr(v)) if isinstance(v, float) else as_fraction(v)


def _log10_floor(n: int, d: int) -> int:
    """floor(log10(n / d)) for positive integers."""
    if n >= d:
        return Decimal(n // d).adjusted()
    return -Decimal(-(-d // n) - 1).adjusted() - 1


def _round_div(n: int, d: int) -> int:
    """n / d rounded to the nearest integer (halves up)."""
    if d < 0:
        n, d = -n, -d
    return (n + (d >> 1)) // d


class _Branch(NamedTuple):
    """One exponent-0 branch at one point: values and the work they took.

    w, dw are fixed-point integers: the branch value and its derivative
    times 2^frac_bits; lost counts the digits of |w| + |w'| that
    cancellation took.
    """

    w: int
    dw: int
    frac_bits: int
    terms: int
    bits: int
    lost: int

    def values(self) -> tuple[Fraction, Fraction]:
        """(w, w') as exact rationals."""
        return Fraction(self.w, 1 << self.frac_bits), Fraction(self.dw, 1 << self.frac_bits)


def _recurrences(p: PolymerParams) -> tuple[list[int], list[int]]:
    """Integer tables of the recurrence at z = 0 and at z = 1 (_Series):
    C_2 (constant, nu, s, s^2), C_3 (constant, nu, s) and C_1 (s, s^2)
    of polymer_ode(p, 0) over the leading coefficient of C_1, times a
    positive integer.  nu enters only P_2, as nu (z - 1), and S_0 = 1,
    so nu adds to C_j the coefficient of (z - e)^(j-2) in z - 1.
    """
    ode = polymer_ode(p, 0)
    tables = []
    for e in (0, 1):
        _v0, _j0, _jmax, unit, (first, second, third) = _recurrence(ode.coeffs, e)
        # v C_j = u row_j + nu v slope_j for unit = u / v > 0, slope = z - 1
        # in powers of z - e; of the lead u first[2] / v only its sign is left
        sign, slope = 1 if first[2] > 0 else -1, (e - 1, 1)
        u, v = sign * unit.numerator, sign * unit.denominator
        tables.append([u * second[0], v * slope[0], u * second[1], u * second[2],
                       u * third[0], v * slope[1], u * third[1], u * first[1], u * first[2]])
    return tables[0], tables[1]


class _Series:
    """The exponent-0 series of one endpoint, summed at offset x from it.

    There j0 = 1 and jmax = 3, and the recurrence of frobenius over the
    leading coefficient of C_1 reads, in the terms b_M = a_M x^M,
        C_1(M) b_M = P(M) b_{M-1} + Q(M) b_{M-2},
    P(M) = -x C_2(M-1), Q(M) = -x^2 C_3(M-2), C_1(M) = M (M - r) > 0 for
    M >= 1, as the other exponent r (-1/2 or -b) is negative.  branch()
    clears nu's denominator and steps P(M), Q(M) and C_1(M) by their
    finite differences: every term costs three integer products, a few
    sums and one division.
    """

    def __init__(self, tables: tuple[list[int], list[int]], endpoint: int, x):
        x = self.x = _exact(x)
        self.endpoint = endpoint
        n, d = x.numerator, x.denominator  # P times -x, Q times -x^2, all times d^2
        factors = (-n * d,) * 4 + (-n * n,) * 3 + (d * d,) * 2
        ints = [v * f for v, f in zip(tables[endpoint], factors)]
        g = math.gcd(*ints)  # the smallest integers keep every term's products short
        self.ints = [v // g for v in ints]

    def branch(self, nu: Fraction, cap: int, bits: int, grow: bool,
               digits: int = _TAIL_DIGITS) -> _Branch:
        """Exponent-0 branch (w, w') at this offset, to `digits` digits.

        The sum runs in fixed point: integers scaled by 2^F, F the bit
        equivalent of _digits(bits), each division rounded to nearest
        (a floor would leave terms below one unit at -1 for ever, and
        the tail would never go quiet).  w and w' accumulate sum b_M
        and sum M b_M / x.

        Terms are added until _QUIET_TERMS consecutive ones (of w and
        w') fall below 10^-digits (|w| + |w'|): relative to the branch's
        own value, because at b = 100 the z = 1 branch cancels by 20-40
        digits and a test against its peak term stops early with the
        wrong sign.  That loss, log10(peak / (|w| + |w'|)), must leave
        `digits` digits.  The same test bounds the fixed-point error:
        each rounding is 2^-F of the first term, 1, so no larger than a
        rounding at _digits(bits) significant digits of the peak, and
        the sums keep _digits(bits) - loss >= digits digits of
        |w| + |w'| as a floating sum would; a term that rounds to zero
        is then below the tail tolerance as well.  The terms stop at
        cap.  With grow a lossy branch reruns at bits sized from its
        loss; otherwise, and for a sum that reaches cap, the shortfall
        raises PrecisionExhausted naming the terms and bits tried.

        Before any term is summed the cap itself is tested: with
        alpha = P(M) / C_1(M) and beta = Q(M) / C_1(M) the
        terms near M grow by the largest root of r^2 = alpha r + beta,
        of modulus at least 1 exactly when |alpha| + beta >= 1 or
        |beta| >= 1.  If so at M = cap the tail cannot go quiet within
        the cap, and the same PrecisionExhausted is raised at once.
        """
        n, d = nu.numerator, nu.denominator
        p0, p0_nu, p1, p2, q0, q0_nu, q1, d1, d2 = self.ints
        p0, q0 = p0 * d + p0_nu * n, q0 * d + q0_nu * n
        p1, p2, q1, d1, d2 = p1 * d, p2 * d, q1 * d, d1 * d, d2 * d
        # terms still growing at the cap stop the sum before its first term
        stop = 0 if self._growing(cap, p0, p1, p2, q0, q1, d1, d2) else cap
        x = self.x
        num, den = abs(x.numerator), x.denominator  # |x| = num / den
        tail_scale = 10**digits
        p2x2, d2x2 = 2 * p2, 2 * d2
        while True:
            frac_bits = math.ceil(_digits(bits) / _LOG10_2)
            unit = 1 << frac_bits
            # the term sizes |b_M| + |M b_M / x| and |w| + |w'| below are
            # carried times |x| 2^F, hence the factors num and den
            b1, b2 = unit, 0  # b_{M-1}, b_{M-2}
            w, dw = unit, 0  # sum b_M, sum M b_M
            peak = bound = num * unit  # bound >= |w| + |w'|, exact when last tested
            quiet, m = 0, 0
            # at M = 0: P(M) and its step P(M + 1) - P(M), Q(M), C_1(M) and
            # its step, and num + M den, the factor of the term sizes
            pm, dp, qm, div, dd, size = p0 - p1 + p2, p1 - p2, q0 - 2 * q1, 0, d2 + d1, num
            while quiet < _QUIET_TERMS:
                if m == stop:
                    raise PrecisionExhaustedError(
                        "series tail not negligible within the term cap",
                        order=cap, bits=bits, endpoint=self.endpoint,
                    )
                m += 1
                pm += dp
                dp += p2x2
                qm += q1
                div += dd
                dd += d2x2
                size += den
                bm = (pm * b1 + qm * b2 + (div >> 1)) // div
                w += bm
                dw += m * bm
                t = abs(bm) * size
                if t > peak:
                    peak = t
                # |w| + |w'| grows by at most t a term, so the exact sum is
                # needed only once the bound no longer decides the test
                bound += t
                small = t * tail_scale
                if small > bound:
                    quiet = 0
                else:
                    bound = abs(w) * num + abs(dw) * den
                    quiet = quiet + 1 if small <= bound else 0
                b2, b1 = b1, bm
            value = abs(w) * num + abs(dw) * den
            if value:
                loss = _log10_floor(peak, num * unit) + 1 - _log10_floor(value, num * unit)
            else:
                loss = _digits(_BITS_CAP)
            if _digits(bits) - loss >= digits:
                return _Branch(w, _round_div(dw * den, x.numerator), frac_bits, m, bits, loss)
            need = _bits_for(loss + digits)
            if not grow or need > _BITS_CAP:
                raise PrecisionExhaustedError(
                    "cancellation leaves too few digits at this precision",
                    order=m, bits=bits, endpoint=self.endpoint, lost_digits=loss,
                )
            bits = need

    @staticmethod
    def _growing(m, p0, p1, p2, q0, q1, d1, d2) -> bool:
        """|alpha| + beta >= 1 or |beta| >= 1 at M = m (see branch)."""
        div = (d2 * m + d1) * m
        q = q1 * (m - 2) + q0
        return abs((p2 * (m - 1) + p1) * (m - 1) + p0) + q >= div or abs(q) >= div


class _Shooting:
    """Mismatch evaluations of one problem, and the work they took."""

    def __init__(self, p: PolymerParams, cap: int, bits: int, grow: bool):
        if bits > _BITS_CAP:
            raise ValueError(f"precision_bits must be at most {_BITS_CAP}, got {bits}")
        # bounded at 0 and bounded at 1, both summed at the matching point
        self.tables = _recurrences(p)
        self.series = (_Series(self.tables, 0, _Z_MATCH), _Series(self.tables, 1, _Z_MATCH - 1))
        self.cap, self.grow = cap, grow
        # precision by tail digits; the scan's is set by the first full
        # evaluation, and each grows from the loss it measures
        self.bits = {_TAIL_DIGITS: max(bits, 64)}
        self.terms = 0
        self.evaluations = 0

    def branches(self, nu, digits: int = _TAIL_DIGITS) -> tuple[_Branch, _Branch]:
        """Bounded-at-0 and bounded-at-1 branches at the matching point."""
        bits, nu = self.bits[digits], _exact(nu)
        out = tuple(s.branch(nu, self.cap, bits, self.grow, digits) for s in self.series)
        # a precision that had to grow once is kept for later evaluations
        self.bits[digits] = max(bits, *(br.bits for br in out))
        lost = max(br.lost for br in out)
        self.bits.setdefault(_SIGN_DIGITS, _bits_for(lost + _SIGN_DIGITS))
        self.terms = max(self.terms, *(br.terms for br in out))
        return out

    def wronskian(self, nu, digits: int = _TAIL_DIGITS) -> tuple[Decimal, float]:
        """Raw Wronskian of the two bounded branches, and the same scaled
        by (|w0| + |w0'|) (|w1| + |w1'|) into [-1, 1].

        The raw value is nearly linear in nu and drives the refinement;
        the scaled one is the reported mismatch.  Both have one sign.
        """
        self.evaluations += 1
        left, right = self.branches(nu, digits)
        raw = left.w * right.dw - left.dw * right.w
        norm = (abs(left.w) + abs(left.dw)) * (abs(right.w) + abs(right.dw))
        return Decimal(raw) / (1 << (left.frac_bits + right.frac_bits)), raw / norm

    def scan_point(self, nu) -> tuple[Decimal, float]:
        """wronskian at a grid point of the scan, which needs only its sign.

        The first point is evaluated in full, and its loss sizes the
        scan's precision for S = _SIGN_DIGITS digits.  Later points sum
        each branch to S digits, so w and w' are each known to
        eps (|w| + |w'|), eps = 10^-S (_Series.branch).  With
        n_k = |w_k| + |w_k'| and d the errors of the summed values,
            dD = dw0 w1' + w0 dw1' - dw0' w1 - w0' dw1 + dw0 dw1' - dw0' dw1,
        so |dD| <= (4 eps + 2 eps^2) n0 n1, and the summed normalizer is
        within a factor (1 +- 2 eps)^2 of n0 n1: a mismatch from S-digit
        sums lies within 8 eps + O(eps^2) of the full one.  The sign is
        taken when the mismatch D / (n0 n1) exceeds the bound on dD
        times _SIGN_MARGIN = 100, which also covers the tail test (its
        _QUIET_TERMS small terms bound the tail only while the terms
        keep falling); otherwise nu is evaluated again in full, and
        that evaluation counts as well.
        """
        if _SIGN_DIGITS in self.bits:
            raw, mismatch = self.wronskian(nu, _SIGN_DIGITS)
            if abs(mismatch) > _SIGN_BOUND:
                return raw, mismatch
        return self.wronskian(nu)


def _secant(a, fa, b, fb) -> Decimal:
    """Zero of the line through (a, fa) and (b, fb)."""
    return b - fb * (b - a) / (fb - fa)


def _inverse_quadratic(points) -> Decimal:
    """x at f = 0 on the quadratic x(f) through three (x, f) points, f distinct."""
    (x0, f0), (x1, f1), (x2, f2) = points
    return (x2 + (x0 - x2) * f1 * f2 / ((f0 - f1) * (f0 - f2))
            + (x1 - x2) * f0 * f2 / ((f1 - f0) * (f1 - f2)))


def _refine(f, a, fa, b, fb) -> Decimal:
    """Root of f inside the sign-change bracket [a, b], a < b.

    Safeguarded interpolation (Dekker, "Finding a zero by means of
    successive linear interpolation", 1969; Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).  Each step takes
    the inverse-quadratic estimate through the last three evaluations,
    or the secant between the bracket ends while those hold fewer than
    three distinct values, and holds it strictly inside the bracket and
    at least tol / 2 from either end, tol the width
    _RTOL * max(|a + b| / 2, _NU_FLOOR) that ends the refinement.  An
    estimate within tol / 2 of the root is so pushed across it, and the
    bracket closes on the next step; regula falsi would creep up on the
    root from one side instead.  A bracket that has not halved in three
    steps is bisected.  Returns the secant estimate between the ends of
    the final bracket.
    """
    last = [(a, fa), (b, fb)]  # the last three evaluations
    widths = [b - a]
    while True:
        tol = _RTOL * max(abs(a + b) / 2, _NU_FLOOR)
        if widths[-1] <= tol:
            return _secant(a, fa, b, fb)
        if len(widths) > 3 and 2 * widths[-1] > widths[-4]:
            c = (a + b) / 2
        else:
            distinct = len({v for _, v in last}) == 3
            c = _inverse_quadratic(last) if distinct else _secant(a, fa, b, fb)
            c = min(max(c, a + tol / 2), b - tol / 2)
        fc = f(c)
        if fc == 0:
            return c
        if (fc < 0) == (fa < 0):
            a, fa = c, fc
        else:
            b, fb = c, fc
        last = [*last[-2:], (c, fc)]
        widths.append(b - a)


def solve_spectrum(
    p: PolymerParams,
    nu_min,
    nu_max,
    count: int = 1,
    *,
    precision_bits: int = 256,
    series_order: int = 200,
    grid_points: int = 64,
) -> SpectralResult:
    """Scan [nu_min, nu_max] for eigenvalues of the bounded problem.

    The mismatch D(nu) (Wronskian of the bounded-at-0 and bounded-at-1
    branches at the matching point z = 1/2) is sampled on a uniform
    grid from nu_min upward until `count` sign changes are bracketed;
    each is refined on the raw Wronskian (its normalizer is positive, so
    the brackets are the same) to relative width 1e-10, by inverse-
    quadratic and secant steps held inside the bracket and bisection
    where those stall (Dekker 1969; Brent 1973, ch. 4).  The eigenvalue
    returned is the secant estimate between the ends of the final
    bracket, not its midpoint.  The raw Wronskian is nearly linear there,
    so that estimate lies far closer to the root than the bracket width:
    on the solves of the benchmark it matches the root to float
    precision.  Only 1e-10 is guaranteed, but a check of the
    eigenfunction by differences across z = 1/2 needs nu to about 1e-12.
    Up to `count` eigenvalues are returned, ascending.
    The spectrum continues below 0, and nu_1 of T_rel = b tau / nu_1 is
    the smallest positive eigenvalue: a window from nu_min > 0 returns
    it first, and warnings say so when the first is negative.  Every
    series sizes itself: its terms run until the tail is negligible,
    up to a hard cap, and its precision grows past precision_bits when
    cancellation calls for it; series_order is accepted and has no
    effect.  A first eigenvalue within the refinement's absolute
    resolution (1e-16) of zero, or one whose T_rel underflows or
    overflows a float, raises PrecisionExhausted: T_rel has no value.
    precision_bits above the cap of 4096 raises ValueError.
    """
    if not nu_min < nu_max:
        raise ValueError("need nu_min < nu_max")
    if count < 1:
        raise ValueError("need count >= 1")
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    lo, hi = as_fraction(nu_min), as_fraction(nu_max)
    shoot = _Shooting(p, _ORDER_CAP, precision_bits, True)
    samples: list[tuple[float, float]] = []
    eigenvalues: list[float] = []
    with localcontext() as ctx:
        # the branches hold 20 digits, so nu needs no more; each further
        # digit would lengthen the integers of every series term
        ctx.prec = _TAIL_DIGITS
        prev = None
        for i in range(grid_points + 1):
            nu_exact = lo + (hi - lo) * i / grid_points
            nu = Decimal(nu_exact.numerator) / nu_exact.denominator
            d, mismatch = shoot.scan_point(nu)
            samples.append((float(nu), mismatch))
            if prev is not None and prev[1] * d < 0:
                root = _refine(lambda v: shoot.wronskian(v)[0], *prev, nu, d)
                eigenvalues.append(float(root))
            elif d == 0:
                eigenvalues.append(float(nu))
            if len(eigenvalues) >= count:
                break
            prev = (nu, d)
    if not eigenvalues:
        raise NoEigenvalueInWindowError(
            "no sign change of the matching Wronskian in the window",
            nu_min=float(lo),
            nu_max=float(hi),
        )
    nu_1 = eigenvalues[0]
    bits = max(shoot.bits.values())
    if abs(nu_1) < _NU_RESOLUTION:
        # near nu = 0 the branches can agree to working precision, and
        # then the raw Wronskian changes sign by rounding alone
        raise PrecisionExhaustedError(
            "first eigenvalue indistinguishable from zero", nu=nu_1, bits=bits
        )
    try:
        t_rel = float(p.b * p.tau / Fraction(nu_1))
    except OverflowError:
        raise PrecisionExhaustedError("T_rel overflows a float", nu=nu_1, bits=bits) from None
    if t_rel == 0:
        raise PrecisionExhaustedError("T_rel underflows a float", nu=nu_1, bits=bits)
    warnings = []
    if len(eigenvalues) < count:
        warnings.append(f"requested {count} eigenvalues, found {len(eigenvalues)}")
    if nu_1 < 0:
        warnings.append("first eigenvalue is negative, so t_rel is not the relaxation time: "
                        "nu_1 of T_rel is the smallest positive eigenvalue")
    return SpectralResult(
        eigenvalues=tuple(eigenvalues),
        t_rel=t_rel,
        wronskian_samples=tuple(samples),
        series_order=shoot.terms,
        precision_bits=bits,
        evaluations=shoot.evaluations,
        warnings=tuple(warnings),
    )


def wronskian_mismatch(
    p: PolymerParams,
    nu,
    *,
    precision_bits: int = 256,
    series_order: int = 400,
) -> float:
    """Normalized eigencondition value at one nu (diagnostic).

    series_order caps the terms of each branch and precision_bits is
    fixed; PrecisionExhausted is raised when either falls short.
    """
    return _Shooting(p, series_order, precision_bits, False).wronskian(nu)[1]


def eigenfunction_samples(
    p: PolymerParams,
    nu,
    zs,
    *,
    precision_bits: int = 256,
    series_order: int = 400,
):
    """Matched eigenfunction samples (z, w, w', w'') at points of (0, 1).

    Points at or left of the matching point z = 1/2 use the
    bounded-at-0 branch; points right of it use the bounded-at-1 branch
    scaled so the two values agree at the matching point.  At an
    eigenvalue the derivative then glues as well, up to the residual
    mismatch.  w'' is read off the equation, -(P_1 w' + P_2 w) / P_0
    at z, where P_0 = z (z - 1) does not vanish.  series_order caps
    the terms of each branch, as in wronskian_mismatch.  Returns a list
    of float tuples.  When the bounded-at-1 branch is zero at z = 1/2
    no scale glues the two, and PrecisionExhausted is raised naming nu
    and the bits used.
    """
    nu_exact = _exact(nu)
    shoot = _Shooting(p, series_order, precision_bits, False)
    left, right = shoot.branches(nu_exact)
    bits = shoot.bits[_TAIL_DIGITS]
    if right.w == 0:
        raise PrecisionExhaustedError(
            "bounded-at-1 branch vanishes at the matching point", nu=nu, bits=bits
        )
    ratio = left.values()[0] / right.values()[0]
    p0, p1, p2 = polymer_ode(p, nu_exact).coeffs
    out = []
    for z_raw in zs:
        z = _exact(z_raw)
        if not 0 < z < 1:
            raise ValueError("sample points must lie strictly inside (0, 1)")
        at_one = z > _Z_MATCH
        series = _Series(shoot.tables, int(at_one), z - 1 if at_one else z)
        br = series.branch(nu_exact, series_order, bits, False)
        scale = ratio if at_one else 1
        w, dw = (scale * v for v in br.values())
        d2w = -(p1(z) * dw + p2(z) * w) / p0(z)
        out.append((float(z), float(w), float(dw), float(d2w)))
    return out

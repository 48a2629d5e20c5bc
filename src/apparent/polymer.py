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
proportional; the first eigenvalue nu_1 sets the relaxation time
T_rel = b tau / nu_1, which grows as W approaches the coil-stretch
transition at W = 1/2.

Numerics: two-sided Frobenius-series shooting.  One series kernel
(_Series.branch) sums a branch in fixed point, on Python integers
scaled by 2^F with F the bit equivalent of the working digits, each
term rounded to nearest (Brent & Zimmermann, Modern Computer
Arithmetic, 2010, ch. 4).  It sums until the tail is negligible
against the branch's own value and measures the digits lost to
cancellation, which at the z = 1 end (coefficients of size 2^b) runs
to tens of digits; the 20 digits that loss must leave also bound the
fixed-point rounding.  The scan stops at the last bracket needed; each
bracket is refined by the Illinois method (Dowell & Jarratt, BIT 1971)
on the raw Wronskian, which is nearly linear in nu where the reported,
scale-normalized mismatch saturates.  decimal appears only at the
edges: for nu on the scan and in the refinement, and for digit counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import (
    DegenerateApparentPointError,
    NoEigenvalueInWindowError,
    PrecisionExhaustedError,
)
from .odemodel import LinearODE, make_ode
from .polyrat import RatPoly, as_fraction

_ORDER_CAP = 6400
_BITS_CAP = 4096
_GUARD_DIGITS = 10
# tail test: _QUIET_TERMS consecutive terms each below 1e-20 (|w| + |w'|);
# the same 20 digits must survive cancellation
_TAIL_DIGITS = 20
_QUIET_TERMS = 8
_RTOL = Decimal(10) ** -10  # relative bracket width that ends refinement
_NU_FLOOR = Decimal("1e-6")  # below |nu| = 1e-6 the width is absolute
# the refinement's absolute resolution: a root closer to 0 is not told from 0
_NU_RESOLUTION = float(_RTOL * _NU_FLOOR)
_LOG10_2 = math.log10(2)


@dataclass(frozen=True)
class PolymerParams:
    """Model parameters: flexibility b, stretching W, base time tau.

    kappa = b W is always derived, never stored.  Pass Fractions or
    decimal strings ("0.35") to keep parameters exact; floats are
    converted via their exact binary value.
    """

    b: Fraction
    W: Fraction
    tau: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("b", "W", "tau"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.b <= 0 or self.W <= 0 or self.tau <= 0:
            raise ValueError("b, W, tau must all be positive")

    @property
    def kappa(self) -> Fraction:
        return self.b * self.W


@dataclass(frozen=True)
class SpectralResult:
    """Eigenvalues and diagnostics of one spectral solve.

    eigenvalues: strictly increasing; t_rel = b tau / eigenvalues[0].
    wronskian_samples: (nu, scale-normalized mismatch) at the scan grid
    points evaluated; the scan stops at the grid point that closes the
    last bracket needed, and the mismatch changes sign across each
    reported eigenvalue.
    series_order / precision_bits: the largest number of series terms
    and the largest precision any branch evaluation used.
    evaluations: mismatch evaluations, grid and refinement together.
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
    nu = as_fraction(nu)
    kappa = p.kappa
    z = RatPoly([0, 1])
    zm1 = RatPoly([-1, 1])
    p0 = z * zm1
    p1 = -kappa * z * zm1 + Fraction(3, 2) * zm1 + (p.b + 1) * z
    p2 = (nu - kappa) * zm1 - 2 * p.b * kappa * z
    return make_ode([p0, p1, p2])


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


def _exact(v) -> Fraction:
    """Exact rational of a number: Decimals and the text of floats and
    strings are taken as written."""
    if isinstance(v, Decimal):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(repr(v))
    return as_fraction(v)


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


@dataclass(frozen=True)
class _Branch:
    """One exponent-0 branch at one point: values and the work they took.

    w, dw, d2w are fixed-point integers: the branch values times
    2^frac_bits.
    """

    w: int
    dw: int
    d2w: int
    frac_bits: int
    terms: int
    bits: int

    def values(self) -> tuple[Fraction, Fraction, Fraction]:
        """(w, w', w'') as exact rationals."""
        return tuple(Fraction(v, 1 << self.frac_bits) for v in (self.w, self.dw, self.d2w))


class _Series:
    """The exponent-0 series of one endpoint, summed at offset x from it.

    At each endpoint the exponent-0 Taylor coefficients satisfy
        a_M c1(M) = -(a_{M-1} c2(M-1) + a_{M-2} c3(M-2)),
    with c1(M) nonzero for all M >= 1 (the other exponents, -1/2 and
    -b, are negative, so the recurrence never hits a resonance).  In
    the terms b_M = a_M x^M it reads
        M (M + e1) b_M = P(M) b_{M-1} + Q(M) b_{M-2},
    P(M) = -sign x c2(M-1), Q(M) = -sign x^2 c3(M-2), where nu enters
    only the constant terms of P and Q, linearly.  The coefficients
    apart from nu are cleared to integers once here; branch() clears
    nu's denominator, so every term costs a few integer products and
    one division.
    """

    def __init__(self, b, kappa, at_one: bool, x):
        x = _exact(x)
        self.endpoint = 1 if at_one else 0
        # c1(s) = sign s (s + e1); c2(s) = s (s + e2) + f2; c3(s) = g3 - kappa s,
        # f2 = f2_0 + f2_nu nu and g3 = g3_0 + nu
        if at_one:
            sign, e1, e2, f2_0, f2_nu = 1, b, b + Fraction(3, 2) - kappa, -2 * b * kappa, 0
        else:
            sign, e1, e2, f2_0, f2_nu = -1, Fraction(1, 2), kappa + b + Fraction(3, 2), kappa, -1
        g3_0 = -kappa - 2 * b * kappa
        px, qx = -sign * x, -sign * x * x
        coeffs = [
            px * (1 - e2 + f2_0), px * f2_nu, px * (e2 - 2), px,  # P: 1, nu, M, M^2
            qx * (g3_0 + 2 * kappa), qx, -qx * kappa,  # Q: 1, nu, M
            e1, Fraction(1),  # M (M + e1): M, M^2
        ]
        scale = math.lcm(*[c.denominator for c in coeffs])
        self.ints = [c.numerator * (scale // c.denominator) for c in coeffs]
        self.x = x

    def branch(self, nu, cap: int, bits: int, grow: bool) -> _Branch:
        """Exponent-0 branch (w, w', w'') at this offset.

        The sum runs in fixed point: integers scaled by 2^F, F the bit
        equivalent of _digits(bits), each division rounded to nearest
        (a floor would leave terms below one unit at -1 for ever, and
        the tail would never go quiet).  w, w' and w'' accumulate
        sum b_M, sum M b_M / x and sum M(M-1) b_M / x^2.

        Terms are added until _QUIET_TERMS consecutive ones (of w and
        w') fall below 1e-20 (|w| + |w'|): relative to the branch's own
        value, because at b = 100 the z = 1 branch cancels by 20-40
        digits and a test against its peak term stops early with the
        wrong sign.  That loss, log10(peak / (|w| + |w'|)), must leave
        20 digits.  The same test bounds the fixed-point error: each
        rounding is 2^-F of the first term, 1, so no larger than a
        rounding at _digits(bits) significant digits of the peak, and
        the sums keep _digits(bits) - loss >= 20 digits of |w| + |w'|
        as a floating sum would; a term that rounds to zero is then
        below the tail tolerance as well.  With grow the terms may
        reach _ORDER_CAP and a lossy branch reruns at bits sized from
        its loss; otherwise either shortfall raises PrecisionExhausted
        naming the terms and bits tried.
        """
        if grow:
            cap = _ORDER_CAP
        nu = _exact(nu)
        n, d = nu.numerator, nu.denominator
        p0, p0_nu, p1, p2, q0, q0_nu, q1, d1, d2 = self.ints
        p0, q0 = p0 * d + p0_nu * n, q0 * d + q0_nu * n
        p1, p2, q1, d1, d2 = p1 * d, p2 * d, q1 * d, d1 * d, d2 * d
        x = self.x
        num, den = abs(x.numerator), x.denominator  # |x| = num / den
        tail_scale = 10**_TAIL_DIGITS
        while True:
            frac_bits = math.ceil(_digits(bits) / _LOG10_2)
            unit = 1 << frac_bits
            # the term sizes |b_M| + |M b_M / x| and |w| + |w'| below are
            # carried times |x| 2^F, hence the factors num and den
            b1, b2 = unit, 0  # b_{M-1}, b_{M-2}
            w, dw, d2w = unit, 0, 0  # sum b_M, sum M b_M, sum M (M-1) b_M
            peak = bound = num * unit  # bound >= |w| + |w'|, exact when last tested
            quiet, m = 0, 0
            while quiet < _QUIET_TERMS:
                if m == cap:
                    raise PrecisionExhaustedError(
                        "series tail not negligible within the term cap",
                        order=cap, bits=bits, endpoint=self.endpoint,
                    )
                m += 1
                div = (d2 * m + d1) * m
                bm = (((p2 * m + p1) * m + p0) * b1 + (q1 * m + q0) * b2 + (div >> 1)) // div
                w += bm
                dw += m * bm
                d2w += m * (m - 1) * bm
                t = abs(bm) * (num + m * den)
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
            if _digits(bits) - loss >= _TAIL_DIGITS:
                return _Branch(
                    w, _round_div(dw * den, x.numerator), _round_div(d2w * den * den, num * num),
                    frac_bits, m, bits,
                )
            need = -(-math.ceil((loss + _TAIL_DIGITS) / _LOG10_2) // 64) * 64
            if not grow or need > _BITS_CAP:
                raise PrecisionExhaustedError(
                    "cancellation leaves too few digits at this precision",
                    order=m, bits=bits, endpoint=self.endpoint, lost_digits=loss,
                )
            bits = need


class _Shooting:
    """Mismatch evaluations of one problem, and the work they took."""

    def __init__(self, p: PolymerParams, matching_point, cap: int, bits: int, grow: bool):
        self.z_match = as_fraction(matching_point)
        if not 0 < self.z_match < 1:
            raise ValueError(f"matching_point must lie inside (0, 1), got {matching_point}")
        # bounded at 0 and bounded at 1, both summed at the matching point
        self.series = (
            _Series(p.b, p.kappa, False, self.z_match),
            _Series(p.b, p.kappa, True, self.z_match - 1),
        )
        self.cap, self.grow = cap, grow
        self.bits = max(bits, 64)
        self.terms = 0
        self.evaluations = 0

    def branches(self, nu) -> tuple[_Branch, _Branch]:
        """Bounded-at-0 and bounded-at-1 branches at the matching point."""
        out = tuple(s.branch(nu, self.cap, self.bits, self.grow) for s in self.series)
        # a precision that had to grow once is kept for later evaluations
        self.bits = max(self.bits, *(br.bits for br in out))
        self.terms = max(self.terms, *(br.terms for br in out))
        return out

    def wronskian(self, nu) -> tuple[Decimal, float]:
        """Raw Wronskian of the two bounded branches, and the same scaled
        by (|w0| + |w0'|) (|w1| + |w1'|) into [-1, 1].

        The raw value is nearly linear in nu and drives the refinement;
        the scaled one is the reported mismatch.  Both have one sign.
        """
        self.evaluations += 1
        left, right = self.branches(nu)
        raw = left.w * right.dw - left.dw * right.w
        norm = (abs(left.w) + abs(left.dw)) * (abs(right.w) + abs(right.dw))
        return Decimal(raw) / (1 << (left.frac_bits + right.frac_bits)), raw / norm


def _illinois(f, a, fa, b, fb) -> Decimal:
    """Root of f inside the sign-change bracket [a, b] (Illinois method).

    Each step is a secant step between the bracket ends.  The new point
    replaces the end of equal sign; when that is the same end as last
    time, the value kept at the far end is halved, which stops regula
    falsi from stalling on one side.  Stops at relative width 1e-10.
    """
    while abs(b - a) > _RTOL * max(abs(a + b) / 2, _NU_FLOOR):
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        if fc == 0:
            return c
        if (fc < 0) != (fb < 0):
            a, fa = b, fb
        else:
            fa /= 2
        b, fb = c, fc
    return (a + b) / 2


def solve_spectrum(
    p: PolymerParams,
    nu_min,
    nu_max,
    count: int = 1,
    *,
    precision_bits: int = 256,
    series_order: int = 200,
    grid_points: int = 64,
    matching_point=Fraction(1, 2),
    auto_retry: bool = True,
) -> SpectralResult:
    """Scan [nu_min, nu_max] for eigenvalues of the bounded problem.

    The mismatch D(nu) (Wronskian of the bounded-at-0 and bounded-at-1
    branches at the matching point) is sampled on a uniform grid from
    nu_min upward until `count` sign changes are bracketed; each is
    refined by the Illinois method on the raw Wronskian (its
    normalizer is positive, so the brackets are the same) to relative
    width 1e-10.  wronskian_samples hold the normalized value.  Up to
    `count` eigenvalues are returned, ascending.  With auto_retry=True
    a series may grow past series_order up to a hard cap, and past
    precision_bits when cancellation calls for it; with
    auto_retry=False both are hard limits.  A first eigenvalue within the
    refinement's absolute resolution (1e-16) of zero, or one whose T_rel
    underflows a float, raises PrecisionExhausted: T_rel has no value.
    """
    if not nu_min < nu_max:
        raise ValueError("need nu_min < nu_max")
    if count < 1:
        raise ValueError("need count >= 1")
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    lo, hi = as_fraction(nu_min), as_fraction(nu_max)
    shoot = _Shooting(p, matching_point, series_order, precision_bits, auto_retry)
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
            d, mismatch = shoot.wronskian(nu)
            samples.append((float(nu), mismatch))
            if prev is not None and prev[1] * d < 0:
                root = _illinois(lambda v: shoot.wronskian(v)[0], *prev, nu, d)
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
    if abs(nu_1) < _NU_RESOLUTION:
        # near nu = 0 the branches can agree to working precision, and
        # then the raw Wronskian changes sign by rounding alone
        raise PrecisionExhaustedError(
            "first eigenvalue indistinguishable from zero", nu=nu_1, bits=shoot.bits
        )
    t_rel = float(p.b * p.tau / Fraction(nu_1))
    if t_rel == 0:
        raise PrecisionExhaustedError("T_rel underflows a float", nu=nu_1, bits=shoot.bits)
    warnings = ()
    if len(eigenvalues) < count:
        warnings = (f"requested {count} eigenvalues, found {len(eigenvalues)}",)
    return SpectralResult(
        eigenvalues=tuple(eigenvalues),
        t_rel=t_rel,
        wronskian_samples=tuple(samples),
        series_order=shoot.terms,
        precision_bits=shoot.bits,
        evaluations=shoot.evaluations,
        warnings=warnings,
    )


def wronskian_mismatch(
    p: PolymerParams,
    nu,
    *,
    precision_bits: int = 256,
    series_order: int = 400,
    matching_point=Fraction(1, 2),
) -> float:
    """Normalized eigencondition value at one nu (diagnostic).

    series_order caps the terms of each branch and precision_bits is
    fixed; PrecisionExhausted is raised when either falls short.
    """
    return _Shooting(p, matching_point, series_order, precision_bits, False).wronskian(nu)[1]


def eigenfunction_samples(
    p: PolymerParams,
    nu,
    zs,
    *,
    precision_bits: int = 256,
    series_order: int = 400,
    matching_point=Fraction(1, 2),
):
    """Matched eigenfunction samples (z, w, w', w'') at points of (0, 1).

    Points at or left of the matching point use the bounded-at-0
    branch; points right of it use the bounded-at-1 branch scaled so
    the two values agree at the matching point.  At an eigenvalue the
    derivative then glues as well, up to the residual mismatch.
    series_order caps the terms of each branch, as in
    wronskian_mismatch.  Returns a list of float tuples.
    """
    shoot = _Shooting(p, matching_point, series_order, precision_bits, False)
    left, right = shoot.branches(nu)
    if right.w == 0:
        raise ZeroDivisionError("bounded-at-1 branch vanishes at the matching point")
    ratio = left.values()[0] / right.values()[0]
    out = []
    for z_raw in zs:
        z = _exact(z_raw)
        if not 0 < z < 1:
            raise ValueError("sample points must lie strictly inside (0, 1)")
        at_one = z > shoot.z_match
        series = _Series(p.b, p.kappa, at_one, z - 1 if at_one else z)
        br = series.branch(nu, series_order, shoot.bits, False)
        scale = ratio if at_one else 1
        out.append((float(z), *(float(scale * v) for v in br.values())))
    return out

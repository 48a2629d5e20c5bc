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

Numerics: two-sided Frobenius-series shooting in stdlib decimal
arithmetic.  One series kernel (_branch) sums a branch until its tail
is negligible against its own value and measures the digits lost to
cancellation, which at the z = 1 end (coefficients of size 2^b) runs
to tens of digits.  The scan stops at the last bracket needed; each
bracket is refined by the Illinois method (Dowell & Jarratt, BIT 1971).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from . import transform
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
_TAIL_TOL = Decimal(10) ** -_TAIL_DIGITS
_QUIET_TERMS = 8
_RTOL = Decimal(10) ** -10  # relative bracket width that ends refinement
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
    endpoint_values: filled only under strict mode; one (w(0+), w(1-))
    pair of matched-eigenfunction limits per eigenvalue.  Both limits
    are finite and nonzero (the exponent-0 branches tend to constants),
    so a literal vanishing condition at the endpoints has no nontrivial
    solution; strict mode makes that visible instead of hiding it.
    """

    eigenvalues: tuple[float, ...]
    t_rel: float
    wronskian_samples: tuple[tuple[float, float], ...]
    series_order: int
    precision_bits: int
    evaluations: int
    warnings: tuple[str, ...] = ()
    endpoint_values: tuple[tuple[float, float], ...] = ()


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
    """Equation for u = w', cleared by (z - q).

    Built twice: once from the one-step formulas with the logarithmic
    derivative P_2'/P_2 = 1/(z-q) substituted and cleared, once through
    the general transform; the two must agree identically.
    """
    nu = as_fraction(nu)
    q = apparent_location(p.b, p.kappa, nu)  # raises when degenerate
    base = polymer_ode(p, nu)
    p0, p1, p2 = base.coeffs
    zq = RatPoly([-q, 1])
    direct = make_ode(
        [
            zq * p0,
            zq * (p1 + p0.derivative()) - p0,
            zq * (p2 + p1.derivative()) - p1,
        ]
    )
    general = transform.deform(base).ode
    if direct != general:
        raise AssertionError("one-step and general deform paths disagree")
    return direct


def _digits(bits: int) -> int:
    return math.ceil(bits * _LOG10_2) + _GUARD_DIGITS


def _dec(v) -> Decimal:
    """Decimal of a number: exact for Decimals and the text of floats
    and strings, rounded to the context precision for rationals."""
    if isinstance(v, Decimal):
        return v
    if isinstance(v, (str, float)):
        return Decimal(str(v))
    fr = as_fraction(v)
    return Decimal(fr.numerator) / fr.denominator


@dataclass(frozen=True)
class _Branch:
    """One exponent-0 branch at one point: values and the work they took."""

    w: Decimal
    dw: Decimal
    d2w: Decimal
    terms: int
    bits: int


def _branch(b, kappa, nu, at_one: bool, x, cap: int, bits: int, grow: bool) -> _Branch:
    """Exponent-0 branch (w, w', w'') at offset x from its endpoint.

    At each endpoint the exponent-0 Taylor coefficients satisfy
        a_M c1(M) = -(a_{M-1} c2(M-1) + a_{M-2} c3(M-2)),
    with c1(M) nonzero for all M >= 1 (the other exponents, -1/2 and
    -b, are negative, so the recurrence never hits a resonance).

    Terms are added until _QUIET_TERMS consecutive ones (of w and w')
    fall below 1e-20 (|w| + |w'|): relative to the branch's own value,
    because at b = 100 the z = 1 branch cancels by 20-40 digits and a
    test against its peak term stops early with the wrong sign.  That
    loss, log10(peak / (|w| + |w'|)), must leave 20 digits.  With grow
    the terms may reach _ORDER_CAP and a lossy branch reruns at bits
    sized from its loss; otherwise either shortfall raises
    PrecisionExhausted naming the terms and bits tried.
    """
    endpoint = 1 if at_one else 0
    if grow:
        cap = _ORDER_CAP
    while True:
        with localcontext() as ctx:
            ctx.prec = _digits(bits)
            bd, kd, nd, xd = _dec(b), _dec(kappa), _dec(nu), _dec(x)
            # c1(s) = sign s (s + e1); c2(s) = s (s + e2) + f2; c3(s) = g3 - kappa s
            if at_one:
                sign, e1, e2, f2 = 1, bd, bd + Decimal("1.5") - kd, -2 * bd * kd
            else:
                sign, e1, e2, f2 = -1, Decimal("0.5"), kd + bd + Decimal("1.5"), kd - nd
            g3 = nd - kd - 2 * bd * kd
            a_prev2, a_prev1 = Decimal(0), Decimal(1)
            w, dw, d2w = Decimal(1), Decimal(0), Decimal(0)
            xpow_lo, xpow = Decimal(0), Decimal(1)  # x^(m-2), x^(m-1) at step m
            peak, quiet, terms = Decimal(1), 0, 0
            while quiet < _QUIET_TERMS:
                if terms == cap:
                    raise PrecisionExhaustedError(
                        "series tail not negligible within the term cap",
                        order=cap, bits=bits, endpoint=endpoint,
                    )
                m = terms = terms + 1
                s = m - 1
                a_m = -(a_prev1 * (s * (s + e2) + f2) + a_prev2 * (g3 - kd * (s - 1))) / (
                    sign * m * (m + e1)
                )
                d2w += m * s * a_m * xpow_lo
                t_dw = m * a_m * xpow
                xpow_lo, xpow = xpow, xpow * xd
                t_w = a_m * xpow
                dw += t_dw
                w += t_w
                t = abs(t_w) + abs(t_dw)
                if t > peak:
                    peak = t
                quiet = quiet + 1 if t <= _TAIL_TOL * (abs(w) + abs(dw)) else 0
                a_prev2, a_prev1 = a_prev1, a_m
            value = abs(w) + abs(dw)
            loss = peak.adjusted() - value.adjusted() + 1 if value else _digits(_BITS_CAP)
        if _digits(bits) - loss >= _TAIL_DIGITS:
            return _Branch(w, dw, d2w, terms, bits)
        need = -(-math.ceil((loss + _TAIL_DIGITS) / _LOG10_2) // 64) * 64
        if not grow or need > _BITS_CAP:
            raise PrecisionExhaustedError(
                "cancellation leaves too few digits at this precision",
                order=terms, bits=bits, endpoint=endpoint, lost_digits=loss,
            )
        bits = need


class _Shooting:
    """Mismatch evaluations of one problem, and the work they took."""

    def __init__(self, p: PolymerParams, matching_point, cap: int, bits: int, grow: bool):
        self.b, self.kappa = p.b, p.kappa
        self.z_match = as_fraction(matching_point)
        if not 0 < self.z_match < 1:
            raise ValueError(f"matching_point must lie inside (0, 1), got {matching_point}")
        self.cap, self.grow = cap, grow
        self.bits = max(bits, 64)
        self.terms = 0
        self.evaluations = 0

    def branches(self, nu) -> tuple[_Branch, _Branch]:
        """Bounded-at-0 and bounded-at-1 branches at the matching point."""
        out = tuple(
            _branch(self.b, self.kappa, nu, at_one, x, self.cap, self.bits, self.grow)
            for at_one, x in ((False, self.z_match), (True, self.z_match - 1))
        )
        # a precision that had to grow once is kept for later evaluations
        self.bits = max(self.bits, *(br.bits for br in out))
        self.terms = max(self.terms, *(br.terms for br in out))
        return out

    def mismatch(self, nu) -> Decimal:
        """Scale-normalized Wronskian of the two bounded branches."""
        self.evaluations += 1
        left, right = self.branches(nu)
        with localcontext() as ctx:
            ctx.prec = _digits(self.bits)
            raw = left.w * right.dw - left.dw * right.w
            return raw / ((abs(left.w) + abs(left.dw)) * (abs(right.w) + abs(right.dw)))


def _illinois(f, a, fa, b, fb) -> Decimal:
    """Root of f inside the sign-change bracket [a, b] (Illinois method).

    Each step is a secant step between the bracket ends.  The new point
    replaces the end of equal sign; when that is the same end as last
    time, the value kept at the far end is halved, which stops regula
    falsi from stalling on one side.  Stops at relative width 1e-10.
    """
    while abs(b - a) > _RTOL * max(abs(a + b) / 2, Decimal("1e-6")):
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
    strict: bool = False,
) -> SpectralResult:
    """Scan [nu_min, nu_max] for eigenvalues of the bounded problem.

    The mismatch D(nu) (Wronskian of the bounded-at-0 and bounded-at-1
    branches at the matching point) is sampled on a uniform grid from
    nu_min upward until `count` sign changes are bracketed; each is
    refined by the Illinois method to relative width 1e-10.  Up to
    `count` eigenvalues are returned, ascending.  With auto_retry=True
    a series may grow past series_order up to a hard cap, and past
    precision_bits when cancellation calls for it; with
    auto_retry=False both are hard limits.

    strict=True additionally reports the endpoint limits of each
    matched eigenfunction in endpoint_values; see SpectralResult.
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
        ctx.prec = _digits(shoot.bits)
        prev = None
        for i in range(grid_points + 1):
            nu = _dec(lo + (hi - lo) * i / grid_points)
            d = shoot.mismatch(nu)
            samples.append((float(nu), float(d)))
            if prev is not None and prev[1] * d < 0:
                eigenvalues.append(float(_illinois(shoot.mismatch, *prev, nu, d)))
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
    warnings = ()
    if len(eigenvalues) < count:
        warnings = (f"requested {count} eigenvalues, found {len(eigenvalues)}",)
    endpoints = []
    if strict:
        # matched function = bounded-at-0 branch (value 1 at z=0)
        # glued at z_match to the bounded-at-1 branch (value 1 at
        # z=1) scaled by w0_m/w1_m, hence the limits below
        for ev in eigenvalues:
            left, right = shoot.branches(ev)
            endpoints.append((1.0, float(left.w / right.w) if right.w else math.inf))
    return SpectralResult(
        eigenvalues=tuple(eigenvalues),
        t_rel=float(p.b * p.tau / Fraction(eigenvalues[0])),
        wronskian_samples=tuple(samples),
        series_order=shoot.terms,
        precision_bits=shoot.bits,
        evaluations=shoot.evaluations,
        warnings=warnings,
        endpoint_values=tuple(endpoints),
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
    return float(_Shooting(p, matching_point, series_order, precision_bits, False).mismatch(nu))


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
    out = []
    with localcontext() as ctx:
        ctx.prec = _digits(shoot.bits)
        ratio = left.w / right.w
        for z_raw in zs:
            z = _dec(z_raw)
            if not 0 < z < 1:
                raise ValueError("sample points must lie strictly inside (0, 1)")
            at_one = z > shoot.z_match
            br = _branch(p.b, p.kappa, nu, at_one, z - 1 if at_one else z,
                         series_order, shoot.bits, False)
            scale = ratio if at_one else 1
            out.append((float(z), float(scale * br.w), float(scale * br.dw), float(scale * br.d2w)))
    return out

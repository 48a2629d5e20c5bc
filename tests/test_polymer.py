import itertools
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from apparent import (
    NoEigenvalueInWindowError,
    PointKind,
    PolymerParams,
    PrecisionExhaustedError,
    RatPoly,
    apparent_location,
    classify_point,
    deform,
    eigenfunction_samples,
    frobenius_series,
    indicial_exponents,
    is_apparent,
    polymer_deformed,
    polymer_ode,
    solve_spectrum,
    wronskian_mismatch,
)
from apparent import polymer
from apparent.errors import DegenerateApparentPointError

from _polymer_one_step import one_step_deformed

F = Fraction


@pytest.fixture(scope="module")
def small_spectrum():
    p = PolymerParams(b=F(2), W=F(1, 4))
    return p, solve_spectrum(
        p, F(1, 10), F(30), count=2, precision_bits=128, series_order=120, grid_points=48
    )


def test_polymer_ode_coefficients():
    p = PolymerParams(b=F(100), W=F(1, 4))
    assert p.kappa == 25
    ode = polymer_ode(p, F(40))
    assert ode.coeffs == (
        RatPoly([0, -1, 1]),
        RatPoly([F(-3, 2), F(255, 2), -25]),
        RatPoly([-15, -4985]),
    )


def test_polymer_exponent_structure():
    p = PolymerParams(b=F(100), W=F(1, 4))
    ode = polymer_ode(p, F(40))
    assert set(indicial_exponents(ode, F(0)).exponents) == {F(0), F(-1, 2)}
    assert set(indicial_exponents(ode, F(1)).exponents) == {F(0), -F(100)}


def test_series_heads_at_both_endpoints():
    # independent rational anchors for the local expansions
    p = PolymerParams(b=F(100), W=F(1, 4))
    ode = polymer_ode(p, F(40))
    at0 = frobenius_series(ode, F(0), F(0), 3)
    assert at0.coeffs[:3] == (F(1), F(-10), F(-1222))
    at1 = frobenius_series(ode, F(1), F(0), 3)
    assert at1.coeffs[:3] == (F(1), F(5000, 101), F(8371995, 6868))


def test_apparent_location_formula():
    b, kappa, nu = F(100), F(25), F(40)
    q = apparent_location(b, kappa, nu)
    assert q == (nu - kappa) / (nu - kappa - 2 * b * kappa)
    p = PolymerParams(b=b, W=F(1, 4))
    trail = polymer_ode(p, nu).coeffs[-1]
    assert trail(q) == 0


def test_deformed_equation_dual_construction():
    p = PolymerParams(b=F(7), W=F(1, 3))
    nu = F(9, 2)
    direct = one_step_deformed(p, nu)
    assert polymer_deformed(p, nu) == direct
    q = apparent_location(p.b, p.kappa, nu)
    verdict = is_apparent(direct, q)
    assert verdict.is_apparent and sorted(verdict.exponents) == [F(0), F(2)]
    assert classify_point(polymer_ode(p, nu), q).kind is PointKind.ORDINARY


def test_deformed_equation_needs_an_apparent_point():
    p = PolymerParams(b=F(7), W=F(1, 3))
    nu = p.kappa + 2 * p.b * p.kappa  # P_2 is the constant -(nu - kappa)
    assert polymer_ode(p, nu).coeffs[-1].degree == 0
    with pytest.raises(DegenerateApparentPointError):
        polymer_deformed(p, nu)


def test_eigenvalue_at_zero_is_a_precision_error():
    # at b = 1e-400 both bounded branches are constant to working
    # precision at nu = 0, where the raw Wronskian is exactly zero
    p = PolymerParams(b=F("1e-400"), W=F(1, 4))
    with pytest.raises(PrecisionExhaustedError) as info:
        solve_spectrum(p, F(0), F(1))
    assert info.value.details["nu"] == 0


def test_rounding_root_near_zero_is_a_precision_error():
    # on a window straddling 0 the same flat branches make the raw
    # Wronskian change sign by rounding; the root it refines to lies
    # below the refinement's absolute resolution of 1e-16
    p = PolymerParams(b=F("1e-400"), W=F(1, 4))
    with pytest.raises(PrecisionExhaustedError) as info:
        solve_spectrum(p, F(-1, 2), F(1))
    assert 0 < abs(info.value.details["nu"]) < 1e-16


def test_underflowing_t_rel_is_a_precision_error():
    p = PolymerParams(b=F("1e-400"), W=F(1, 4))
    with pytest.raises(PrecisionExhaustedError) as info:
        solve_spectrum(p, F(1, 2), F(10), grid_points=16)
    assert info.value.details["nu"] > 1
    assert info.value.message == "T_rel underflows a float"


def test_overflowing_t_rel_is_a_precision_error():
    p = PolymerParams(b=F(2), W=F(1, 4), tau=F("1e1000"))
    with pytest.raises(PrecisionExhaustedError) as info:
        solve_spectrum(p, F(7), F(15, 2), grid_points=2)
    assert info.value.message == "T_rel overflows a float"
    assert info.value.details == {"nu": pytest.approx(7.157674591943364, rel=1e-10), "bits": 256}


@pytest.mark.parametrize("entry", [
    lambda p, bits: solve_spectrum(p, F(1), F(2), precision_bits=bits),
    lambda p, bits: wronskian_mismatch(p, F(1), precision_bits=bits),
    lambda p, bits: eigenfunction_samples(p, F(1), [F(1, 4)], precision_bits=bits),
], ids=["solve_spectrum", "wronskian_mismatch", "eigenfunction_samples"])
def test_precision_past_the_cap_is_refused_before_any_work(monkeypatch, entry):
    # 10^11 bits would ask for a unit of 2^(10^11); the refusal comes
    # before any work, and without it the patched table build would stop
    # the call before anything is allocated
    def no_work(p):
        raise AssertionError("a solve started")

    monkeypatch.setattr(polymer, "_recurrences", no_work)
    p = PolymerParams(b=F(2), W=F(1, 4))
    for bits in (10**11, polymer._BITS_CAP + 1):
        with pytest.raises(ValueError, match="precision_bits must be at most 4096"):
            entry(p, bits)
    with pytest.raises(AssertionError, match="a solve started"):
        entry(p, polymer._BITS_CAP)


def test_vanishing_branch_at_the_matching_point_is_a_precision_error(monkeypatch):
    branch = polymer._Series.branch

    def zero_at_one(self, nu, cap, bits, grow, digits):
        br = branch(self, nu, cap, bits, grow, digits)
        return br._replace(w=0) if self.endpoint == 1 else br

    monkeypatch.setattr(polymer._Series, "branch", zero_at_one)
    p = PolymerParams(b=F(2), W=F(1, 4))
    with pytest.raises(PrecisionExhaustedError) as info:
        eigenfunction_samples(p, F(7), [F(1, 4)], precision_bits=96, series_order=100)
    assert info.value.details == {"nu": F(7), "bits": 96}


def test_small_parameter_spectrum(small_spectrum):
    p, res = small_spectrum
    assert res.eigenvalues == pytest.approx((7.157674592, 20.090909620), rel=1e-8)
    assert res.t_rel == pytest.approx(float(p.b) / res.eigenvalues[0], rel=1e-12)
    assert res.warnings == ()
    assert len(res.wronskian_samples) >= 2
    for nu, mism in res.wronskian_samples:
        assert math.isfinite(nu) and math.isfinite(mism)


def test_mismatch_vanishes_only_at_eigenvalues(small_spectrum):
    p, res = small_spectrum
    nu1 = res.eigenvalues[0]
    at = wronskian_mismatch(p, nu1, precision_bits=128, series_order=160)
    off = wronskian_mismatch(p, nu1 + 0.7, precision_bits=128, series_order=160)
    assert abs(at) < 1e-9
    assert abs(off) > 1e-3


def test_matched_eigenfunction_solves_equation(small_spectrum):
    # w'' is read off the equation, so the samples solve it when w' and
    # w'' are the derivatives of the sampled w and w': central
    # differences of step 1e-4 agree to about 1e-8 of their scale.  The
    # one at z = 0.5 straddles the matching point, where the branches
    # glue only at an eigenvalue: that needs nu_1 to about 1e-12, tighter
    # than the 1e-10 solve_spectrum states, so hold it to the pinned solve
    p, res = small_spectrum
    nu1 = res.eigenvalues[0]
    assert abs(nu1 - 7.157674591943363) < 1e-12
    zs = [0.11, 0.31, 0.5, 0.68, 0.9]
    samples = eigenfunction_samples(p, nu1, zs, precision_bits=128, series_order=160)
    assert [s[0] for s in samples] == zs
    h = 1e-4
    for z, w, dw, d2w in samples:
        (_, w_lo, dw_lo, _), (_, w_hi, dw_hi, _) = eigenfunction_samples(
            p, nu1, [z - h, z + h], precision_bits=128, series_order=160)
        scale = abs(w) + abs(dw) + abs(d2w)
        assert abs((w_hi - w_lo) / (2 * h) - dw) < 1e-7 * scale
        assert abs((dw_hi - dw_lo) / (2 * h) - d2w) < 1e-7 * scale
    # the two branches glue smoothly: Taylor step from the left branch
    # across the matching point reproduces the right branch
    mid = eigenfunction_samples(p, nu1, [0.499, 0.501], precision_bits=128, series_order=160)
    _, w_l, dw_l, d2w_l = mid[0]
    step = 0.002
    predicted = w_l + step * dw_l + 0.5 * step * step * d2w_l
    assert mid[1][1] == pytest.approx(predicted, rel=1e-7)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: PolymerParams(b=F(0), W=F(1, 4)), "positive"),
        (lambda: PolymerParams(b=F(2), W=F(-1, 4)), "positive"),
        (lambda: PolymerParams(b=F(2), W=F(1, 4), tau=F(0)), "positive"),
        (lambda: solve_spectrum(PolymerParams(2, F(1, 4)), F(5), F(5)), "nu_min < nu_max"),
        (lambda: solve_spectrum(PolymerParams(2, F(1, 4)), F(5), F(10), count=0), "count"),
        (lambda: solve_spectrum(PolymerParams(2, F(1, 4)), F(5), F(10), grid_points=1), "grid"),
        (lambda: eigenfunction_samples(PolymerParams(2, F(1, 4)), F(7), [F(0)]), "inside"),
        (lambda: eigenfunction_samples(PolymerParams(2, F(1, 4)), F(7), [F(1, 2), 1.0]), "inside"),
    ],
)
def test_out_of_domain_arguments_are_refused(call, match):
    # the CLI checks its flags before it calls these, so only a library
    # caller reaches the checks
    with pytest.raises(ValueError, match=match):
        call()


def test_short_spectrum_warns(small_spectrum):
    p, res = small_spectrum
    more = solve_spectrum(
        p, F(1, 10), F(30), count=3, precision_bits=128, series_order=120, grid_points=48
    )
    assert more.eigenvalues == res.eigenvalues
    assert more.warnings == ("requested 3 eigenvalues, found 2",)


def test_custom_relaxation_scale():
    p = PolymerParams(b=F(2), W=F(1, 4), tau=F(3))
    res = solve_spectrum(p, F(5), F(10), count=1, precision_bits=96, series_order=100, grid_points=24)
    assert res.t_rel == pytest.approx(6.0 / res.eigenvalues[0], rel=1e-12)


def test_auto_retry_escalates_series_order():
    # a solve sizes every series itself; series_order has no effect
    p = PolymerParams(b=F(2), W=F(1, 4))
    res = solve_spectrum(
        p, F(1, 10), F(30), count=1, precision_bits=64, series_order=24, grid_points=48
    )
    assert res.series_order > 24
    assert res.eigenvalues[0] == pytest.approx(7.157674592, rel=1e-6)


def test_empty_window_raises():
    p = PolymerParams(b=F(2), W=F(1, 4))
    with pytest.raises(NoEigenvalueInWindowError):
        solve_spectrum(p, F(25), F(27), count=1, precision_bits=128, series_order=120, grid_points=32)


def test_precision_guard_trips_near_far_matching_point():
    # the z = 1 branch cancels by 21 digits at the matching point,
    # which leaves fewer than 20 of the digits 64 bits carry
    p = PolymerParams(b=F(100), W=F(1, 4))
    with pytest.raises(PrecisionExhaustedError) as info:
        wronskian_mismatch(p, F(40), precision_bits=64, series_order=400)
    assert info.value.details == {"order": 113, "bits": 64, "endpoint": 1, "lost_digits": 21}


def test_truncated_series_is_never_returned():
    # 120 terms stop the z = 0 branch long before its tail
    p = PolymerParams(b=F(100), W=F(7, 20))
    converged = wronskian_mismatch(p, 1, precision_bits=384, series_order=3000)
    assert converged == pytest.approx(-0.002082941385333481, abs=1e-12)
    with pytest.raises(PrecisionExhaustedError) as info:
        wronskian_mismatch(p, 1, precision_bits=384, series_order=120)
    assert info.value.details == {"order": 120, "bits": 384, "endpoint": 0}


def test_exhausted_error_reports_what_was_tried():
    # the first evaluation of a solve from nu = 1, at hard limits
    p = PolymerParams(b=F(100), W=F(1, 4))
    with pytest.raises(PrecisionExhaustedError) as info:
        wronskian_mismatch(p, F(1), series_order=240, precision_bits=384)
    assert info.value.details == {"order": 240, "bits": 384, "endpoint": 0}
    # enough terms, but the z = 1 branch cancels by about 30 digits
    with pytest.raises(PrecisionExhaustedError) as info:
        wronskian_mismatch(p, F(1), series_order=400, precision_bits=64)
    details = info.value.details
    assert details["bits"] == 64 and details["endpoint"] == 1
    assert details["order"] < 400 and details["lost_digits"] > 20


def test_precision_grows_from_measured_cancellation():
    p = PolymerParams(b=F(100), W=F(7, 20))
    res = solve_spectrum(p, F(1), F(60), count=1, precision_bits=64)
    assert res.precision_bits > 64
    assert res.eigenvalues[0] == pytest.approx(25.7798836989532, rel=1e-9)


def test_lazy_scan_stops_at_the_last_bracket():
    p = PolymerParams(b=F(100), W=F(9, 20))
    res = solve_spectrum(p, F(1), F(60), count=1, grid_points=64)
    assert res.evaluations < 64 + 1
    assert len(res.wronskian_samples) < res.evaluations
    assert res.wronskian_samples[-2][0] < res.eigenvalues[0] < res.wronskian_samples[-1][0]
    # what was used, not what was asked for
    assert res.precision_bits == 256
    assert 0 < res.series_order < 400


# the bench solves and two windows reaching below 0: (b, W, nu_min,
# nu_max, count, keyword arguments)
SCAN_WINDOWS = (
    (F(100), F(1, 4), F(1), F(60), 1, {}),
    (F(100), F(7, 20), F(1), F(60), 1, {}),
    (F(100), F(9, 20), F(1), F(60), 1, {}),
    (F(2), F(1, 4), F(1, 10), F(30), 2, {"precision_bits": 128, "grid_points": 48}),
    (F(2), F(1, 4), F(-3), F(30), 3, {"grid_points": 128}),
    (F(100), F(1, 4), F(-300), F(0), 4, {"grid_points": 256}),
)
# a scan sample lies within 8 eps + O(eps^2) of the full mismatch,
# eps = 10^-_SIGN_DIGITS (_Shooting.scan_point); 1e-12 more covers the
# float nu a sample records in place of the 20-digit one
SCAN_BOUND = 8 * 10.0**-polymer._SIGN_DIGITS + 1e-12


@pytest.mark.parametrize("b, W, lo, hi, count, kwargs", SCAN_WINDOWS,
                         ids=["b100-W1/4", "b100-W7/20", "b100-W9/20", "b2", "b2-neg", "b100-neg"])
def test_scan_signs_are_the_full_signs(b, W, lo, hi, count, kwargs):
    p = PolymerParams(b=b, W=W)
    res = solve_spectrum(p, lo, hi, count, **kwargs)
    assert len(res.eigenvalues) == count
    full = [wronskian_mismatch(p, nu) for nu, _ in res.wronskian_samples]
    assert [m > 0 for _, m in res.wronskian_samples] == [m > 0 for m in full]
    for (nu, got), want in zip(res.wronskian_samples, full):
        assert abs(got - want) <= SCAN_BOUND, nu


def test_scan_point_under_the_bound_is_evaluated_in_full(small_spectrum, monkeypatch):
    # the cheap sums of one grid point are made to cancel exactly: the
    # z = 1 branch is replaced by the z = 0 one, so D = 0 there
    p, res = small_spectrum
    target = res.wronskian_samples[3][0]
    branch = polymer._Series.branch
    digits_at_target, left = [], {}

    def cancelling(self, nu, cap, bits, grow, digits):
        br = branch(self, nu, cap, bits, grow, digits)
        if float(nu) != target:
            return br
        digits_at_target.append(digits)
        if self.endpoint == 0:
            left[digits] = br
        elif digits == polymer._SIGN_DIGITS:
            return br._replace(w=left[digits].w, dw=left[digits].dw)
        return br

    monkeypatch.setattr(polymer._Series, "branch", cancelling)
    again = solve_spectrum(
        p, F(1, 10), F(30), count=2, precision_bits=128, series_order=120, grid_points=48
    )
    sign, full = polymer._SIGN_DIGITS, polymer._TAIL_DIGITS
    assert digits_at_target == [sign, sign, full, full]
    assert again.evaluations == res.evaluations + 1
    assert again.eigenvalues == res.eigenvalues
    samples = list(again.wronskian_samples)
    nu, mismatch = samples.pop(3)
    assert samples == [s for i, s in enumerate(res.wronskian_samples) if i != 3]
    assert nu == target and mismatch != 0
    monkeypatch.undo()
    assert abs(mismatch - wronskian_mismatch(p, target, precision_bits=128)) <= 1e-12


NEGATIVE_FIRST = ("first eigenvalue is negative, so t_rel is not the relaxation time: "
                  "nu_1 of T_rel is the smallest positive eigenvalue")


@pytest.mark.parametrize(
    "b, W, lo, hi, count, grid, n, eigenvalues",
    [(F(2), F(1, 4), F(-3), F(30), 3, 128, 64,
      (-0.5333212109420054, 7.157674591943364, 20.090909620154598)),
     (F(100), F(1, 4), F(-300), F(0), 4, 256, 64,
      (-178.1605009047345, -121.21464190962122, -74.41880135859913, -28.671810760827146)),
     (F(100), F(7, 20), F(-800), F(0), 8, 32, 128,
      (-680.0584615616783, -554.9117468385894, -441.0949390922462, -338.3611521231952,
       -246.7450640673425, -166.7764835739038, -99.40026672737571, -39.97066080384886)),
     (F(100), F(9, 20), F(-1700), F(0), 12, 64, 128,
      (-1575.3086281613794, -1369.6448615292713, -1179.260898247342, -1003.2803748938163,
       -840.957548590429, -691.6821014782475, -554.9943642530221, -430.6195574891328,
       -318.54257165357365, -219.18387787409748, -133.6591816236662, -60.82951115998661))],
    ids=["b=2", "b=100", "b=100,W=7/20", "b=100,W=9/20"],
)
def test_spectrum_continues_below_zero(b, W, lo, hi, count, grid, n, eigenvalues):
    # counted from the bottom of the spectrum the k-th eigenfunction has
    # k - 1 zeros on the grid k/n, so nu_1 of T_rel, the smallest positive
    # eigenvalue, is not the first: 1 eigenvalue lies below 0 at b = 2, and
    # 4, 8 and 12 at b = 100 and W = 1/4, 7/20, 9/20; the result says so
    p = PolymerParams(b=b, W=W)
    res = solve_spectrum(p, lo, hi, count, grid_points=grid)
    assert res.eigenvalues == pytest.approx(eigenvalues, rel=1e-10)
    assert res.warnings == (NEGATIVE_FIRST,)
    zs = [F(k, n) for k in range(1, n)]
    for zeros, nu in enumerate(res.eigenvalues):
        ws = [w for _z, w, _dw, _d2w in eigenfunction_samples(p, nu, zs)]
        assert sum(1 for u, v in zip(ws, ws[1:]) if u * v < 0) == zeros


@pytest.mark.parametrize("nu", [F(7), F(41, 4)])
def test_mismatch_matches_exact_series(nu):
    # exact Fraction series at both endpoints, summed far past convergence
    p = PolymerParams(b=F(2), W=F(1, 4))
    ode = polymer_ode(p, nu)

    def branch(point, x):
        coeffs = frobenius_series(ode, point, F(0), 120).coeffs
        assert abs(coeffs[-1] * x ** 120) < F(1, 10**30)
        w = sum(c * x**k for k, c in enumerate(coeffs))
        dw = sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs) if k)
        return w, dw

    w0, dw0 = branch(F(0), F(1, 2))
    w1, dw1 = branch(F(1), F(-1, 2))
    exact = (w0 * dw1 - dw0 * w1) / ((abs(w0) + abs(dw0)) * (abs(w1) + abs(dw1)))
    assert abs(wronskian_mismatch(p, nu) - exact) <= F(1, 10**15)


def _assert_branch_is_exact_series(p, nu, at_one, x, n_terms=None):
    """The fixed-point branch against the exact Frobenius series summed to
    the same number of terms, to 20 digits of |w| + |w'|."""
    br = polymer._Series(polymer._recurrences(p), int(at_one), x).branch(nu, 400, 256, False)
    if n_terms is not None:
        assert br.terms == n_terms
    coeffs = frobenius_series(polymer_ode(p, nu), F(int(at_one)), F(0), br.terms).coeffs
    w = sum(c * x**k for k, c in enumerate(coeffs))
    dw = sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs) if k)
    got = br.values()
    assert len(got) == 2
    for value, want in zip(got, (w, dw)):
        assert abs(value - want) <= F(1, 10**20) * (abs(w) + abs(dw))


@pytest.mark.parametrize(
    "nu, terms",
    [(F(27), (261, 116)),
     (F(Decimal("27.301053662173086123456789012345678901234567")), (177, 116))],
)
def test_fixed_point_branch_matches_exact_series(nu, terms):
    # b = 100 cancels by tens of digits at z = 1; the fixed-point sum of
    # each branch must agree with the exact Frobenius series; the tail
    # test stops where a floating sum at the same digits stopped
    p = PolymerParams(b=F(100), W=F(1, 4))
    _assert_branch_is_exact_series(p, nu, False, F(1, 2), terms[0])
    _assert_branch_is_exact_series(p, nu, True, F(-1, 2), terms[1])


@pytest.mark.parametrize("b, W", [(F(100), F(1, 4)), (F(7), F(1, 3)), (F(1, 2), F(3, 7))])
@pytest.mark.parametrize("nu", [F(9, 2), F(-13, 3)])
@pytest.mark.parametrize("at_one", [False, True])
def test_series_recurrence_is_the_frobenius_recurrence(b, W, nu, at_one):
    # the kernel's recurrence is the equation's at nu = 0 plus nu's slope,
    # read at M - 1 and M - 2 over the leading coefficient of C_{j0}; any
    # slip in those shows against the exact series at either end and sign of nu
    _assert_branch_is_exact_series(PolymerParams(b=b, W=W), nu, at_one,
                                   F(-1, 3) if at_one else F(1, 3))


def _exact_branch(ode, point, x, n_terms):
    """w, w', w'' of the exact exponent-0 series at offset x, n_terms terms."""
    coeffs = frobenius_series(ode, point, F(0), n_terms).coeffs
    assert abs(coeffs[-1] * x**n_terms) < F(1, 10**30)
    return tuple(
        sum(math.perm(k, j) * c * x ** (k - j) for k, c in enumerate(coeffs) if k >= j)
        for j in range(3)
    )


@pytest.mark.parametrize("b, nu, n_terms", [(F(2), F(7), 120), (F(100), F(27), 400)],
                         ids=["b=2", "b=100"])
def test_sampled_second_derivative_matches_exact_series(b, nu, n_terms):
    # w'' comes from the equation, not from a series sum; it must still be
    # the second derivative of the exact series on both sides of z = 1/2,
    # the right side scaled by w0(1/2) / w1(1/2) as the samples are.  The
    # samples are floats: 1e-12 of |w| + |w'| + |w''| at each point
    p = PolymerParams(b=b, W=F(1, 4))
    ode = polymer_ode(p, nu)
    ratio = (_exact_branch(ode, F(0), F(1, 2), n_terms)[0]
             / _exact_branch(ode, F(1), F(-1, 2), n_terms)[0])
    zs = [F(1, 5), F(2, 5), F(3, 5), F(4, 5)]
    samples = eigenfunction_samples(p, nu, zs)
    for z, (z_float, *got) in zip(zs, samples):
        if z < F(1, 2):
            want = _exact_branch(ode, F(0), z, n_terms)
        else:
            want = tuple(ratio * v for v in _exact_branch(ode, F(1), z - 1, n_terms))
        tol = 1e-12 * float(sum(abs(v) for v in want))
        assert z_float == float(z)
        assert abs(got[2] - float(want[2])) <= tol, (z, got, want)
        assert all(abs(g - float(v)) <= tol for g, v in zip(got, want))


# the bench solves of perfbench/workloads.py and five wider windows:
# samples and eigenvalues as the Illinois refinement left them, which
# the scan must reproduce byte for byte and the refinement to 1e-12,
# and the most evaluations each solve may take
PINNED_SOLVES = json.loads((Path(__file__).with_name("data") / "polymer_solves.json").read_text())


@pytest.mark.parametrize("solve", PINNED_SOLVES,
                         ids=[f"b{s['b']}-W{s['W']}-{s['nu_min']}..{s['nu_max']}" for s in PINNED_SOLVES])
def test_pinned_solves_keep_their_scan_and_eigenvalues(solve):
    p = PolymerParams(b=F(solve["b"]), W=F(solve["W"]))
    res = solve_spectrum(p, F(solve["nu_min"]), F(solve["nu_max"]), solve["count"],
                         **solve["options"])
    assert res.evaluations <= solve["evaluations"]
    assert res.wronskian_samples == tuple(map(tuple, solve["wronskian_samples"]))
    assert res.eigenvalues == pytest.approx(solve["eigenvalues"], rel=1e-12, abs=0)


def _refined(f, lo, hi, most):
    """polymer._refine on f from the bracket [lo, hi], in at most `most`
    evaluations.  Every point it evaluates must lie strictly inside the
    bracket the evaluations before it left.  Returns the root and the
    final bracket as (x, f(x)) pairs."""
    bracket = [(lo, f(lo)), (hi, f(hi))]
    points = []

    def evaluate(x):
        (a, fa), (b, _) = bracket
        assert a < x < b
        points.append(x)
        assert len(points) <= most
        fx = f(x)
        bracket[0 if (fx < 0) == (fa < 0) else 1] = (x, fx)
        return fx

    return polymer._refine(evaluate, *bracket[0], *bracket[1]), bracket


def _linear(r):
    return lambda x: r.denominator * x - r.numerator


def _convex(r):
    return lambda x: (r.denominator * x - r.numerator) * (x * x + 1)


def _flat_left(r, width):
    # e^(k (x - r)) - 1 with k = 300 / width: about -1 and flat left of
    # the root, up to e^300 right of it
    k = Decimal(300) / (r.denominator * width)
    return lambda x: (k * (r.denominator * x - r.numerator)).exp() - 1


@pytest.mark.parametrize("r", [F(273, 10), F(-1425, 8), F(3, 10**7), F(1, 3), F(-200, 7)])
@pytest.mark.parametrize("kind", ["linear", "convex", "flat"])
@pytest.mark.parametrize("widths, left", [(10, F(3, 10)), (1000, F(9, 10)), (10**6, F(1, 100)),
                                          (10**6, 1 - F(1, 10**7)), (10**6, F(1, 10**7))])
def test_refinement_closes_a_bracket_around_the_root(r, kind, widths, left):
    # a bracket `widths` tolerances wide with the root `left` of the way
    # across it; tol is the refinement's own, 1e-10 relative above
    # |nu| = 1e-6 and 1e-16 absolute below.  On a smooth f the refinement
    # takes no more evaluations than bisection; on the flat one its
    # bracket still halves at least once in every four
    halvings = math.ceil(math.log2(widths))
    most = 4 * (halvings + 1) if kind == "flat" else halvings
    with localcontext() as ctx:
        # the solver's 20 digits, for f as well
        ctx.prec = polymer._TAIL_DIGITS
        exact = Decimal(r.numerator) / r.denominator
        tol = polymer._RTOL * max(abs(exact), polymer._NU_FLOOR)
        lo = exact - Decimal(left.numerator) / left.denominator * widths * tol
        hi = lo + widths * tol
        f = {"linear": _linear(r), "convex": _convex(r), "flat": _flat_left(r, hi - lo)}[kind]
        root, ((a, fa), (b, fb)) = _refined(f, lo, hi, most)
        if f(root) != 0:
            # a sign change no wider than tol brackets the result
            assert (fa < 0) != (fb < 0)
            assert a <= root <= b and b - a <= tol
    assert abs(F(root) - r) <= tol
    if kind == "linear" and F(exact) == r:
        assert F(root) == r


def test_numbers_of_every_kind_are_accepted():
    # floats and strings are taken as written, Decimals exactly
    p = PolymerParams(b=F(2), W=F(1, 4))
    values = {
        wronskian_mismatch(p, nu, precision_bits=128, series_order=160)
        for nu in (7.1, "7.1", Decimal("7.1"), F(71, 10))
    }
    assert len(values) == 1
    zs = [F(1, 4), F(3, 5)]
    exact = eigenfunction_samples(p, F(71, 10), zs, precision_bits=128, series_order=160)
    as_decimal = eigenfunction_samples(
        p, Decimal("7.1"), [Decimal("0.25"), Decimal("0.6")],
        precision_bits=128, series_order=160,
    )
    assert as_decimal == exact
    # the exact entry points take a Decimal as well
    assert PolymerParams(b=Decimal("2"), W=Decimal("0.25")) == p
    assert polymer_ode(p, Decimal("7.1")) == polymer_ode(p, F(71, 10))
    small = {"precision_bits": 96, "grid_points": 24}
    assert solve_spectrum(p, Decimal("5"), 10, **small) == solve_spectrum(p, F(5), 10, **small)


def _branch_outcome(series, nu, cap):
    try:
        return series.branch(nu, cap, 256, False)
    except PrecisionExhaustedError as exc:
        return exc.message, exc.details


def test_cap_test_refuses_only_sums_that_exhaust_the_cap(monkeypatch):
    # every branch of the grid ends the same with the up-front cap test as
    # with the summation alone, and the test refuses some and passes others
    growing = polymer._Series._growing
    verdicts = []

    def recorded(*args):
        verdicts.append(growing(*args))
        return verdicts[-1]

    grid = itertools.product((40, 160), (F(3), F(30), F(300)), (F(1, 10), F(1, 2), F(3)),
                             (False, True))
    for cap, b, W, at_one in grid:
        tables = polymer._recurrences(PolymerParams(b=b, W=W))
        series = polymer._Series(tables, int(at_one), F(-1, 2) if at_one else F(1, 2))
        for nu in (F(1), b, 10 * b, -b):
            monkeypatch.setattr(polymer._Series, "_growing", staticmethod(recorded))
            checked = _branch_outcome(series, nu, cap)
            monkeypatch.setattr(polymer._Series, "_growing", staticmethod(lambda *args: False))
            assert checked == _branch_outcome(series, nu, cap), (cap, b, W, at_one, nu)
    assert 0 < sum(verdicts) < len(verdicts)

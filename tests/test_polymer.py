import math
from decimal import Decimal
from fractions import Fraction

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
from apparent import frobenius, polymer
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


def _series_table(p, nu, at_one, x):
    """c1, c2, c3 of _Series at this nu, read back from its integer table.

    The table clears P(M) = -sign x c2(M-1), Q(M) = -sign x^2 c3(M-2)
    and M (M + e1) = sign c1(M) to integers; its last entry is the
    cleared 1 of M^2, so dividing by it undoes the clearing.
    """
    ints = polymer._Series(p.b, p.kappa, at_one, x).ints
    p0, p0_nu, p1, p2, q0, q0_nu, q1, e1, _one = (F(i, ints[-1]) for i in ints)
    sign = -p2 / x
    c1 = sign * RatPoly([0, e1, 1])
    c2 = RatPoly([p0 + p0_nu * nu, p1, p2]).shifted(1) / p2
    c3 = RatPoly([q0 + q0_nu * nu, q1]).shifted(2) / q0_nu
    return c1, c2, c3


@pytest.mark.parametrize("b, W", [(F(100), F(1, 4)), (F(7), F(1, 3)), (F(1, 2), F(3, 7))])
@pytest.mark.parametrize("nu", [F(9, 2), F(-13, 3)])
@pytest.mark.parametrize("at_one", [False, True])
def test_series_recurrence_is_the_frobenius_recurrence(b, W, nu, at_one):
    # the solver's hand-derived three-term recurrence at z = e is the
    # module recurrence of frobenius: C_j0, C_j0+1, C_j0+2 and no more
    p = PolymerParams(b=b, W=W)
    x = F(-1, 3) if at_one else F(1, 3)
    local = frobenius._LocalData(polymer_ode(p, nu), F(int(at_one)))
    assert local.cpolys == _series_table(p, nu, at_one, x)


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
    p, res = small_spectrum
    nu1 = res.eigenvalues[0]
    b = float(p.b)
    kappa = float(p.kappa)
    zs = [0.11, 0.31, 0.5, 0.68, 0.9]
    samples = eigenfunction_samples(p, nu1, zs, precision_bits=128, series_order=160)
    assert len(samples) == len(zs)
    for z, w, dw, d2w in samples:
        p0 = z * (z - 1.0)
        p1 = -kappa * z * z + (kappa + b + 2.5) * z - 1.5
        p2 = (nu1 - kappa) * (z - 1.0) - 2.0 * b * kappa * z
        resid = p0 * d2w + p1 * dw + p2 * w
        scale = max(abs(p0 * d2w), abs(p1 * dw), abs(p2 * w), 1e-30)
        assert abs(resid) / scale < 1e-8
    # the two branches glue smoothly: Taylor step from the left branch
    # across the matching point reproduces the right branch
    mid = eigenfunction_samples(p, nu1, [0.499, 0.501], precision_bits=128, series_order=160)
    _, w_l, dw_l, d2w_l = mid[0]
    step = 0.002
    predicted = w_l + step * dw_l + 0.5 * step * step * d2w_l
    assert mid[1][1] == pytest.approx(predicted, rel=1e-7)


def test_custom_relaxation_scale():
    p = PolymerParams(b=F(2), W=F(1, 4), tau=F(3))
    res = solve_spectrum(p, F(5), F(10), count=1, precision_bits=96, series_order=100, grid_points=24)
    assert res.t_rel == pytest.approx(6.0 / res.eigenvalues[0], rel=1e-12)


def test_auto_retry_escalates_series_order():
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
    p = PolymerParams(b=F(100), W=F(1, 4))
    with pytest.raises(PrecisionExhaustedError):
        wronskian_mismatch(
            p, F(40), precision_bits=64, series_order=60, matching_point=F(19, 20)
        )


@pytest.mark.parametrize("z_match", [F(0), F(1), F(3, 2), F(-1, 2)])
def test_matching_point_outside_the_interval_is_rejected(z_match):
    p = PolymerParams(b=F(2), W=F(1, 4))
    with pytest.raises(ValueError, match="matching_point"):
        solve_spectrum(p, F(5), F(10), matching_point=z_match)
    with pytest.raises(ValueError, match="matching_point"):
        wronskian_mismatch(p, F(7), matching_point=z_match)
    with pytest.raises(ValueError, match="matching_point"):
        eigenfunction_samples(p, F(7), [F(1, 4)], matching_point=z_match)


def test_truncated_series_is_never_returned():
    # 120 terms stop the z = 1 branch (offset -4/5) long before its tail
    p = PolymerParams(b=F(100), W=F(7, 20))
    kwargs = dict(precision_bits=384, matching_point=F(1, 5))
    converged = wronskian_mismatch(p, 1, series_order=3000, **kwargs)
    assert converged == pytest.approx(-0.007434053587777523, abs=1e-12)
    with pytest.raises(PrecisionExhaustedError) as info:
        wronskian_mismatch(p, 1, series_order=120, **kwargs)
    assert info.value.details == {"order": 120, "bits": 384, "endpoint": 1}


def test_exhausted_error_reports_what_was_tried():
    p = PolymerParams(b=F(100), W=F(1, 4))
    with pytest.raises(PrecisionExhaustedError) as info:
        solve_spectrum(p, F(1), F(60), series_order=240, precision_bits=384, auto_retry=False)
    assert info.value.details == {"order": 240, "bits": 384, "endpoint": 0}
    # enough terms, but the z = 1 branch cancels by about 30 digits
    with pytest.raises(PrecisionExhaustedError) as info:
        solve_spectrum(p, F(1), F(60), series_order=400, precision_bits=64, auto_retry=False)
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


@pytest.mark.parametrize(
    "nu, terms",
    [(F(27), (261, 116)),
     (F(Decimal("27.301053662173086123456789012345678901234567")), (177, 116))],
)
def test_fixed_point_branch_matches_exact_series(nu, terms):
    # b = 100 cancels by tens of digits at z = 1; the fixed-point sum of
    # each branch must agree with the exact Frobenius series, summed to
    # the same number of terms, to 20 digits of |w| + |w'|; the tail
    # test stops where a floating sum at the same digits stopped
    p = PolymerParams(b=F(100), W=F(1, 4))
    ode = polymer_ode(p, nu)
    for at_one, x, n_terms in ((False, F(1, 2), terms[0]), (True, F(-1, 2), terms[1])):
        br = polymer._Series(p.b, p.kappa, at_one, x).branch(nu, 400, 256, False)
        assert br.terms == n_terms
        coeffs = frobenius_series(ode, F(int(at_one)), F(0), br.terms).coeffs
        w = sum(c * x**k for k, c in enumerate(coeffs))
        dw = sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs) if k)
        d2w = sum(k * (k - 1) * c * x ** (k - 2) for k, c in enumerate(coeffs) if k > 1)
        for got, want in zip(br.values(), (w, dw, d2w)):
            assert abs(got - want) <= F(1, 10**20) * (abs(w) + abs(dw))


def test_refinement_on_the_raw_wronskian():
    # the raw Wronskian is nearly linear in nu where the normalized one
    # saturates, so Illinois needs few steps; eigenvalues as before
    p = PolymerParams(b=F(100), W=F(1, 4))
    res = solve_spectrum(p, F(1), F(60))
    assert res.evaluations <= 36
    assert res.eigenvalues[0] == pytest.approx(27.301053662173086, rel=1e-10)
    for w, nu1 in ((F(7, 20), 25.779883698229884), (F(9, 20), 12.373848927966806)):
        res = solve_spectrum(PolymerParams(b=F(100), W=w), F(1), F(60))
        assert res.eigenvalues[0] == pytest.approx(nu1, rel=1e-10)
    res = solve_spectrum(
        PolymerParams(b=F(2), W=F(1, 4)), F(1, 10), F(30), count=2,
        precision_bits=128, series_order=120, grid_points=48,
    )
    assert res.eigenvalues == pytest.approx((7.157674591943363, 20.090909620154598), rel=1e-10)


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

import random
from fractions import Fraction

import pytest

from apparent import _linalg, transform
from apparent import (
    INFINITY,
    AlreadyIntegratedError,
    IrregularPointError,
    LinearODE,
    NothingToRemoveError,
    NotRemovableError,
    PointKind,
    RatPoly,
    classify_point,
    deform,
    deform_iter,
    general_heun,
    make_ode,
    multi_heun,
    singular_points,
    third_order_example,
    undeform,
)

from _gen import (
    LOG_GAP_PARAMS,
    README_HEUN_PARAMS,
    TWO_STAGE_PARAMS,
    heun_params,
    multi_params,
    third_params,
)

F = Fraction


def test_constant_coefficient_equation_is_a_fixed_point():
    # w'' + w = 0 differentiates to itself
    ode = make_ode([[1], [0], [1]])
    stages = deform_iter(ode, 3)
    for st in stages:
        assert st.ode == ode
        assert st.new_apparent == ()


def test_deform_marks_simple_root_with_gap_two():
    rng = random.Random(5)
    ode = general_heun(heun_params(rng))
    trail = ode.coeffs[-1]
    q = -trail.coeffs[0] / trail.leading
    res = deform(ode)
    assert len(res.new_apparent) == 1
    loc, gap = res.new_apparent[0]
    assert loc == q and gap == 2
    assert res.clearing_factor.leading == 1
    assert res.clearing_factor(loc) == 0


def test_deform_third_order_reports_ladder_gap():
    # a simple root at order 3 sits on the ladder {0, 1, 2 + 1}
    rng = random.Random(6)
    res = deform(third_order_example(third_params(rng)))
    assert len(res.new_apparent) == 1
    loc, gap = res.new_apparent[0]
    assert gap == 3
    assert sorted(classify_point(res.ode, loc).exponents) == [0, 1, 3]


def test_deform_rejects_zero_trailing():
    ode = make_ode([[1], [1], [0]])
    with pytest.raises(AlreadyIntegratedError):
        deform(ode)


def test_deform_keeps_base_singularities():
    rng = random.Random(8)
    ode = general_heun(heun_params(rng))
    before = {sp.location for sp in singular_points(ode)}
    res = deform(ode)
    after = {sp.location for sp in singular_points(res.ode)}
    assert after == before | {res.new_apparent[0][0]}


def test_two_stage_chain_and_inverse():
    ode = general_heun(TWO_STAGE_PARAMS)
    s1, s2 = deform_iter(ode, 2)
    assert {loc for loc, _ in s2.new_apparent} == {F(-4, 3), F(2, 3)}
    assert all(gap == 2 for _, gap in s2.new_apparent)

    # the first-stage gap-2 point dies under the second differentiation
    locs2 = {sp.location for sp in singular_points(s2.ode)}
    assert F(-1, 3) not in locs2

    back1 = undeform(s2.ode)
    assert back1.ode == s1.ode
    assert back1.removed_points == (F(-4, 3), F(2, 3))
    back2 = undeform(back1.ode)
    assert back2.ode == ode


def test_undeform_without_apparent_points():
    rng = random.Random(9)
    with pytest.raises(NothingToRemoveError):
        undeform(general_heun(heun_params(rng)))
    with pytest.raises(NothingToRemoveError):
        undeform(general_heun(heun_params(rng)), targets=[])


def test_undeform_explicit_target_matches_inferred():
    rng = random.Random(10)
    ode = general_heun(heun_params(rng))
    deformed = deform(ode).ode
    q = deform(ode).new_apparent[0][0]
    a = undeform(deformed)
    b = undeform(deformed, targets=[q])
    c = undeform(deformed, targets=[q], multiplicities=[1])
    assert a.ode == b.ode == c.ode == ode


def test_undeform_reads_an_iterator_of_targets_once():
    rng = random.Random(10)
    ode = general_heun(heun_params(rng))
    res = deform(ode)
    q = res.new_apparent[0][0]
    assert undeform(res.ode, iter([q])).ode == ode
    assert undeform(res.ode, (t for t in [q]), multiplicities=iter([1])).ode == ode
    with pytest.raises(NothingToRemoveError):
        undeform(res.ode, iter([]))


def test_undeform_rejects_a_string_of_targets():
    ode = general_heun(README_HEUN_PARAMS)
    deformed = deform(ode).ode
    with pytest.raises(TypeError, match="targets"):
        undeform(deformed, "15")
    with pytest.raises(TypeError, match="targets"):
        undeform(deformed, "5")
    assert undeform(deformed, ["5"]).ode == ode


def test_undeform_rejects_a_string_of_multiplicities():
    ode = general_heun(README_HEUN_PARAMS)
    deformed = deform(ode).ode
    with pytest.raises(TypeError, match="multiplicities"):
        undeform(deformed, multiplicities="12")
    with pytest.raises(TypeError, match="multiplicities"):
        undeform(deformed, [F(5)], multiplicities="1")
    assert undeform(deformed, multiplicities=[1]).ode == ode


def test_undeform_integer_gap_without_apparency_fails():
    ode = general_heun(LOG_GAP_PARAMS)
    with pytest.raises(NotRemovableError) as err:
        undeform(ode, targets=[F(0)])
    assert "specifying some parameters" in str(err.value)


def test_undeform_third_order_target_reads_multiplicity_from_ladder():
    # m = gap - (n - 1) = 3 - 2 at an explicit order-3 target
    rng = random.Random(11)
    ode = third_order_example(third_params(rng))
    deformed = deform(ode).ode
    q = deform(ode).new_apparent[0][0]
    res = undeform(deformed, targets=[q])
    assert res == undeform(deformed, targets=[q], multiplicities=[1])
    assert res.ode == ode
    # an overstated m is absorbed by the content multiplier; without
    # slack only the right one finds the antecedent
    assert undeform(deformed, targets=[q], max_slack=0).ode == ode
    with pytest.raises(NotRemovableError):
        undeform(deformed, targets=[q], multiplicities=[2], max_slack=0)


def test_undeform_infers_third_order_ladder():
    rng = random.Random(12)
    ode = third_order_example(third_params(rng))
    res = undeform(deform(ode).ode)
    assert res.ode == ode


def test_undeform_multiplicity_validation():
    rng = random.Random(13)
    deformed = deform(general_heun(heun_params(rng))).ode
    q = [sp.location for sp in singular_points(deformed) if sp.kind is PointKind.APPARENT][0]
    with pytest.raises(ValueError):
        undeform(deformed, targets=[q], multiplicities=[1, 2])
    with pytest.raises(ValueError):
        undeform(deformed, targets=[q], multiplicities=[0])
    with pytest.raises(ValueError, match="integers"):
        undeform(deformed, targets=[q], multiplicities=[F(3, 2)])
    with pytest.raises(ValueError, match="distinct"):
        undeform(deformed, targets=[q, q])
    with pytest.raises(ValueError, match="distinct"):
        undeform(deformed, targets=[q, str(q)], multiplicities=[1, 1])


def test_undeform_double_root_target():
    rng = random.Random(15)
    ode = multi_heun(multi_params(rng, 4, repeated=2))
    res = deform(ode)
    assert len(res.new_apparent) == 1
    loc, gap = res.new_apparent[0]
    assert gap == 3
    back = undeform(res.ode)
    assert back.ode == ode
    assert back.removed_points == (loc,)


def test_single_stage_bookkeeping_across_families():
    rng = random.Random(16)
    for builder, gen in ((general_heun, heun_params), (third_order_example, third_params)):
        ode = builder(gen(rng))
        res = deform(ode)
        # clearing factor is the radical of the trailing coefficient
        trail = ode.coeffs[-1]
        assert res.clearing_factor == trail.monic()
        assert res.ode.order == ode.order


def test_eight_stage_chain_completes():
    # coefficients grow about 10 bits a stage; a root search by divisor
    # enumeration spent 10 s on stage 5 of this chain and did not finish
    # stage 6 within a minute
    base = general_heun(heun_params(random.Random(11)))
    chain = deform_iter(base, 8)
    assert len(chain) == 8
    assert undeform(chain[0].ode).ode == base
    assert [len(res.new_apparent) for res in chain] == [1, 0, 0, 0, 0, 0, 0, 0]


def test_undeform_rejects_negative_slack():
    deformed = deform(general_heun(heun_params(random.Random(13)))).ode
    with pytest.raises(ValueError, match="max_slack"):
        undeform(deformed, max_slack=-1)
    assert undeform(deformed, max_slack=0).removed_points


def test_undeform_skips_candidates_with_zero_trailing_coefficient():
    # z^2 w'' + z w' - 4w = 0 has exponents {-2, 2} at 0; a nullspace
    # vector with a = 0 gives a candidate whose trailing coefficient is
    # zero, and deforming it raised AlreadyIntegrated out of the search
    ode = make_ode([[0, 0, 1], [0, 1], [-4]])
    for slack in range(4):
        with pytest.raises(NotRemovableError):
            undeform(ode, [0], max_slack=slack)


def test_undeform_target_with_irrational_exponents_is_not_removable():
    # z^2 w'' + z w' - 2w = 0 has exponents +-sqrt(2) at 0: no rational gap
    ode = make_ode([[0, 0, 1], [0, 1], [-2]])
    with pytest.raises(NotRemovableError, match="not rational") as err:
        undeform(ode, [0])
    assert err.value.details == {"residual": "s^2 - 2"}


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: deform_iter(make_ode([[0, 1], [1], [1]]), 0), ValueError, "at least one stage"),
        (lambda: undeform(make_ode([[0, 1], [1]])), ValueError, "order >= 2"),
        # P_0 = z^3, P_2 = 1: z = 0 is an irregular singular point
        (lambda: undeform(make_ode([[0, 0, 0, 1], [0], [1]]), [0]), IrregularPointError,
         "irregular"),
        # z (z - 1) w'' + w = 0: exponents {0, 1} at 0, a gap below n = 2
        (lambda: undeform(make_ode([[0, -1, 1], [0], [1]]), [0]), NotRemovableError,
         "not an integer >= 2"),
    ],
)
def test_transforms_refuse_what_they_cannot_do(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _readme_heun_deformed():
    return deform(general_heun(README_HEUN_PARAMS)).ode


def _two_stage(stage):
    return deform_iter(general_heun(TWO_STAGE_PARAMS), 2)[stage].ode


def _count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name in the returned one-entry list."""
    calls = [0]
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "build, targets, mults, levels",
    [
        pytest.param(_readme_heun_deformed, None, None, 1, id="heun-one-stage"),
        pytest.param(lambda: _two_stage(0), None, None, 1, id="two-stage-first"),
        # the second stage inverts only with a content multiplier of degree 1
        pytest.param(lambda: _two_stage(1), None, None, 2, id="two-stage-second"),
        # w'' + w = 0 with a target at 0 needs c = z^2, and the candidate
        # z (w'' + w) loses the content z
        pytest.param(lambda: make_ode([[1], [0], [1]]), [0], [1], 3, id="w''+w"),
        # from slack 1 on, one nullspace vector, with a = 0: no antecedent
        pytest.param(lambda: make_ode([[0, 0, 1], [0, 1], [-4]]), [0], None, 4, id="a=0"),
        pytest.param(lambda: general_heun(LOG_GAP_PARAMS), [0], None, 4, id="log-gap"),
    ],
)
def test_undeform_deforms_at_most_once_per_slack_level(monkeypatch, build, targets, mults, levels):
    # no candidate is deformed, not even one that lost content: deform's
    # output ignores a polynomial factor of its input
    ode = build()
    solves = _count_calls(monkeypatch, _linalg, "nullspace_basis")
    deforms = _count_calls(monkeypatch, transform, "_cleared")
    try:
        res = undeform(ode, targets, multiplicities=mults, max_slack=3)
    except NotRemovableError:
        res = None
    assert solves == [levels]  # one system per slack level tried
    assert deforms == [0]
    if res is not None:
        assert deform(res.ode).ode == ode


def test_undeform_accepts_a_candidate_that_lost_content():
    # the assembled antecedent is z (w'' + w), with trailing coefficient
    # a M = a z; canonicalizing it divides out z, and its deform is still
    # the input, as deform ignores a polynomial factor
    ode = make_ode([[1], [0], [1]])
    res = undeform(ode, [0], multiplicities=[1], max_slack=2)
    assert res.ode == ode and res.ode.coeffs[-1].degree == 0
    assert deform(res.ode).ode == ode


def test_undeform_of_a_scaled_input_is_undeform_of_the_input(monkeypatch):
    # LinearODE canonicalizes: the coefficients times a constant or a
    # polynomial build the input itself, which inverts at the same level
    d = deform(general_heun(heun_params(random.Random(1)))).ode
    calls = _count_calls(monkeypatch, _linalg, "nullspace_basis")
    expected = undeform(d, max_slack=3)
    assert deform(expected.ode).ode == d
    levels = calls[0]
    for factor in (RatPoly([2]), RatPoly([-5, 1])):
        scaled = LinearODE(tuple(factor * p for p in d.coeffs))
        assert scaled == d
        calls[0] = 0
        assert undeform(scaled, max_slack=3) == expected
        assert calls[0] == levels


def test_undeform_makes_only_the_antecedent(monkeypatch):
    # the input is canonical by construction, so undeform does not take
    # the gcd of its coefficients again: make_ode runs once, on the result
    d = deform(general_heun(heun_params(random.Random(1)))).ode
    calls = _count_calls(monkeypatch, transform, "make_ode")
    undeform(d)
    assert calls == [1]

"""``undeform``'s integer slack loop against the ``RatPoly`` loop it replaced.

``_ratpoly_undeform`` keeps the former loop: back-substitution by
``divmod`` over Q, the rows rebuilt at every slack level, and each
candidate deformed to check it.  The package pseudo-divides integer
lists, appends each level's column to the rows and deforms no
candidate.  Both must agree on every case: the antecedent and the
removed points, or the class and details of the error.  Hypothesis
draws the family, the seed handed to ``_gen``, the deform stage, how
the targets are given, the slack and whether the input is built from
scaled coefficients; the draws are derandomized.
"""

import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from apparent import (
    ApparentError,
    LinearODE,
    RatPoly,
    confluent_heun,
    deform_iter,
    general_heun,
    make_ode,
    multi_heun,
    third_order_example,
    undeform,
)

from _gen import (
    LOG_GAP_PARAMS,
    TWO_STAGE_PARAMS,
    confluent_params,
    heun_params,
    multi_params,
    third_params,
)
from _ratpoly_undeform import ratpoly_undeform

FAMILIES = {
    "general": lambda rng: general_heun(heun_params(rng)),
    "multi": lambda rng: multi_heun(multi_params(rng, 5, repeated=2)),
    "third": lambda rng: third_order_example(third_params(rng)),
    "confluent": lambda rng: confluent_heun(confluent_params(rng)),
}


@lru_cache(maxsize=None)
def chain(family, seed):
    """The base equation, then deform stages 1 to 3."""
    base = FAMILIES[family](random.Random(f"undeform integer {family} {seed}"))
    return [(base, ())] + [(res.ode, res.new_apparent) for res in deform_iter(base, 3)]


def outcome(solve, ode, targets, multiplicities, max_slack):
    try:
        res = solve(ode, targets, multiplicities=multiplicities, max_slack=max_slack)
    except (ApparentError, ValueError) as exc:
        return type(exc), getattr(exc, "details", None)
    return res.ode, res.removed_points


def assert_same(ode, targets=None, multiplicities=None, max_slack=1):
    args = (ode, targets, multiplicities, max_slack)
    assert outcome(undeform, *args) == outcome(ratpoly_undeform, *args), args


def scaled(ode, factor):
    """The equation built from its coefficients times factor, which
    LinearODE canonicalizes back to ode."""
    out = LinearODE(tuple(factor * p for p in ode.coeffs))
    assert out == ode
    return out


# weighted towards stage 1 and the ladder's multiplicities, where an
# antecedent exists; the rest mostly raise
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(0, 5),
    stage=st.sampled_from([1, 1, 1, 0, 2, 3]),
    mode=st.sampled_from(["inferred", "explicit", "explicit+mults", "inferred+mults"]),
    ladder=st.sampled_from([True, True, False]),
    mults=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    slack=st.integers(0, 3),
    variant=st.sampled_from(["plain", "plain", "plain", "times 2", "times z - 5"]),
)
def test_matches_ratpoly_loop(family, seed, stage, mode, ladder, mults, slack, variant):
    stages = chain(family, seed)
    ode, created = stages[stage]
    # a later stage seldom creates points; aim at the first stage's then
    created = created or stages[1][1]
    locs = [q for q, _gap in created]
    # the ladder's multiplicities, or drawn ones (often not removable)
    mults = [gap - (ode.order - 1) for _q, gap in created] if ladder else mults[: len(locs)]
    mults += [1] * (len(locs) - len(mults))
    if variant == "times 2":
        ode = scaled(ode, RatPoly([2]))
    elif variant == "times z - 5":
        ode = scaled(ode, RatPoly([-5, 1]))
    targets = locs if mode.startswith("explicit") else None
    multiplicities = mults if mode.endswith("+mults") else None
    assert_same(ode, targets, multiplicities, slack)


def test_matches_ratpoly_loop_on_hand_picked_cases():
    log_gap = general_heun(LOG_GAP_PARAMS)
    two_stage = deform_iter(general_heun(TWO_STAGE_PARAMS), 2)[-1].ode
    for slack in range(4):
        # NotRemovable at every level
        assert_same(log_gap, [0], None, slack)
        # the second stage inverts only with a content multiplier of degree 1
        assert_same(two_stage, None, None, slack)
        # w'' + w = 0 with a target at 0 needs c = z^2, and its candidate
        # loses the content z
        assert_same(make_ode([[1], [0], [1]]), [0], [1], slack)
        # a = 0 on every nullspace vector from slack 1 on
        assert_same(make_ode([[0, 0, 1], [0, 1], [-4]]), [0], None, slack)
        # no apparent point to remove
        assert_same(general_heun(TWO_STAGE_PARAMS), None, None, slack)

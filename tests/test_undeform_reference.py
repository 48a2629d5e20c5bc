"""``undeform`` against the dense-ansatz reference in ``_dense_undeform``.

The package inverts ``deform`` by back-substitution through its
triangular identities and solves only for the scale on M and the content
multiplier; the reference solves for every coefficient and returns every
antecedent it finds.  Both must agree on every case: the one antecedent
(so the reference must find exactly one), the removed points, or the
class of the error raised.
"""

import random
from fractions import Fraction

import pytest

from apparent import (
    ApparentError,
    NotRemovableError,
    confluent_heun,
    deform_iter,
    general_heun,
    make_ode,
    multi_heun,
    third_order_example,
    undeform,
)

from _dense_undeform import dense_undeform
from _gen import (
    LOG_GAP_PARAMS,
    TWO_STAGE_PARAMS,
    confluent_params,
    heun_params,
    multi_params,
    third_params,
)

F = Fraction

FAMILIES = {
    "general": lambda rng: general_heun(heun_params(rng)),
    "multi": lambda rng: multi_heun(multi_params(rng, 5, repeated=2)),
    "third": lambda rng: third_order_example(third_params(rng)),
    "confluent": lambda rng: confluent_heun(confluent_params(rng)),
}


def package_undeform(ode, targets=None, *, multiplicities=None, max_slack=1):
    """undeform in the reference's shape: its one antecedent, then the removed points."""
    res = undeform(ode, targets, multiplicities=multiplicities, max_slack=max_slack)
    return (res.ode,), res.removed_points


def outcome(solve, ode, targets=None, multiplicities=None, max_slack=1):
    try:
        return solve(ode, targets, multiplicities=multiplicities, max_slack=max_slack)
    except (ApparentError, ValueError) as exc:
        return type(exc)


def assert_same(ode, targets=None, multiplicities=None):
    for slack in (0, 1, 2):
        args = (ode, targets, multiplicities, slack)
        assert outcome(package_undeform, *args) == outcome(dense_undeform, *args), args


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matches_dense_reference_over_three_stages(family):
    base = FAMILIES[family](random.Random(f"undeform reference {family}"))
    chain = deform_iter(base, 3)
    first = chain[0].new_apparent
    for stage in chain:
        # a later stage seldom creates points; aim at the first stage's then
        created = stage.new_apparent or first
        locs = [q for q, _gap in created]
        assert_same(stage.ode)
        assert_same(stage.ode, locs)
        assert_same(stage.ode, locs, [1] * len(locs))
        assert_same(stage.ode, None, [1] * len(locs))


def test_matches_dense_reference_on_hand_picked_cases():
    log_gap = general_heun(LOG_GAP_PARAMS)
    assert outcome(undeform, log_gap, [F(0)]) is NotRemovableError
    assert_same(log_gap, [F(0)])
    # the second stage inverts only with a content multiplier of degree 1
    assert_same(deform_iter(general_heun(TWO_STAGE_PARAMS), 2)[-1].ode)
    # w'' + w = 0 with a target at 0 needs c = z^2
    assert_same(make_ode([[1], [0], [1]]), [0], [1])

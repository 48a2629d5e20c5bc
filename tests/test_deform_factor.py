"""deform against the canonical form of its raw coefficients.

The oracle is the textbook construction: O_0 = R P_0 and
O_j = R (P_j + P_{j-1}') - S P_{j-1} in RatPoly arithmetic, then
make_ode, which finds the common factor by gcd alone.  deform builds the
O_j on integer lists and, on an equation an earlier deform made, first
divides them by that stage's clearing factor, kept in the equation's
memo.  Every stage of every chain here must equal the oracle, whichever
path it took, and so must a deform whose memo holds a wrong factor.
"""

import random

import pytest

from apparent import (
    DeformResult,
    RatPoly,
    confluent_heun,
    deform,
    deform_iter,
    general_heun,
    make_ode,
    multi_heun,
    third_order_example,
)
from apparent import transform
from apparent.odemodel import _CLEARING
from apparent.polyrat import exact_div, radical, rational_roots

from _gen import (
    README_HEUN_PARAMS,
    confluent_params,
    heun_params,
    multi_params,
    third_params,
)


def oracle(ode) -> DeformResult:
    coeffs, n = ode.coeffs, ode.order
    trailing = coeffs[-1]
    clearing = radical(trailing)
    s_poly = exact_div(trailing.derivative() * clearing, trailing)
    raw = [clearing * coeffs[0]] + [
        clearing * (coeffs[j] + coeffs[j - 1].derivative()) - s_poly * coeffs[j - 1]
        for j in range(1, n + 1)
    ]
    created = tuple(
        (q, n - 1 + m) for q, m in rational_roots(trailing)[0] if coeffs[0](q) != 0
    )
    return DeformResult(ode=make_ode(raw), new_apparent=created, clearing_factor=clearing)


# (name, builder from an rng, stages, divides): divides is True when the
# stored factor must divide at every stage that has one, False when some
# stage must fall back, None when either may happen
CHAINS = [
    ("general", lambda rng: general_heun(heun_params(rng)), 6, True),
    ("general-q0", lambda rng: general_heun(heun_params(rng, q=0)), 6, True),
    ("general-q1", lambda rng: general_heun(heun_params(rng, q=1)), 6, True),
    ("multi", lambda rng: multi_heun(multi_params(rng, 5)), 4, True),
    ("multi-repeated1", lambda rng: multi_heun(multi_params(rng, 5, repeated=1)), 4, True),
    # a double accessory root gives a gap-3 point, which the next stage
    # keeps, so its factor is no common content there
    ("multi-double", lambda rng: multi_heun(multi_params(rng, 4, repeated=2)), 4, False),
    ("third", lambda rng: third_order_example(third_params(rng)), 4, True),
    # a point can also lie on a root of the next trailing coefficient
    ("confluent", lambda rng: confluent_heun(confluent_params(rng)), 4, None),
]
IDS = [c[0] for c in CHAINS]
SEEDS = range(3)


def chain_inputs(build, seed, stages):
    """The inputs of stages 1..stages, each the output of the one before."""
    ode = build(random.Random(seed))
    return [ode] + [res.ode for res in deform_iter(ode, stages - 1)]


@pytest.fixture()
def divisions(monkeypatch):
    """One entry per deform with a stored factor: True when it divided
    every new coefficient."""
    seen = []
    real = transform._quotients

    def recorded(polys, factor):
        out = real(polys, factor)
        if factor is not None:
            seen.append(out is not None)
        return out

    monkeypatch.setattr(transform, "_quotients", recorded)
    return seen


@pytest.mark.parametrize("name, build, stages, divides", CHAINS, ids=IDS)
def test_every_stage_equals_the_canonical_raw_result(name, build, stages, divides, divisions):
    for seed in SEEDS:
        for k, ode in enumerate(chain_inputs(build, seed, stages)):
            assert (_CLEARING in ode._memo) == (k > 0)
            assert deform(ode) == oracle(ode), (name, seed, k + 1)
    assert divisions
    if divides is not None:
        assert all(divisions) is divides


def wrong_factors(ode, other):
    """Stored factors that are not the one deform left: the right one
    times a linear factor, another stage's factor, and one that divides
    nothing."""
    right = ode._memo[_CLEARING]
    yield right * RatPoly([-7, 3])
    yield other
    yield RatPoly([1, 1, 1, 1, 5])


@pytest.mark.parametrize("name, build, stages", [c[:3] for c in CHAINS], ids=IDS)
def test_a_wrong_stored_factor_gives_the_same_result(name, build, stages):
    inputs = chain_inputs(build, 0, stages)
    for k in range(1, len(inputs)):
        ode = inputs[k]
        other = inputs[1 + k % (len(inputs) - 1)]._memo[_CLEARING]
        expected = oracle(ode)
        for factor in wrong_factors(ode, other):
            twin = make_ode(ode.coeffs)
            twin._memo[_CLEARING] = factor
            assert deform(twin) == expected, (name, k + 1, factor)


def test_readme_chain_falls_back_only_at_stage_one(monkeypatch):
    # count the stages that found no stored factor or one that does not divide
    calls = []
    recorded = transform._quotients

    def counted(polys, factor):
        out = recorded(polys, factor)
        calls.append(out is None)
        return out

    monkeypatch.setattr(transform, "_quotients", counted)
    chain = deform_iter(general_heun(README_HEUN_PARAMS), 16)
    assert calls == [True] + [False] * 15
    # an equal equation rebuilt by make_ode has an empty memo: the
    # fallback gives the same record
    calls.clear()
    last = chain[-2].ode
    rebuilt = make_ode(last.coeffs)
    assert rebuilt == last and _CLEARING not in rebuilt._memo
    assert deform(rebuilt) == chain[-1]
    assert calls == [True]

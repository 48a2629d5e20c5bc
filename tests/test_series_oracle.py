"""The fraction-free recurrence against the ``Fraction`` oracle.

``_LocalData.series`` keeps each coefficient vector as integers over a
running denominator and reports each obstruction row as integers times
a weight.  ``_fraction_series`` runs the same recurrence on ``Fraction``
vectors.  Both must give equal coefficient vectors and equal obstruction
values at every step, from every rational exponent of every regular
point and from a shift of each that is no exponent, over the terms
``top`` and the parameter cap ``cap``.  Deformed equations put resonances
past the first step, where a parameter opens over the running
denominator.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from apparent import INFINITY, deform_iter, rational_roots
from apparent.frobenius import _local

from _dense_local import table_exponents
from _fraction_series import fraction_series
from test_properties import FAMILIES

TOP = 40  # the oracle's Fraction steps grow quadratically; gaps of 400 occur


def assert_series_agree(data, rho, top, cap):
    coeffs, obstructions = fraction_series(data, rho, top, cap)
    blocked_rows = []
    steps = list(data.series(rho, top, cap))
    assert len(steps) == top + 1
    for m, (a, d, blocked) in enumerate(steps):
        assert [Fraction(x, d) for x in a] == coeffs[m], (rho, m)
        if blocked:
            row, weight = blocked
            blocked_rows.append((m, [x * weight for x in row]))
    assert blocked_rows == obstructions, rho


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(0, 2**32),
    stages=st.integers(0, 2),
    extra=st.integers(0, 4),
    cap=st.integers(0, 4),
)
def test_fraction_free_series_matches_the_fraction_oracle(family, seed, stages, extra, cap):
    ode = FAMILIES[family](random.Random(seed))
    if stages:
        ode = deform_iter(ode, stages)[-1].ode
    for point in [r for r, _m in rational_roots(ode.leading)[0]] + [INFINITY]:
        data, _loc = _local(ode, point)
        if not data.is_regular:
            continue
        exps = table_exponents(data)[0]
        for rho in sorted(set(exps)):
            reach = max(int(e - rho) for e in exps if (e - rho).denominator == 1 and e >= rho)
            top = min(reach + extra, TOP)
            assert_series_agree(data, rho, top, cap)
            assert_series_agree(data, rho + Fraction(1, 2), top, cap)

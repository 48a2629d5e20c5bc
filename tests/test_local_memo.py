"""Local analysis runs once per equation instance and point, and a
point builds its recurrence table only when it needs one.

The memo sits under the public functions: the counters below patch the
local-data constructor, the table builder and the Moebius pullback to
see how often the work behind them runs.
"""

import copy
import gc
import pickle
import random
import weakref
from collections import Counter

import pytest

from apparent import (
    classify_point,
    deform,
    frobenius_series,
    fuchs_check,
    general_heun,
    is_apparent,
    rational_roots,
    riemann_symbol,
    undeform,
)
from apparent import frobenius, odemodel

from _gen import README_HEUN_PARAMS, heun_params


def certify(ode, planted):
    """The family-roundtrip analyses of one deformed equation."""
    return (
        fuchs_check(ode),
        riemann_symbol(ode),
        [is_apparent(ode, q) for q, _gap in planted],
        [frobenius_series(ode, q, 0, gap + 1) for q, gap in planted],
        undeform(ode),
    )


@pytest.fixture()
def work(monkeypatch):
    """Counts local-data builds by (equation id, point) and pullbacks."""
    builds = Counter()
    pullbacks = []
    local_data = frobenius._LocalData
    moebius = odemodel.moebius_transform

    class CountingLocalData(local_data):
        def __init__(self, ode, point):
            builds[id(ode), point] += 1
            super().__init__(ode, point)

    def counting_moebius(ode, m):
        pullbacks.append(m)
        return moebius(ode, m)

    monkeypatch.setattr(frobenius, "_LocalData", CountingLocalData)
    monkeypatch.setattr(odemodel, "moebius_transform", counting_moebius)
    return builds, pullbacks


def test_each_point_is_analysed_once(work):
    builds, pullbacks = work
    res = deform(general_heun(heun_params(random.Random(31))))
    ode = res.ode
    assert res.new_apparent
    first = certify(ode, res.new_apparent)
    finite = [r for r, _m in rational_roots(ode.leading)[0]]
    # every root of P_0 plus infinity, each built once, infinity pulled back once
    assert sum(builds.values()) == len(finite) + 1
    assert set(builds.values()) == {1}
    assert pullbacks == [(0, 1, 1, 0)]
    assert certify(ode, res.new_apparent) == first
    # the same point spelled as a string or an int finds the same entry
    planted = [q for q, _gap in res.new_apparent]
    for q in planted + finite:
        for alias in [str(q)] + ([int(q)] if q.denominator == 1 else []):
            assert classify_point(ode, alias) == classify_point(ode, q)
            if q in planted:
                assert is_apparent(ode, alias) == is_apparent(ode, q)
    assert any(q.denominator == 1 for q in finite)
    assert sum(builds.values()) == len(finite) + 1
    assert set(builds.values()) == {1}
    assert len(pullbacks) == 1


def test_memo_is_private_to_the_instance(work):
    builds, pullbacks = work
    params = heun_params(random.Random(32))
    res = deform(general_heun(params))
    analysed = res.ode
    first = certify(analysed, res.new_apparent)
    built = sum(builds.values())

    fresh = deform(general_heun(params)).ode
    assert fresh is not analysed
    assert fresh == analysed
    assert hash(fresh) == hash(analysed)
    assert repr(fresh) == repr(analysed)
    # nothing analysed on one instance is found on an equal one
    assert certify(fresh, res.new_apparent) == first
    assert sum(builds.values()) == 2 * built
    assert len(pullbacks) == 2


def test_memo_dies_with_its_equation():
    res = deform(general_heun(heun_params(random.Random(33))))
    ode = res.ode
    certify(ode, res.new_apparent)
    ref = weakref.ref(ode)
    del ode, res
    gc.collect()
    assert ref() is None


def test_equation_with_a_filled_memo_pickles_and_copies():
    ode = deform(general_heun(heun_params(random.Random(4)))).ode
    report = fuchs_check(ode)
    assert ode._memo
    for clone in (pickle.loads(pickle.dumps(ode)), copy.copy(ode), copy.deepcopy(ode)):
        assert clone == ode and hash(clone) == hash(ode)
        assert fuchs_check(clone) == report


def test_tables_are_built_only_where_a_series_runs(monkeypatch):
    # the simple roots 0, 1, 3 have non-integer exponents, read off P_0 and
    # P_1; the planted point's verdict sums a series, and infinity is a
    # double root of the pullback's P_0
    built = []
    recurrence = odemodel._recurrence

    def counting_recurrence(coeffs, point):
        built.append(point)
        return recurrence(coeffs, point)

    monkeypatch.setattr(odemodel, "_recurrence", counting_recurrence)
    res = deform(general_heun(README_HEUN_PARAMS))
    report = fuchs_check(res.ode)
    assert [str(p.location) for p in report.points] == ["0", "1", "3", "5", "inf"]
    assert res.new_apparent == ((5, 2),)
    assert built == [5, 0]  # 5, then zeta = 0 of the pullback to infinity
    riemann_symbol(res.ode)
    assert len(built) == 2

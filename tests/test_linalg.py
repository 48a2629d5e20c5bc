"""Exact elimination in ``apparent._linalg``: known cases, and a property
against the plain ``Fraction`` Gauss-Jordan of ``_fraction_linalg``."""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from apparent._linalg import nullity, nullspace_basis, rref

import _fraction_linalg as oracle

F = Fraction
BIG = 1 << 100


def mat_vec(matrix, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in matrix]


def types(matrix):
    return [[type(v) for v in row] for row in matrix]


def test_rref_known_matrix():
    for entry in (F, int):  # integer input is reduced exactly too
        m = [[entry(v) for v in row] for row in [[1, 2, 3], [2, 4, 7]]]
        reduced, pivots = rref(m)
        assert pivots == [0, 2]
        assert reduced[0] == [F(1), F(2), F(0)]
        assert reduced[1] == [F(0), F(0), F(1)]
        assert types(reduced) == [[F] * 3] * 2


def test_nullspace_of_rank_one_row():
    for row, expected in (
        ([F(1), F(2), F(3)], [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]),
        ([2, 3], [[F(-3, 2), F(1)]]),
    ):
        basis = nullspace_basis([row])
        assert basis == expected and types(basis) == types(expected)
        for vec in basis:
            assert mat_vec([row], vec) == [F(0)]


def test_nullspace_empty_for_full_rank():
    m = [[F(1), F(0)], [F(0), F(1)]]
    assert nullspace_basis(m) == []
    assert nullity(m) == 0


def test_ncols_overrides_on_empty_system():
    # no rows at all: every vector of the requested width is in the kernel
    assert nullity([], ncols=3) == 3
    basis = nullspace_basis([], ncols=2)
    assert len(basis) == 2


def test_random_kernel_vectors_annihilate():
    rng = random.Random(424242)
    for _ in range(20):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
        basis = nullspace_basis(m)
        for vec in basis:
            assert mat_vec(m, vec) == [F(0)] * rows
        reduced, pivots = rref(m)
        assert len(pivots) + len(basis) == cols  # rank-nullity
        assert nullity(m) == len(basis)


ENTRIES = {
    "int": st.one_of(st.integers(-6, 6), st.integers(-BIG, BIG)),
    "fraction": st.one_of(
        st.fractions(min_value=-6, max_value=6, max_denominator=7),
        st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
    ),
}
ENTRIES["mixed"] = st.one_of(ENTRIES["int"], ENTRIES["fraction"])


@st.composite
def matrices(draw):
    """Up to 6 x 6, wide or tall, with zero entries likely; then up to two
    rows inserted that keep the rank: a zero row, a copy, a sum of two."""
    entry = st.one_of(st.just(0), ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))])
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for kind in draw(st.lists(st.sampled_from(["zero", "copy", "sum"]), max_size=2)) if m else ():
        i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
        extra = {"zero": [0] * cols, "copy": list(m[i]), "sum": [a + b for a, b in zip(m[i], m[j])]}
        m.insert(draw(st.integers(0, len(m))), extra[kind])
    return m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices(), st.booleans(), st.integers(0, 4))
@example([[2, 3]], False, 0)
@example([], True, 3)
@example([[F(1, 2), 0, F(-3, 4)], [1, 0, F(-3, 2)], [0, 0, 0]], True, 0)
def test_fraction_free_elimination_matches_the_fraction_oracle(m, pass_ncols, empty_ncols):
    """Same values and types as Gauss-Jordan over Fraction, input untouched."""
    before = [row[:] for row in m]
    ncols = (len(m[0]) if m else empty_ncols) if pass_ncols else None
    reduced, pivots = rref(m)
    want, want_pivots = oracle.rref(m)
    assert pivots == want_pivots
    assert reduced == want and types(reduced) == types(want)
    basis = nullspace_basis(m, ncols)
    want = oracle.nullspace_basis(m, ncols)
    assert basis == want and types(basis) == types(want)
    assert nullity(m, ncols) == len(want)
    assert m == before and types(m) == types(before)


@st.composite
def prefix_extensions(draw):
    """A matrix, a column count p <= its width, and the matrix with rows
    that vanish on its first p columns inserted anywhere."""
    m = draw(matrices())
    width = len(m[0]) if m else draw(st.integers(0, 4))
    p = draw(st.integers(0, width))
    entry = st.one_of(st.just(0), ENTRIES["mixed"])
    full = [row[:] for row in m]
    for _ in range(draw(st.integers(0, 3))):
        extra = [0] * p + [draw(entry) for _ in range(width - p)]
        full.insert(draw(st.integers(0, len(full))), extra)
    return m, p, full


@settings(max_examples=150, deadline=None, derandomize=True)
@given(prefix_extensions())
@example(([[1, 0], [0, 0]], 1, [[0, 1], [1, 0], [0, 0]]))
@example(([], 0, [[0, 0, 5]]))
def test_nullspace_of_a_column_prefix_heads_the_full_basis(case):
    """The reduced form of a column prefix is the prefix of the full
    reduced form, so each prefix basis vector, zero-padded, is a full
    basis vector, in the same order; the rest are free past the prefix."""
    m, p, full = case
    width = len(full[0]) if full else p
    head = [v + [F(0)] * (width - p) for v in nullspace_basis([row[:p] for row in m], p)]
    basis = nullspace_basis(full, width)
    assert basis[:len(head)] == head
    assert all(any(v[p:]) for v in basis[len(head):])

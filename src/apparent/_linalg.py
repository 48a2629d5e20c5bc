"""Exact dense linear algebra: reduced row echelon form and nullspace
bases.  Matrices are lists of equal-length rows of ints or Fractions.
Each row is cleared to integers by the lcm of its denominators and
eliminated fraction-free (Gauss-Jordan, each updated row divided by its
content), so Fractions are built only for the results.  Pivots are the
first nonzero entry in column order: results are deterministic."""

from __future__ import annotations

import math
from fractions import Fraction


def _echelon(matrix: list[list[int | Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Integer rows and pivot columns of the reduced form, each row
    scaled by its own factor: row r is zero in every pivot column but
    its own, pivots[r]; the rows past the rank are zero."""
    m = []
    for row in matrix:
        den = math.lcm(*[v.denominator for v in row])
        m.append([v.numerator * (den // v.denominator) for v in row])
    rows, cols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top, p = m[r], m[r][c]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                new = [p * a - f * b for a, b in zip(m[i], top)]
                g = math.gcd(*new)
                m[i] = [a // g for a in new] if g > 1 else new
        pivots.append(c)
    return m, pivots


def rref(matrix: list[list[int | Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and the list of pivot column indices."""
    m, pivots = _echelon(matrix)
    red = [[Fraction(v, row[c]) for v in row] for row, c in zip(m, pivots)]
    return red + [[Fraction(0)] * len(row) for row in m[len(pivots):]], pivots


def nullspace_basis(matrix: list[list[int | Fraction]], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right nullspace, one vector per free column.

    Each basis vector has a 1 in its free column and the pivot entries
    filled from the reduced form; the order follows ascending free
    column index, so the result is deterministic.
    """
    m, pivots = _echelon(matrix)
    n = ncols if ncols is not None else (len(matrix[0]) if matrix else 0)
    basis = []
    for fc in [c for c in range(n) if c not in pivots]:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def nullity(matrix: list[list[int | Fraction]], ncols: int | None = None) -> int:
    return len(nullspace_basis(matrix, ncols))

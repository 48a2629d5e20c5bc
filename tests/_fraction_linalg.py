"""Dense Gauss-Jordan elimination in plain ``Fraction`` arithmetic.

This is the former body of ``apparent._linalg``, before it cleared each
row to integers and eliminated fraction-free.  Entries are converted to
``Fraction`` on the way in, so an int matrix is reduced exactly too.  It
is kept only as the oracle of ``test_linalg.py``.
"""

from fractions import Fraction


def rref(matrix):
    """Reduced row echelon form and the list of pivot column indices."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace_basis(matrix, ncols=None):
    """Basis of the right nullspace, one vector per free column, with a
    1 in its free column, in ascending free column order."""
    if not matrix:
        n = ncols or 0
        return [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    n = ncols if ncols is not None else len(matrix[0])
    red, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis

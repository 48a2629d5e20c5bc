"""Reference apparency verdict and Frobenius series, written out a second way.

These are the former bodies of ``_LocalData.verdict`` and
``frobenius_series``: the verdict transcribes the coefficient recurrence
run from exponent 0 into an exact (E+1)-square lower-triangular system
over the jet a_0..a_E (E = max exponent) and takes its nullity, and the
series runs the recurrence as a scalar loop with a_0 = 1 and every later
free coefficient set to zero.  They are kept only as oracles for the
differential tests in ``test_local_reference.py``.  The shifted
tables are shared with the package; the exponents are the rational
roots of the table's C_{j0}, not the package's closed form at a simple
root, and the solves are not shared either.  The system has (E+1)^2
entries, so keep E small here.
"""

from fractions import Fraction

from apparent import RatPoly, as_fraction, rational_roots
from apparent._linalg import nullity
from apparent.frobenius import ApparentVerdict, FrobeniusSolution, _local


def _c(data, j):
    """C_j, zero outside the table."""
    return data.cpolys[j - data.j0] if data.j0 <= j <= data.jmax else RatPoly()


def table_exponents(data):
    """Rational roots of the table's C_{j0}, ascending and repeated per
    multiplicity, and the monic factor holding the others (None when
    there are none)."""
    roots, residual = rational_roots(data.cpolys[0])
    return (tuple(r for r, m in roots for _ in range(m)),
            residual if residual.degree > 0 else None)


def dense_verdict(ode, point):
    data, _loc = _local(ode, point)
    n = data.n
    exponents, residual = table_exponents(data)
    if residual is not None:
        return ApparentVerdict(False, exponents, "non-rational exponent", None)
    if any(e.denominator != 1 for e in exponents):
        return ApparentVerdict(False, exponents, "non-integer exponent", None)
    if any(e < 0 for e in exponents):
        return ApparentVerdict(False, exponents, "negative exponent", None)
    if len(set(exponents)) != n:
        return ApparentVerdict(False, exponents, "repeated exponents", None)
    # rows t = 0..E of the substitution constrain the jet a_0..a_E
    top = int(max(exponents))
    matrix = []
    for t in range(top + 1):
        row = []
        for m in range(top + 1):
            cj = _c(data, data.j0 + t - m) if m <= t else RatPoly()
            row.append(cj(Fraction(m)) if not cj.is_zero else Fraction(0))
        matrix.append(row)
    dim = nullity(matrix, top + 1)
    if dim == n:
        return ApparentVerdict(True, exponents, None, dim)
    return ApparentVerdict(False, exponents, "nonzero log obstruction", dim)


def scalar_series(ode, point, exponent, n_terms):
    point = as_fraction(point)
    exponent = as_fraction(exponent)
    data, _loc = _local(ode, point)
    ind = data.cpolys[0]
    assert ind(exponent) == 0
    width = data.jmax - data.j0
    coeffs = [Fraction(1)]
    obstructions = []
    for m_idx in range(1, n_terms + 1):
        rhs = Fraction(0)
        for m in range(max(0, m_idx - width), m_idx):
            cj = _c(data, data.j0 + m_idx - m)
            if not cj.is_zero:
                rhs -= coeffs[m] * cj(exponent + m)
        denom = ind(exponent + m_idx)
        if denom == 0:
            obstructions.append((m_idx, rhs))
            coeffs.append(Fraction(0))
        else:
            coeffs.append(rhs / denom)
    return FrobeniusSolution(
        point=point,
        exponent=exponent,
        coeffs=tuple(coeffs),
        truncation=n_terms,
        obstructions=tuple(obstructions),
    )

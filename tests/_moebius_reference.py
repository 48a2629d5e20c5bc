"""Reference Moebius pullback, written out a second way.

This is the former body of ``moebius_transform``.  It composes
P_k(z(zeta)) by multiplying out powers of (a zeta + b) and (c zeta + d),
and it expands the derivative through the row recurrence
c_{m,j} = r (c_{m-1,j-1} + c_{m-1,j}') with r = (c zeta + d)^2 / det.
It is kept only as an oracle for ``test_integer_kernels.py``, where it
must agree with the package's composition of Taylor shifts, a scaling
and the Lah-number inversion.
"""

import math

from apparent import SingularMoebiusError, as_fraction, make_ode
from apparent.polyrat import _list_addmul, _list_mul


def reference_moebius(ode, m):
    """Change of variable z = (a zeta + b)/(c zeta + d), ad - bc != 0.

    The work is done on integer coefficient lists.  The matrix is
    projective, so it is scaled to integers; the rows use
    (c zeta + d)^2 in place of r, which multiplies c_{m,j} by det^m, and
    the composed P_k carry det^k to balance it, so every new coefficient
    gains the same factor det^n.  The equation is scaled to integer
    coefficients too.  make_ode removes both constants.
    """
    entries = [as_fraction(v) for v in m]
    scale = math.lcm(*[v.denominator for v in entries])
    a, b, c, d = (int(v * scale) for v in entries)
    det = a * d - b * c
    if det == 0:
        raise SingularMoebiusError("Moebius matrix has zero determinant")
    n = ode.order
    num = [b, a] if a else [b]
    den = [d, c] if c else [d]
    r = _list_mul(den, den)

    # rows[m][j] = det^m c_{m,j}; row 0 is the identity operator
    rows = [[[1]]]
    for _ in range(n):
        prev = rows[-1]
        cur = []
        for j in range(len(prev) + 1):
            acc = list(prev[j - 1]) if j >= 1 else []
            if j < len(prev):
                _list_addmul(acc, 1, [i * v for i, v in enumerate(prev[j])][1:])
            cur.append(_list_mul(r, acc))
        rows.append(cur)

    # P_k(z(zeta)) * den^D is polynomial for D = max deg P_k
    big_d = max(p.degree for p in ode.coeffs if not p.is_zero)
    num_pows = [[1]]
    den_pows = [[1]]
    for _ in range(big_d):
        num_pows.append(_list_mul(num_pows[-1], num))
        den_pows.append(_list_mul(den_pows[-1], den))
    basis = [_list_mul(num_pows[i], den_pows[big_d - i]) for i in range(big_d + 1)]
    common = math.lcm(*[x.denominator for p in ode.coeffs for x in p.coeffs])

    composed = []
    det_k = 1
    for p in ode.coeffs:
        acc = []
        for i, x in enumerate(p.coeffs):
            if x:
                _list_addmul(acc, det_k * x.numerator * (common // x.denominator), basis[i])
        composed.append(acc)
        det_k *= det
    new_coeffs = []
    for j in range(n, -1, -1):
        acc = []
        for k in range(n + 1):
            row = rows[n - k]
            if j < len(row) and composed[k]:
                _list_addmul(acc, 1, _list_mul(composed[k], row[j]))
        new_coeffs.append(acc)
    return make_ode(new_coeffs)

"""The Frobenius recurrence in plain ``Fraction`` arithmetic.

This is the former body of ``_LocalData.series``, before its steps ran
on integers over a running denominator.  It is kept only as the oracle
of ``test_series_oracle.py``, and it reads nothing of the package but
the recurrence table ``cpolys`` (C_j for j = j0..jmax, as RatPolys).
"""

from fractions import Fraction


def fraction_series(data, rho, top, cap):
    """a_0..a_top of zeta^rho sum a_M zeta^M, each a_M a vector over the
    first `cap` free parameters opened up to offset M (later parameters
    set to zero), and the obstruction rows (M, rhs) at the offsets where
    C_{j0}(rho+M) = 0 and a parameter opens."""
    cpolys = data.cpolys
    width = len(cpolys) - 1
    coeffs, obstructions = [], []
    for m_idx in range(top + 1):
        rhs = [Fraction(0)] * min(len(obstructions), cap)
        for m in range(max(0, m_idx - width), m_idx):
            value = cpolys[m_idx - m](rho + m)
            if value:
                for i, a in enumerate(coeffs[m]):
                    rhs[i] -= a * value
        denom = cpolys[0](rho + m_idx)
        if denom:
            coeffs.append([r / denom for r in rhs])
        else:
            obstructions.append((m_idx, rhs))
            opened = [Fraction(1)] if len(rhs) < cap else []
            coeffs.append([Fraction(0)] * len(rhs) + opened)
    return coeffs, obstructions

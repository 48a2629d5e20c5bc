"""Reference inverse of ``deform`` by a dense ansatz.

This is the former body of ``transform.undeform``: every coefficient of
the antecedent's P_0..P_{n-1} is an unknown (degree bounds read off the
deform shape plus the slack), together with the scalar on
M = prod (z - q)^m and the content multiplier c of degree <= slack.
Equating deform-of-ansatz to c * input coefficient by coefficient gives
one dense linear system per slack value.  It returns every antecedent
found at the lowest slack that has one, with the removed points.  It is
kept only as an oracle for the differential test in
``test_undeform_reference.py``; target resolution is shared with the
package, the solve is not.
"""

from fractions import Fraction

from apparent import (
    ApparentError,
    NotRemovableError,
    RatPoly,
    deform,
    exact_div,
    make_ode,
    radical,
)
from apparent._linalg import nullspace_basis
from apparent.transform import _targets


def dense_undeform(ode, targets=None, *, multiplicities=None, max_slack=1):
    n = ode.order
    if n < 2:
        raise ValueError("inverse differentiation needs order >= 2")
    if max_slack < 0:
        raise ValueError(f"max_slack must be at least 0, got {max_slack}")
    resolved = _targets(ode, targets, multiplicities)

    m_star = RatPoly([1])
    for q, m in resolved:
        m_star = m_star * RatPoly([-q, 1]) ** m
    clearing = radical(m_star)
    s_poly = exact_div(m_star.derivative() * clearing, m_star)
    deg_r = clearing.degree
    d_in = ode.coeffs

    for slack in range(max_slack + 1):
        bounds = [d_in[j].degree - deg_r + slack for j in range(n)]
        if bounds[0] < 0:
            continue
        # variable layout: coeffs of P_0..P_{n-1}, then a (scalar on M),
        # then the proportionality polynomial c of degree <= slack
        offsets = []
        pos = 0
        for dj in bounds:
            offsets.append(pos)
            pos += max(dj + 1, 0)
        a_idx = pos
        c_idx = pos + 1
        nvars = pos + 2 + slack

        # contributions[t][v] = polynomial multiplying variable v in identity t
        contributions = [dict() for _ in range(n + 1)]
        for j in range(n):
            for i in range(max(bounds[j] + 1, 0)):
                v = offsets[j] + i
                zi = RatPoly([0] * i + [1])
                contributions[j][v] = contributions[j].get(v, RatPoly()) + clearing * zi
                nxt = clearing * zi.derivative() - s_poly * zi
                contributions[j + 1][v] = contributions[j + 1].get(v, RatPoly()) + nxt
        contributions[n][a_idx] = clearing * m_star
        for t in range(n + 1):
            for i in range(slack + 1):
                contributions[t][c_idx + i] = -d_in[t] * RatPoly([0] * i + [1])

        rows = []
        for t in range(n + 1):
            deg_t = max((p.degree for p in contributions[t].values()), default=-1)
            for r in range(deg_t + 1):
                row = [Fraction(0)] * nvars
                for v, p in contributions[t].items():
                    row[v] = p.coeffs[r] if r <= p.degree else Fraction(0)
                rows.append(row)

        basis = nullspace_basis(rows, nvars)
        solutions = []
        for vec in basis:
            if all(v == 0 for v in vec[c_idx : c_idx + slack + 1]):
                continue
            polys = []
            for j in range(n):
                lo = offsets[j]
                polys.append(RatPoly(vec[lo : lo + max(bounds[j] + 1, 0)]))
            polys.append(vec[a_idx] * m_star)
            try:
                candidate = make_ode(polys)
            except ApparentError:
                continue
            if candidate not in solutions and deform(candidate).ode == ode:
                solutions.append(candidate)
        if solutions:
            return tuple(solutions), tuple(sorted(q for q, _m in resolved))
    raise NotRemovableError(
        "no antecedent within the degree bounds; removal may require "
        "specifying some parameters of the equation, and that search is "
        "not attempted",
        targets=",".join(str(q) for q, _m in resolved),
        max_slack=max_slack,
    )

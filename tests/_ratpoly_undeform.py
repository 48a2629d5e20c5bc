"""Reference slack loop of ``undeform`` in ``RatPoly`` arithmetic.

This is the former body of ``transform.undeform``: M, R and S come from
``RatPoly.from_roots`` and ``exact_div``, each multiplier z^slack is
back-substituted by division over Q, the rows of the system are rebuilt
from every column at each slack level, and a candidate is accepted only
when deforming it (``_cleared``, then ``make_ode``) gives back the input.
The division is ``_fraction_poly.divmod_``, schoolbook on ``Fraction``s,
so that it shares no code with the pseudo-division of the package.  It
is kept only as the oracle of ``test_undeform_integer.py``; target
resolution is shared with the package, the slack loop is not.
"""

from apparent import (
    NotRemovableError,
    RatPoly,
    UndeformResult,
    exact_div,
    make_ode,
)
from apparent._linalg import nullspace_basis
from apparent.transform import _cleared, _targets

from _fraction_poly import divmod_


def ratpoly_undeform(ode, targets=None, *, multiplicities=None, max_slack=1):
    n = ode.order
    if n < 2:
        raise ValueError("inverse differentiation needs order >= 2")
    if max_slack < 0:
        raise ValueError(f"max_slack must be at least 0, got {max_slack}")
    resolved = _targets(ode, targets, multiplicities)

    m_star = RatPoly.from_roots([q for q, m in resolved for _ in range(m)])
    clearing = RatPoly.from_roots([q for q, _m in resolved])
    s_poly = exact_div(m_star.derivative() * clearing, m_star)
    d_in = ode.coeffs

    # chains[i][j] is P_j for c = z^i; column 1 + i lists the conditions
    # on it (P_n, then every remainder); column 0 is the scalar a on M
    chains, columns, tried = [], [[-m_star] + [RatPoly()] * (n + 1)], 0
    for slack in range(max_slack + 1):
        chain, rems, prev = [], [], RatPoly()
        for j in range(n + 1):
            num = RatPoly([0] * slack + [1]) * d_in[j] + s_poly * prev
            quot, rem = (RatPoly(p) for p in divmod_(num.coeffs, clearing.coeffs))
            prev = quot - prev.derivative()
            chain.append(prev)
            rems.append(rem)
        chains.append(chain)
        columns.append([prev] + rems)
        rows = [
            [col[k].coeffs[r] if r <= col[k].degree else 0 for col in columns]
            for k in range(n + 2)
            for r in range(max(col[k].degree for col in columns) + 1)
        ]

        basis = nullspace_basis(rows, slack + 2)
        for vec in basis[tried:]:
            if vec[0] == 0:
                continue
            polys = [sum((c * ch[j] for c, ch in zip(vec[1:], chains)), RatPoly()) for j in range(n)]
            polys.append(vec[0] * m_star)
            candidate = make_ode(polys)
            if make_ode(_cleared(candidate.coeffs)[0]) == ode:
                return UndeformResult(candidate, tuple(sorted(q for q, _m in resolved)))
        tried = len(basis)
    raise NotRemovableError(
        "no antecedent within the degree bounds",
        targets=",".join(str(q) for q, _m in resolved),
        max_slack=max_slack,
    )

"""Generation and removal of apparent singularities by differentiation.

Forward direction (deform).  Differentiate sum_k P_k w^{(n-k)} = 0 once,
set u = w', and eliminate w through w = -(sum_{k<n} P_k u^{(n-1-k)})/P_n.
The raw result has coefficients Q_0 = P_0 and, for j >= 1,

    Q_j = P_j + P_{j-1}' - (P_n'/P_n) P_{j-1},

rational only through the logarithmic derivative of P_n.  Multiplying by
R = radical(P_n) clears it: with S = P_n' R / P_n (a polynomial, since R
carries each distinct root of P_n exactly once),

    O_0 = R P_0,    O_j = R (P_j + P_{j-1}') - S P_{j-1}.

Each root q of P_n that is not a root of P_0 becomes a new singular
point of the result, and it is apparent: for order 2 and root
multiplicity m the exponents there are {0, m+1} (gap m + 1; simple
roots give {0, 2}, double roots {0, 3}).

Inverse direction (undeform).  Reconstruct an antecedent whose deform
equals the input up to a constant.  The antecedent's trailing
coefficient is forced to a scalar multiple of M = prod (z - q_j)^{m_j}
over the removal targets; the remaining coefficients are unknown
polynomials with degree bounds read off the deform shape.  Equating
deform-of-ansatz to c * input coefficient-by-coefficient is a linear
system over Q in the unknown coefficients, the scalar on M, and c; any
nonzero nullspace vector has c != 0 (the deform map is injective on
coefficient tuples), so each one yields a valid antecedent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import frobenius
from ._linalg import nullspace_basis
from .errors import (
    AlreadyIntegratedError,
    ApparentError,
    IrregularPointError,
    NothingToRemoveError,
    NotRemovableError,
)
from .odemodel import LinearODE, PointKind, _leading_roots, make_ode
from .polyrat import RatPoly, as_fraction, exact_div, radical, rational_roots


@dataclass(frozen=True)
class DeformResult:
    """Deformed equation plus bookkeeping.

    new_apparent: (location, expected exponent gap) for each rational
    root of the input's P_n that is not a root of P_0.  The gap value
    multiplicity+1 is filled in for order 2; for higher order the
    entry is the sentinel string UNVERIFIED_GAP (measure it with
    frobenius.is_apparent).
    clearing_factor: radical of the input's P_n.
    """

    ode: LinearODE
    new_apparent: tuple[tuple[Fraction, int | str], ...]
    clearing_factor: RatPoly


UNVERIFIED_GAP = "unverified - compute via frobenius"


@dataclass(frozen=True)
class UndeformResult:
    """Antecedent equation(s) whose deform reproduces the input.

    ode: the primary antecedent (first basis solution, canonicalized).
    free_parameters: solution-space dimensions beyond overall scaling;
    0 means the antecedent is unique up to a constant.  solutions: all
    basis antecedents, ode first.
    """

    ode: LinearODE
    removed_points: tuple[Fraction, ...]
    free_parameters: int
    solutions: tuple[LinearODE, ...]


def deform(ode: LinearODE) -> DeformResult:
    """Differentiate, eliminate the undifferentiated unknown, clear."""
    coeffs = ode.coeffs
    n = ode.order
    trailing = coeffs[-1]
    if trailing.is_zero:
        raise AlreadyIntegratedError(
            "coefficient of the undifferentiated unknown is zero; "
            "the equation is already a derivative"
        )
    clearing = radical(trailing)
    s_poly = exact_div(trailing.derivative() * clearing, trailing)
    out = [clearing * coeffs[0]]
    for j in range(1, n + 1):
        out.append(clearing * (coeffs[j] + coeffs[j - 1].derivative()) - s_poly * coeffs[j - 1])
    new_ode = make_ode(out)
    p0 = coeffs[0]
    created = []
    for root, mult in rational_roots(trailing)[0]:
        if p0(root) != 0:
            created.append((root, mult + 1 if n == 2 else UNVERIFIED_GAP))
    return DeformResult(ode=new_ode, new_apparent=tuple(created), clearing_factor=clearing)


def deform_iter(ode: LinearODE, k: int) -> list[DeformResult]:
    """k successive deform stages; stage i+1 consumes stage i's output."""
    if k < 1:
        raise ValueError("need at least one stage")
    chain: list[DeformResult] = []
    current = ode
    for stage in range(k):
        try:
            result = deform(current)
        except ApparentError as e:
            e.details.setdefault("stage", stage)
            raise
        chain.append(result)
        current = result.ode
    return chain


def _infer_targets(ode: LinearODE) -> list[tuple[Fraction, int]]:
    """Finite apparent points whose exponents fit the derivative ladder.

    A point created by differentiation carries exponents
    {0, 1, ..., n-2, n-1+m} with m the trailing-root multiplicity, so
    m is read off the top exponent.  Apparent points with any other
    exponent pattern are skipped; remove those with explicit targets
    and multiplicities.
    """
    n = ode.order
    ladder = [Fraction(i) for i in range(n - 1)]
    found = []
    for root, _m in _leading_roots(ode)[0]:
        sp = frobenius.classify_point(ode, root)
        if sp.kind is not PointKind.APPARENT:
            continue
        exps = sorted(sp.exponents)
        if exps[:-1] == ladder and exps[-1] >= n:
            found.append((root, int(exps[-1]) - (n - 1)))
    return found


def _validate_targets(ode: LinearODE, targets, multiplicities) -> list[tuple[Fraction, int]]:
    n = ode.order
    locs = [as_fraction(q) for q in targets]
    if multiplicities is not None:
        mults = [int(m) for m in multiplicities]
        if len(mults) != len(locs):
            raise ValueError("one multiplicity per target is required")
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        return list(zip(locs, mults))
    if n != 2:
        raise ValueError(
            "multiplicity inference from exponent gaps is an order-2 rule; "
            "supply multiplicities explicitly for higher order"
        )
    resolved = []
    for q in locs:
        sp = frobenius.classify_point(ode, q)
        if sp.kind is PointKind.ORDINARY:
            raise AlreadyIntegratedError(f"no singularity at {q} to remove")
        if sp.kind is PointKind.IRREGULAR:
            raise IrregularPointError(f"{q} is an irregular singular point")
        gap = max(sp.exponents) - min(sp.exponents)
        if gap.denominator != 1 or gap < 2:
            raise NotRemovableError(
                f"exponent gap at {q} is not an integer >= 2; "
                "supply multiplicities explicitly",
                gap=str(gap),
            )
        resolved.append((q, int(gap) - 1))
    return resolved


def undeform(
    ode: LinearODE,
    targets=None,
    *,
    multiplicities=None,
    max_slack: int = 1,
) -> UndeformResult:
    """Remove apparent singularities by inverse differentiation.

    targets: locations to remove; default is every finite apparent
    point whose exponents fit the derivative ladder {0..n-2, n-1+m}.
    multiplicities: root multiplicities of the antecedent's trailing
    coefficient at the targets; for explicit targets they are inferred
    from the exponent gap (m = gap - 1) at order 2 and required at
    higher order.
    max_slack: extra slack allowed on the ansatz degree bounds beyond
    the tight deform-shape values (tight is tried first); at least 0.

    No parameter-specialization search is attempted: when the exact
    linear system only has the trivial solution the removal may still
    become possible after specializing free parameters of the equation,
    and that is reported as NotRemovable rather than explored.
    """
    n = ode.order
    if n < 2:
        raise ValueError("inverse differentiation needs order >= 2")
    if max_slack < 0:
        raise ValueError(f"max_slack must be at least 0, got {max_slack}")
    if targets is None:
        inferred = _infer_targets(ode)
        if not inferred:
            raise NothingToRemoveError("no apparent singular points found")
        if multiplicities is not None:
            inferred = _validate_targets(ode, [q for q, _ in inferred], multiplicities)
    else:
        if not list(targets):
            raise NothingToRemoveError("empty target list")
        inferred = _validate_targets(ode, targets, multiplicities)

    m_star = RatPoly([1])
    for q, m in inferred:
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
        # then the proportionality polynomial c of degree <= slack.  A
        # polynomial c absorbs content factors that canonicalization of
        # the input stripped (a dying gap-2 point, say).
        offsets = []
        pos = 0
        for dj in bounds:
            offsets.append(pos)
            pos += max(dj + 1, 0)
        a_idx = pos
        c_idx = pos + 1
        nvars = pos + 2 + slack

        # contributions[t][v] = polynomial multiplying variable v in identity t
        contributions: list[dict[int, RatPoly]] = [dict() for _ in range(n + 1)]
        for j in range(n):
            for i in range(max(bounds[j] + 1, 0)):
                v = offsets[j] + i
                zi = RatPoly.monomial(i)
                contributions[j][v] = contributions[j].get(v, RatPoly()) + clearing * zi
                nxt = clearing * zi.derivative() - s_poly * zi
                contributions[j + 1][v] = contributions[j + 1].get(v, RatPoly()) + nxt
        contributions[n][a_idx] = clearing * m_star
        for t in range(n + 1):
            for i in range(slack + 1):
                contributions[t][c_idx + i] = -d_in[t] * RatPoly.monomial(i)

        rows: list[list[Fraction]] = []
        for t in range(n + 1):
            deg_t = max((p.degree for p in contributions[t].values()), default=-1)
            for r in range(deg_t + 1):
                row = [Fraction(0)] * nvars
                for v, p in contributions[t].items():
                    row[v] = p.coeff(r)
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
            return UndeformResult(
                ode=solutions[0],
                removed_points=tuple(sorted(q for q, _m in inferred)),
                free_parameters=len(solutions) - 1,
                solutions=tuple(solutions),
            )
    raise NotRemovableError(
        "no antecedent within the degree bounds; removal may require "
        "specifying some parameters of the equation, and that search is "
        "not attempted",
        targets=",".join(str(q) for q, _m in inferred),
        max_slack=max_slack,
    )

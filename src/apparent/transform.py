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
point of the result, and it is apparent.  Solutions w with w(q) = 0
give u = w' vanishing at q to the orders 0, 1, ..., n-2; the solution
with w(q) = 1 and w', ..., w^{(n-1)} zero at q has w - 1 vanishing to
the order n + m when q is a root of multiplicity m, so its u vanishes
to the order n - 1 + m.  The exponents at q are the derivative ladder
{0, 1, ..., n-2, n-1+m}, gap n - 1 + m (order 2: simple roots give
{0, 2}, double roots {0, 3}).

Stage after stage.  The O_j are built on integer lists over one unit.
When an earlier deform made the input, the common factor make_ode
divides out of them is usually that stage's clearing factor H: a simple
root q of the earlier P_n became an apparent point with exponents
{0, ..., n-2, n}, one more differentiation makes it ordinary (a gap-2
point of an earlier stage dies that way), and z - q becomes content.
So deform keeps its clearing factor in the memo of its output
(odemodel._CLEARING), and the next deform divides every O_j by it
exactly before make_ode takes the gcd of the quotients, which is cheap
when they are coprime.  The result is exact on either path: when H
divides every O_j, gcd(O) = H gcd(O/H), and make_ode(O/H) is
make_ode(O).  When no factor is stored or H fails to divide one of
them, make_ode takes the gcd of the O_j themselves.  H fails where a
point survives: the point of a multiple root of the earlier P_n (gap
n - 1 + m > n), or one at which the input's own P_n vanishes too.

Inverse direction (undeform).  Reconstruct an antecedent P whose deform
equals the input D up to content.  Its trailing coefficient is forced
to P_n = a M, M = prod (z - q_j)^{m_j} over the removal targets, so R =
radical(M) and S = M' R / M are known and the identities above are
triangular in P:

    R P_0 = c D_0,    R P_j = c D_j + S P_{j-1} - R P_{j-1}'  (j = 1..n).

Given c, back-substitution yields P_0, ..., P_n one at a time, each by a
division by R.  The multiplier c is a polynomial, not a scalar: the
canonical form of deform's output has its common content divided out
(a gap-2 point of an earlier stage dies that way), and c puts it back.
Its degree is the slack, tried from 0 up.  Everything is linear in c,
so the substitution runs once per basis multiplier z^i, and the only
unknowns left are the coefficients of c and the scale a: every division
by R must be exact and the last quotient must equal a M.  A nullspace
vector of that small exact system (slack + 2 columns) combines the
substituted coefficients into a candidate.  Canonicalizing a candidate
may divide out content of its own, which deform does not commute with,
so a candidate is accepted only if its deform gives back the input.

Raising the slack by one appends one column, for the new coefficient of
c, and rows that are zero in every earlier column.  The reduced echelon
form of a column prefix is the prefix of the full one, so the basis at
slack s is the basis at s - 1 padded with a zero, plus at most one
vector for the new column (the column of a is never free: M is
nonzero).  Only that vector is new, and the check runs at most once
per slack level; the search returns the first antecedent it finds.  The
check is deform's predicate: the cleared coefficients of the candidate,
canonicalized, must equal the input; deform's root search for the new
apparent points is skipped.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from ._linalg import nullspace_basis
from .errors import (
    AlreadyIntegratedError,
    ApparentError,
    IrregularPointError,
    NothingToRemoveError,
    NotRemovableError,
)
from .odemodel import (
    _CLEARING,
    LinearODE,
    PointKind,
    _accessory_roots,
    _leading_roots,
    make_ode,
)
from .polyrat import (
    RatPoly,
    _from_ints,
    _int_divexact,
    _list_addmul,
    _list_mul,
    _over_common_unit,
    _scaled,
    as_fraction,
    exact_div,
    radical,
)

_ONE = Fraction(1)


class DeformResult(NamedTuple):
    """Deformed equation plus bookkeeping.

    new_apparent: (location, exponent gap) for each rational root of
    the input's P_n that is not a root of P_0; a root of multiplicity m
    of an order-n input has gap n - 1 + m (the derivative ladder, see
    the module docstring).
    clearing_factor: radical of the input's P_n.
    """

    ode: LinearODE
    new_apparent: tuple[tuple[Fraction, int], ...]
    clearing_factor: RatPoly


class UndeformResult(NamedTuple):
    """Antecedent equation whose deform reproduces the input.

    ode: the antecedent, canonicalized.
    free_parameters: always 0, and solutions: always (ode,).  The search
    tries only nullspace basis vectors, at most one new one per slack
    level (see the module docstring), and stops at the first that
    deforms back to the input, so neither field measures the dimension
    of the solution space; both stay for the report schema.
    """

    ode: LinearODE
    removed_points: tuple[Fraction, ...]
    free_parameters: int
    solutions: tuple[LinearODE, ...]


def deform(ode: LinearODE) -> DeformResult:
    """Differentiate, eliminate the undifferentiated unknown, clear.

    When ode came from an earlier deform, that stage's clearing factor
    is tried as the common factor first (see the module docstring).
    """
    if ode.coeffs[-1].is_zero:
        raise AlreadyIntegratedError(
            "coefficient of the undifferentiated unknown is zero; "
            "the equation is already a derivative"
        )
    polys, clearing = _cleared(ode)
    quotients = _quotients(polys, ode._memo.get(_CLEARING))
    out = make_ode(polys if quotients is None else quotients)
    out._memo[_CLEARING] = clearing
    n = ode.order
    created = tuple((q, n - 1 + m) for q, m in _accessory_roots(ode, clearing))
    return DeformResult(ode=out, new_apparent=created, clearing_factor=clearing)


def _cleared(ode: LinearODE) -> tuple[list[RatPoly], RatPoly]:
    """O_0, ..., O_n up to one nonzero constant, and R = radical(P_n).

    The P_j are put over the common unit of their contents and R, S
    over theirs, so O_0 = R P_0 and O_j = R (P_j + P_{j-1}') - S P_{j-1}
    are built by integer list products.  The dropped constant is one
    for all O_j, which make_ode's canonical form does not see.
    """
    coeffs = ode.coeffs
    trailing = coeffs[-1]
    clearing = radical(trailing)
    s_poly = exact_div(trailing.derivative() * clearing, trailing)
    _, mults = _over_common_unit([p._form[1] for p in coeffs])
    p_ints = [[v * m for v in p._form[0]] for p, m in zip(coeffs, mults)]
    _, (mr, ms) = _over_common_unit([clearing._form[1], s_poly._form[1]])
    r_ints = [v * mr for v in clearing._form[0]]
    s_ints = [v * ms for v in s_poly._form[0]]
    lists = [_list_mul(r_ints, p_ints[0])]
    for prev, cur in zip(p_ints, p_ints[1:]):
        acc = list(cur)
        _list_addmul(acc, 1, [i * v for i, v in enumerate(prev)][1:])
        out = _list_mul(r_ints, acc)
        _list_addmul(out, -1, _list_mul(s_ints, prev))
        lists.append(out)
    return [_from_ints(o, _ONE) for o in lists], clearing


def _quotients(polys: list[RatPoly], factor: RatPoly | None) -> list[RatPoly] | None:
    """Each polynomial divided by factor, None when factor is None or
    constant or fails to divide one of them exactly."""
    if factor is None or factor.degree < 1:
        return None
    quotients = []
    for p in polys:
        ints, content = p._form
        q = _int_divexact(ints, factor._form[0])
        if q is None:
            return None
        quotients.append(_scaled(q, content))
    return quotients


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
    from . import frobenius

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
    """Pair each target with its multiplicity m, read as gap - (n-1) when not given."""
    n = ode.order
    locs = [as_fraction(q) for q in targets]
    if len(set(locs)) != len(locs):
        raise ValueError("targets must be distinct")
    if multiplicities is not None:
        mults = [Fraction(m) for m in multiplicities]
        if len(mults) != len(locs):
            raise ValueError("one multiplicity per target is required")
        if any(m.denominator != 1 for m in mults):
            raise ValueError("multiplicities must be integers")
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        return [(q, int(m)) for q, m in zip(locs, mults)]
    from . import frobenius

    resolved = []
    for q in locs:
        sp = frobenius.classify_point(ode, q)
        if sp.kind is PointKind.ORDINARY:
            raise AlreadyIntegratedError(f"no singularity at {q} to remove")
        if sp.kind is PointKind.IRREGULAR:
            raise IrregularPointError(f"{q} is an irregular singular point")
        if sp.residual is not None:
            raise NotRemovableError(f"exponent gap at {q} is not rational",
                                    residual=sp.residual.pretty("s"))
        gap = max(sp.exponents) - min(sp.exponents)
        if gap.denominator != 1 or gap < n:
            raise NotRemovableError(
                f"exponent gap at {q} is not an integer >= {n}; "
                "supply multiplicities explicitly",
                gap=str(gap),
            )
        resolved.append((q, int(gap) - (n - 1)))
    return resolved


def undeform(
    ode: LinearODE,
    targets=None,
    *,
    multiplicities=None,
    max_slack: int = 1,
) -> UndeformResult:
    """Remove apparent singularities by inverse differentiation.

    The antecedent is back-substituted through deform's identities (see
    the module docstring), so the only unknowns are the scale a of its
    trailing coefficient a M and the content multiplier c.  c is a
    polynomial because the input's canonical form may have lost content
    that deform produced.  Each candidate is still checked against the
    input through deform's construction, because canonicalizing it may
    strip content of its own.

    targets: distinct locations to remove; default is every finite apparent
    point whose exponents fit the derivative ladder {0..n-2, n-1+m}.
    multiplicities: positive integer root multiplicities of the
    antecedent's trailing coefficient at the targets; for explicit
    targets each defaults to the ladder's reading of the exponent gap,
    m = gap - (n - 1).
    max_slack: highest degree tried for the content multiplier c (see
    the module docstring), lowest first; at least 0.

    No parameter-specialization search is attempted: when the exact
    system for a and c only has the trivial solution the removal may
    still become possible after specializing free parameters of the
    equation, and that is reported as NotRemovable rather than explored.
    """
    n = ode.order
    if n < 2:
        raise ValueError("inverse differentiation needs order >= 2")
    for name, value in (("targets", targets), ("multiplicities", multiplicities)):
        # a string is iterable too, but "15" is not the list [1, 5]
        if isinstance(value, str):
            raise TypeError(f"{name} must be a collection, not the string {value!r}")
    if max_slack < 0:
        raise ValueError(f"max_slack must be at least 0, got {max_slack}")
    if targets is None:
        inferred = _infer_targets(ode)
        if not inferred:
            raise NothingToRemoveError("no apparent singular points found")
        if multiplicities is not None:
            inferred = _validate_targets(ode, [q for q, _ in inferred], multiplicities)
    else:
        targets = list(targets)
        if not targets:
            raise NothingToRemoveError("empty target list")
        inferred = _validate_targets(ode, targets, multiplicities)

    m_star = RatPoly.from_roots([q for q, m in inferred for _ in range(m)])
    clearing = RatPoly.from_roots([q for q, _m in inferred])
    s_poly = exact_div(m_star.derivative() * clearing, m_star)
    d_in = ode.coeffs

    # back-substitute once per basis multiplier c = z^slack, kept for the
    # larger slacks: chains[i][j] is P_j for c = z^i, and column 1 + i
    # lists the conditions on it (P_n, then every remainder).  Column 0
    # is the scalar a on M; each slack level appends its column last.
    chains, columns, tried = [], [[-m_star] + [RatPoly()] * (n + 1)], 0
    for slack in range(max_slack + 1):
        chain, rems, prev = [], [], RatPoly()
        for j in range(n + 1):
            quot, rem = divmod(RatPoly.monomial(slack) * d_in[j] + s_poly * prev, clearing)
            prev = quot - prev.derivative()
            chain.append(prev)
            rems.append(rem)
        chains.append(chain)
        columns.append([prev] + rems)
        rows = [
            [col[k].coeff(r) for col in columns]
            for k in range(n + 2)
            for r in range(max(col[k].degree for col in columns) + 1)
        ]

        # the previous level's vectors come back zero-padded and were
        # tried there (see the module docstring): try what this level adds
        basis = nullspace_basis(rows, slack + 2)
        for vec in basis[tried:]:
            if vec[0] == 0:  # a = 0 zeroes the trailing coefficient: no antecedent
                continue
            polys = [sum((c * ch[j] for c, ch in zip(vec[1:], chains)), RatPoly()) for j in range(n)]
            polys.append(vec[0] * m_star)
            candidate = make_ode(polys)
            # deform's predicate without its root search for new_apparent
            if make_ode(_cleared(candidate)[0]) == ode:
                return UndeformResult(
                    ode=candidate,
                    removed_points=tuple(sorted(q for q, _m in inferred)),
                    free_parameters=0,
                    solutions=(candidate,),
                )
        tried = len(basis)
    raise NotRemovableError(
        "no antecedent within the degree bounds; removal may require "
        "specifying some parameters of the equation, and that search is "
        "not attempted",
        targets=",".join(str(q) for q, _m in inferred),
        max_slack=max_slack,
    )

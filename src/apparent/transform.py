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

The multiplier c puts back the content that canonicalizing deform's
output divided out (a gap-2 point of an earlier stage dies that way);
its degree is the slack, tried from 0 up.  Everything is linear in c, so
back-substitution, one division by R per P_j, runs once per multiplier
z^i, and what is left is a small exact system for a and the
coefficients of c (slack + 2 columns): every division must be exact and
P_n must equal a M.  It runs on integer lists: R, M and S are products
of the factors v z - u of the targets q = u/v, the D_j share one unit,
and each division is a pseudo-division, so each chain (one column) is
off by a constant, which the nullspace basis scales back.  A level
appends one column and rows zero in every earlier column; the reduced
form of a column prefix is the prefix of the full one, so a level adds
at most one basis vector, the last (a's column is never free: M is
nonzero).  Every vector of an earlier level comes back with a = 0, or
the search would have stopped at that level, so the last vector having
a != 0 is the whole test, and that vector combines the chains into a
candidate.

No candidate has to be deformed to be checked.  deform's output is the
canonical form of the raw coefficients Q(P), and Q(g P) = g Q(P) for
every nonzero polynomial g, so deform ignores a polynomial factor of its
input, such as the content make_ode divides out of a candidate.  As
R Q(P) = c D for the assembled P, every candidate deforms to
make_ode(D), which is D, as every equation is canonical: the first
candidate is the antecedent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

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
    _common_ints,
    _from_ints,
    _int_divexact,
    _list_addmul,
    _list_mul,
    _pseudo_divmod,
    _root_ints,
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

    ode: the antecedent, canonicalized.  Its deform is the input by
    deform's identities, without deforming it (see the module docstring).
    removed_points: the targets, sorted.
    """

    ode: LinearODE
    removed_points: tuple[Fraction, ...]


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
    lists, clearing = _cleared(ode.coeffs)
    quotients = _quotients(lists, ode._memo.get(_CLEARING))
    out = make_ode([_from_ints(o, _ONE) for o in (lists if quotients is None else quotients)])
    out._memo[_CLEARING] = clearing
    n = ode.order
    created = tuple((q, n - 1 + m) for q, m in _accessory_roots(ode, clearing))
    return DeformResult(ode=out, new_apparent=created, clearing_factor=clearing)


def _cleared(coeffs: tuple[RatPoly, ...]) -> tuple[list[list[int]], RatPoly]:
    """O_0, ..., O_n of the coefficients P_0, ..., P_n as integer lists,
    up to one nonzero constant, and R = radical(P_n).

    The P_j are put over the common unit of their contents and R, S
    over theirs, so O_0 = R P_0 and O_j = R (P_j + P_{j-1}') - S P_{j-1}
    are built by integer list products.  The dropped constant is one
    for all O_j, which make_ode's canonical form does not see.
    """
    trailing = coeffs[-1]
    clearing = radical(trailing)
    s_poly = exact_div(trailing.derivative() * clearing, trailing)
    _, p_ints = _common_ints(coeffs)
    _, (r_ints, s_ints) = _common_ints((clearing, s_poly))
    lists = [_list_mul(r_ints, p_ints[0])]
    for prev, cur in zip(p_ints, p_ints[1:]):
        acc = list(cur)
        _list_addmul(acc, 1, [i * v for i, v in enumerate(prev)][1:])
        out = _list_mul(r_ints, acc)
        _list_addmul(out, -1, _list_mul(s_ints, prev))
        lists.append(out)
    return lists, clearing


def _quotients(lists: list[list[int]], factor: RatPoly | None) -> list[list[int]] | None:
    """Each integer list divided over Z by factor's primitive part, None
    when factor is None or constant or fails to divide one of them
    exactly (over Z exactly when over Q, by Gauss's lemma)."""
    if factor is None or factor.degree < 1:
        return None
    quotients = []
    for ints in lists:
        q = _int_divexact(ints, factor._form[0])
        if q is None:
            return None
        quotients.append(q)
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


def _targets(ode: LinearODE, targets, multiplicities) -> list[tuple[Fraction, int]]:
    """Pair each removal target with its multiplicity m, the order of its
    root in the antecedent's trailing coefficient.

    targets default to every finite apparent point whose exponents fit
    the derivative ladder {0, 1, ..., n-2, n-1+m}; apparent points with
    any other exponent pattern need explicit targets and multiplicities.
    A multiplicity not given is read off the exponent gap as
    m = gap - (n - 1), the ladder's top exponent for a ladder point.
    """
    from . import frobenius

    n = ode.order
    if targets is None:
        ladder = tuple(range(n - 1))
        locs = []
        for root, _m in _leading_roots(ode)[0]:
            sp = frobenius.classify_point(ode, root)  # exponents ascending
            if sp.kind is PointKind.APPARENT:
                if sp.exponents[:-1] == ladder and sp.exponents[-1] >= n:
                    locs.append(root)
        if not locs:
            raise NothingToRemoveError("no apparent singular points found")
    else:
        locs = [as_fraction(q) for q in targets]
        if not locs:
            raise NothingToRemoveError("empty target list")
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

    The antecedent is back-substituted through deform's identities, and
    only the scale a of its trailing coefficient a M and the content
    multiplier c are solved for (see the module docstring).  Every
    candidate deforms to ode, which is canonical, so none is deformed:
    the first candidate is the antecedent.

    targets: distinct locations to remove; default is every finite apparent
    point whose exponents fit the derivative ladder {0..n-2, n-1+m}.
    multiplicities: positive integer root multiplicities of the
    antecedent's trailing coefficient at the targets; each defaults to
    the ladder's reading of the exponent gap, m = gap - (n - 1).
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
    resolved = _targets(ode, targets, multiplicities)

    # integer lists (see the module docstring): with q = u/v, R = prod
    # (v z - u), M = prod (v z - u)^m and S = M' R / M
    r_ints = _root_ints([q for q, _m in resolved])[0]
    m_ints = _root_ints([q for q, m in resolved for _ in range(m)])[0]
    s_ints = _int_divexact(_list_mul([i * v for i, v in enumerate(m_ints)][1:], r_ints), m_ints)
    _, d_ints = _common_ints(ode.coeffs)
    from . import _linalg

    # chains[i][j] is P_j for c = z^i, over the scale of the last
    # pseudo-division; column 1 + i lists the conditions on it (P_n, then
    # every remainder), column 0 is a on M; rows[k][r] is coefficient r of
    # condition k, and each slack level appends one entry to every row
    chains, lead = [], r_ints[-1]
    rows = [[[-v] for v in m_ints]] + [[] for _ in range(n + 1)]
    for slack in range(max_slack + 1):
        steps, p, scale = [], [], 1
        for d in d_ints:
            t = [0] * slack + [scale * v for v in d]
            _list_addmul(t, 1, _list_mul(s_ints, p))
            k, quot, rem = _pseudo_divmod(t, r_ints)
            _list_addmul(quot, -lead**k, [i * v for i, v in enumerate(p)][1:])
            p, scale = quot, scale * lead**k
            steps.append((p, rem, scale))
        chains.append([[v * (scale // s) for v in ints] for ints, _rem, s in steps])
        column = [chains[-1][-1]] + [[v * (scale // s) for v in rem] for _p, rem, s in steps]
        for group, entries in zip(rows, column):
            while entries and not entries[-1]:
                entries.pop()
            for r, row in enumerate(group):
                row.append(entries[r] if r < len(entries) else 0)
            group.extend([0] * (slack + 1) + [v] for v in entries[len(group):])

        # a vector of an earlier level has a = 0, else the search had
        # stopped there; a level's new vector comes last, and a = 0
        # zeroes the trailing coefficient: no antecedent
        basis = _linalg.nullspace_basis([row for group in rows for row in group], slack + 2)
        if basis and basis[-1][0]:
            vec = basis[-1]
            den = math.lcm(*[v.denominator for v in vec])
            w = [v.numerator * (den // v.denominator) for v in vec]
            accs = [[] for _ in range(n + 1)]  # P_n sums to w[0] M
            for wi, chain in zip(w[1:], chains):
                for acc, ints in zip(accs, chain):
                    _list_addmul(acc, wi, ints)
            return UndeformResult(
                ode=make_ode([_from_ints(acc, _ONE) for acc in accs]),
                removed_points=tuple(sorted(q for q, _m in resolved)),
            )
    raise NotRemovableError(
        "no antecedent within the degree bounds; removal may require "
        "specifying some parameters of the equation, and that search is "
        "not attempted",
        targets=",".join(str(q) for q, _m in resolved),
        max_slack=max_slack,
    )

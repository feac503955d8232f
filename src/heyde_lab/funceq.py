"""Finite-difference machinery for log-characteristic functions.

Given a conditionally symmetric canonical instance whose symmetrized
characteristic functions are strictly positive, the negative logarithms
phi_j satisfy a two-variable functional equation.  Repeated substitutions
with matched increments eliminate terms one at a time and leave triple
finite differences that must vanish identically; this module computes those
difference chains so the vanishing can be checked numerically on concrete
data.  A parallel chain applies to the independence equation of the derived
forms (M1, M2) and produces a function P that, when I + alpha is invertible
and the group has odd order, satisfies the quadratic functional equation
and hence vanishes on a finite group.

On a finite group every function is continuous and the neighbourhood
bookkeeping of the continuous setting collapses: all identities are checked
globally.  Each chain's increment ladder is defined once, as endomorphisms
of the adjoint.  Every difference runs on a GroupFunction's ``row``, its
values in element order: the chain functions and the residual scans climb
a ladder through its endomorphisms' index tables and the group's
translation rows.  A scan reports increments that replay to its residual.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .distributions import Distribution, GroupFunction, char_values_list
from .groups import (
    Endomorphism,
    FiniteAbelianGroup,
    GroupElement,
    identity_endomorphism,
)

#: Residual tolerance for difference chains.  Looser than the predicate
#: tolerance: each residual accumulates three logarithms and three
#: differences, an error budget of roughly ten floating operations.
CHAIN_TOL = 1e-8

#: Full increment enumeration is used when |Y|^3 stays below this bound;
#: larger groups fall back to randomized triples.
FULL_ENUMERATION_LIMIT = 10**5

#: Seeded random trials, and their seed, of the residual scans above it.
RANDOM_TRIPLES = 10**4
RANDOM_SEED = 0


class CharDomainError(ValueError):
    """A characteristic value is outside the domain of the logarithm."""


def zero_function(group: FiniteAbelianGroup) -> GroupFunction:
    return GroupFunction.from_row(group, [0.0] * group.order)


def finite_difference(f: GroupFunction, h: GroupElement) -> GroupFunction:
    """(D_h f)(y) = f(y + h) - f(y)."""
    if h.group != f.group:
        raise ValueError("increment outside the function's group")
    return GroupFunction.from_row(f.group, _difference(f.row, f.group.translation_row(h.index)))


def neg_log_char(mu: Distribution) -> GroupFunction:
    """phi(y) = -log(mu-hat(y)) for strictly positive real characteristic
    values.

    Intended for symmetrized inputs (mu * reflect(mu)), whose transform is
    |mu-hat|^2 >= 0.  Raises CharDomainError naming the offending character
    index when a value vanishes (below 1e-9) or has a non-real component.
    """
    group = mu.group
    out = []
    for y, v in zip(group.elements, char_values_list(mu)):
        if abs(v.imag) > 1e-9:
            raise CharDomainError(
                f"characteristic value {v} at y={y} is not real"
            )
        if v.real <= 1e-9:
            raise CharDomainError(
                f"characteristic value {v.real} at y={y} is not strictly positive"
            )
        val = -math.log(v.real)
        if -1e-9 < val < 0.0:
            val = 0.0
        out.append(val)
    out[0] = 0.0
    return GroupFunction.from_row(group, out)


def _heyde_ladder(alpha_adj: Endomorphism) -> tuple[tuple, tuple]:
    """Increment ladders of the symmetry chain, for phi1 and for phi2.

    Rung (endo, k) of a ladder takes the difference along endo(k-th
    increment); the three rungs are applied in order.
    """
    ident = identity_endomorphism(alpha_adj.group)
    i_plus = ident + alpha_adj
    i_minus = ident - alpha_adj
    return (
        ((i_plus, 0), (2 * ident, 1), (i_minus, 2)),
        ((2 * alpha_adj, 0), (i_plus, 1), (-i_minus, 2)),
    )


def _m_forms_ladder(alpha_adj: Endomorphism) -> tuple[tuple, tuple]:
    """Increment ladders of the independence chain, for P and for Q."""
    ident = identity_endomorphism(alpha_adj.group)
    i_plus = ident + alpha_adj
    return (
        ((i_plus, 0), (2 * ident, 1), (ident, 2)),
        ((-2 * alpha_adj, 0), (-i_plus, 1), (ident, 3)),
    )


def _climb(
    group: FiniteAbelianGroup, values: list[float], ladder: tuple, increments: Sequence[int]
) -> list[float]:
    """f's values after the ladder's differences, given the increments' indices."""
    for endo, k in ladder:
        values = _difference(values, group.translation_row(endo.table[increments[k]]))
    return values


def _chain(f: GroupFunction, ladder: tuple, increments: Sequence[GroupElement]) -> GroupFunction:
    """The ladder's iterated difference of f along the increments."""
    if any(h.group != f.group for h in increments):
        raise ValueError("increment outside the function's group")
    return GroupFunction.from_row(f.group, _climb(f.group, f.row, ladder, [h.index for h in increments]))


def heyde_difference_chain(
    phi1: GroupFunction,
    phi2: GroupFunction,
    alpha_adj: Endomorphism,
    k1: GroupElement,
    k2: GroupElement,
    k3: GroupElement,
) -> tuple[GroupFunction, GroupFunction]:
    """Triple-difference residuals of the symmetry equation.

    The three substitution rounds use the increment ladder

        l11 = (I + a~) k1,  l12 = 2 a~ k1,
        l21 = 2 k2,         l22 = (I + a~) k2,
        l31 = (I - a~) k3,  l32 = -(I - a~) k3,

    and return (D_{l31} D_{l21} D_{l11} phi1,  D_{l32} D_{l22} D_{l12} phi2).
    Both vanish identically when phi1, phi2 come from a conditionally
    symmetric instance with strictly positive characteristic functions.
    """
    ladder1, ladder2 = _heyde_ladder(alpha_adj)
    increments = (k1, k2, k3)
    return _chain(phi1, ladder1, increments), _chain(phi2, ladder2, increments)


@dataclass
class MFormsChainResult:
    """Outcome of the independence-equation chain for the derived forms."""

    p: GroupFunction
    q: GroupFunction
    residual_p: GroupFunction
    residual_q: GroupFunction


def quadratic_candidate(
    psi1: GroupFunction, psi2: GroupFunction, alpha_adj: Endomorphism
) -> tuple[GroupFunction, GroupFunction]:
    """The diagonal parts P(y) = psi1((I+a~)y) + psi2(2 a~ y) and
    Q(y) = psi1(2y) + psi2((I+a~)y) of the independence equation."""
    group = psi1.group
    v1, v2 = psi1.row, psi2.row
    ident = identity_endomorphism(group)
    i_plus, two_a, two = (ident + alpha_adj).table, (2 * alpha_adj).table, (2 * ident).table
    return (
        GroupFunction.from_row(group, [v1[i] + v2[j] for i, j in zip(i_plus, two_a)]),
        GroupFunction.from_row(group, [v1[i] + v2[j] for i, j in zip(two, i_plus)]),
    )


def m_forms_difference_chain(
    psi1: GroupFunction,
    psi2: GroupFunction,
    alpha_adj: Endomorphism,
    h1: GroupElement,
    h2: GroupElement,
    h: GroupElement,
    k: GroupElement,
) -> MFormsChainResult:
    """Difference chain for the independence equation of (M1, M2).

    Two substitution rounds cancel the mixed term and leave

        residual_p = D_h  D_{2 h2}       D_{(I+a~) h1}  P
        residual_q = D_k  D_{-(I+a~) h2} D_{-2 a~ h1}   Q

    which vanish whenever the independence equation holds.  On odd-order
    groups with Ker(I + alpha) = {0} the composite increments sweep the
    whole group, so every third difference of P vanishes and P satisfies
    the quadratic identity (see :func:`quadratic_check`).
    """
    p, q = quadratic_candidate(psi1, psi2, alpha_adj)
    ladder_p, ladder_q = _m_forms_ladder(alpha_adj)
    increments = (h1, h2, h, k)
    return MFormsChainResult(
        p, q, _chain(p, ladder_p, increments), _chain(q, ladder_q, increments)
    )


def quadratic_check(phi: GroupFunction, tol: float = 1e-9) -> bool:
    """Whether phi(u+v) + phi(u-v) == 2*(phi(u) + phi(v)) for all u, v."""
    group = phi.group
    vals = phi.row
    neg = group.negation_table()
    for u, pu in enumerate(vals):
        row = group.translation_row(u)
        for v, minus_v in enumerate(neg):
            if not abs(vals[row[v]] + vals[row[minus_v]] - 2.0 * (pu + vals[v])) <= tol:
                return False
    return True


@dataclass
class QuadraticVanishingRecord:
    """Audit trail showing that quadratic functions vanish on the group.

    Any solution of the quadratic identity scales as phi(n*y) = c_n phi(y)
    with c_1 = 1, c_2 = 4 (set u = v = y) and c_{n+1} = 2 c_n + 2 - c_{n-1}
    (set u = n*y, v = y).  The steps list records (n, c_n) together with the
    target n^2; since N*y = 0 for N the group order, phi(0) = c_N phi(y)
    with c_N = N^2 > 0, forcing phi to vanish identically.
    """

    group: FiniteAbelianGroup
    steps: tuple[tuple[int, int, int], ...]
    valid: bool

    @property
    def conclusion(self) -> str:
        n = self.group.order
        if self.valid:
            return (
                f"scaling coefficients match n^2 up to n={n}; "
                f"phi(0) = {n * n} * phi(y) forces phi == 0"
            )
        return "scaling recurrence failed; record is inconsistent"


def quadratic_vanishing(group: FiniteAbelianGroup) -> QuadraticVanishingRecord:
    """Derive, step by step, that the only solution of the quadratic
    identity on the group is the zero function."""
    steps = []
    c_prev, c_cur = 0, 1  # c_0, c_1
    steps.append((1, c_cur, 1))
    for n in range(1, group.order):
        c_next = 2 * c_cur + 2 - c_prev
        steps.append((n + 1, c_next, (n + 1) ** 2))
        c_prev, c_cur = c_cur, c_next
    valid = all(c == target for (_n, c, target) in steps)
    return QuadraticVanishingRecord(group, tuple(steps), valid)


def _difference(values: list[float], row: list[int]) -> list[float]:
    """Values of D_h f, given f's values and the translation row of h."""
    return [values[t] - v for t, v in zip(row, values)]


def _max_residual(
    group: FiniteAbelianGroup,
    chains: Sequence[tuple[list[float], tuple]],
    draws: int,
) -> tuple[float, tuple[GroupElement, ...]]:
    """Largest |D_{l3} D_{l2} D_{l1} f| over the chains (f's values, ladder),
    and ``draws`` increments on which the chains replay to it.

    A residual depends on the increments only through the ladder values, so
    the exhaustive scan runs over the distinct values of each rung, in
    element order; each worst rung value maps back to its first preimage in
    the rung's table, and an increment the worst ladder never reads is 0.
    Above FULL_ENUMERATION_LIMIT, each of RANDOM_TRIPLES trials, seeded with
    RANDOM_SEED, draws ``draws`` increments, and the worst trial's are
    reported.
    """
    n = group.order
    worst, increments = 0.0, [0] * draws
    if n**3 <= FULL_ENUMERATION_LIMIT:
        rows = [group.translation_row(i) for i in range(n)]
        for values, ladder in chains:
            ones, twos, threes = (list(dict.fromkeys(e.table)) for e, _k in ladder)
            for l1 in ones:
                d1 = _difference(values, rows[l1])
                for l2 in twos:
                    d2 = _difference(d1, rows[l2])
                    for l3 in threes:
                        r = max(map(abs, _difference(d2, rows[l3])))
                        if r > worst:
                            worst, best = r, (ladder, (l1, l2, l3))
        if worst:
            for (endo, k), value in zip(*best):
                increments[k] = endo.table.index(value)
    else:
        rng = random.Random(RANDOM_SEED)
        for _ in range(RANDOM_TRIPLES):
            drawn = [rng.choice(range(n)) for _ in range(draws)]
            r = max(
                max(map(abs, _climb(group, values, ladder, drawn)))
                for values, ladder in chains
            )
            if r > worst:
                worst, increments = r, drawn
    return worst, tuple(group.elements[i] for i in increments)


def max_chain_residual(
    phi1: GroupFunction,
    phi2: GroupFunction,
    alpha_adj: Endomorphism,
) -> tuple[float, tuple[GroupElement, ...]]:
    """Largest symmetry-chain residual over increment triples.

    Exhaustive over the distinct ladder values of
    :func:`heyde_difference_chain` whenever |Y|^3 is below
    FULL_ENUMERATION_LIMIT, otherwise over RANDOM_TRIPLES random triples
    (k1, k2, k3) drawn with RANDOM_SEED.
    """
    ladder1, ladder2 = _heyde_ladder(alpha_adj)
    chains = [(phi1.row, ladder1), (phi2.row, ladder2)]
    return _max_residual(phi1.group, chains, 3)


def max_m_forms_residual(
    psi1: GroupFunction,
    psi2: GroupFunction,
    alpha_adj: Endomorphism,
) -> tuple[float, tuple[GroupElement, ...]]:
    """Largest independence-chain residual over increments, as in
    :func:`max_chain_residual`, reporting the increments (h1, h2, h, k) of
    :func:`m_forms_difference_chain`."""
    p, q = quadratic_candidate(psi1, psi2, alpha_adj)
    ladder_p, ladder_q = _m_forms_ladder(alpha_adj)
    chains = [(p.row, ladder_p), (q.row, ladder_q)]
    return _max_residual(psi1.group, chains, 4)


def max_third_difference(f: GroupFunction) -> float:
    """max over h, y of |D_h^3 f(y)|."""
    group = f.group
    base = f.row
    worst = 0.0
    for h in range(group.order):
        row = group.translation_row(h)
        values = base
        for _ in range(3):
            values = _difference(values, row)
        worst = max(worst, max(map(abs, values)))
    return worst


def chain_report(
    max_residual: float,
    worst_increments: Sequence[GroupElement],
    quadratic: bool | None,
) -> dict:
    """JSON-ready chain report."""
    return {
        "max_residual": max_residual,
        "worst_increments": [list(h.coords) for h in worst_increments],
        "quadratic": quadratic,
    }

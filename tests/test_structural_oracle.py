"""An oracle for grid_scan that shares no code with search.

Where alpha - I is an automorphism, the joint cell (s, t) = (x + y, x + alpha y)
of each pair (x, y) has exactly one preimage, so P(s, t) = P(s, -t) on every
cell says mu1(x) mu2(y) = mu1(x') mu2(y') for the involution
sigma(x, y) = (x', y'), the preimage of (s, -t).  A support pair (A, B) is
therefore feasible exactly when sigma maps A x B onto itself, and then the
uniform laws on A and B are a symmetric pair.  More generally, laws on A and B
with numerators wa and wb are symmetric exactly when sigma maps A x B onto
itself and wa(x) wb(y) = wa(x') wb(y') on every (x, y) in A x B.  For
alpha = -I, sigma swaps x and y, so the symmetric pairs are exactly those with
mu1 = mu2.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest

from heyde_lab.distributions import Distribution
from heyde_lab.groups import make_endomorphism, make_group
from heyde_lab.predicates import canonical_instance, is_conditionally_symmetric
from heyde_lab.search import SearchConfig, grid_scan

CAPS = SearchConfig(support_size_cap=3, denominator_cap=6, random_trials=0)


def _sigma(group, alpha):
    """sigma as a dict on index pairs, read off alpha's index table."""
    elements, act = group.elements, alpha.table
    cells = {}
    for x, y in product(elements, repeat=2):
        cells[x + y, x + elements[act[y.index]]] = (x.index, y.index)
    assert len(cells) == group.order**2  # one preimage per cell
    return {pair: cells[s, -t] for (s, t), pair in cells.items()}


def _supports(group):
    return [c for m in range(1, CAPS.support_size_cap + 1)
            for c in combinations(range(group.order), m)]


@pytest.mark.parametrize(
    "orders, matrix",
    [([5], [[2]]), ([7], [[3]]), ([3, 3], [[0, 1], [2, 0]])],
)
def test_feasible_support_pairs_are_the_sigma_invariant_ones(orders, matrix):
    group = make_group(orders)
    alpha = make_endomorphism(group, matrix)
    sigma = _sigma(group, alpha)
    invariant = set()
    for a, b in product(_supports(group), repeat=2):
        cells = set(product(a, b))
        if {sigma[p] for p in cells} == cells:
            invariant.add((a, b))
    hits = grid_scan(group, alpha, CAPS).hits
    cap = CAPS.support_size_cap
    within_cap = [h for h in hits if len(h.mu1.indices) <= cap and len(h.mu2.indices) <= cap]
    assert {(h.mu1.indices, h.mu2.indices) for h in within_cap} == invariant
    uniform = {(h.mu1.indices, h.mu2.indices) for h in within_cap
               if set(h.mu1.numerators) == set(h.mu2.numerators) == {1}}
    assert uniform == invariant


#: The cases of the test above, where alpha - I is an automorphism.
SIGMA_CASES = [([5], [[2]]), ([7], [[3]]), ([3, 3], [[0, 1], [2, 0]])]


@pytest.mark.parametrize("orders, matrix", SIGMA_CASES)
def test_uniform_pairs_are_symmetric_exactly_on_sigma_invariant_supports(orders, matrix):
    """The exact predicate, without the scan: the uniform laws on a support
    pair within the cap are conditionally symmetric exactly when sigma maps
    the pair's cells onto themselves."""
    group = make_group(orders)
    alpha = make_endomorphism(group, matrix)
    sigma = _sigma(group, alpha)
    laws = {a: Distribution.from_weights(group, list(a), [1] * len(a)) for a in _supports(group)}
    verdicts = set()
    for (a, mu1), (b, mu2) in product(laws.items(), repeat=2):
        cells = set(product(a, b))
        invariant = {sigma[p] for p in cells} == cells
        inst = canonical_instance(group, alpha, mu1, mu2)
        assert is_conditionally_symmetric(inst) == invariant, (a, b)
        verdicts.add(invariant)
    assert verdicts == {True, False}


def _law(mu):
    return mu.indices, tuple(Fraction(w, mu.denominator) for w in mu.numerators)


def test_minus_identity_hits_are_the_equal_pairs():
    group = make_group([9])
    hits = grid_scan(group, make_endomorphism(group, [[-1]]), CAPS).hits
    assert all(_law(h.mu1) == _law(h.mu2) for h in hits)
    # every law within the caps, and the uniform law on the whole group, the
    # one coset above the support cap
    laws = {(tuple(range(9)), (Fraction(1, 9),) * 9)}
    for support in _supports(group):
        for weights in product(range(1, 7), repeat=len(support)):
            if sum(weights) <= CAPS.denominator_cap:
                laws.add((support, tuple(Fraction(w, sum(weights)) for w in weights)))
    assert sorted(_law(h.mu1) for h in hits) == sorted(laws)


#: The grid of the weighted tests: supports of at most 2 points, denominators
#: of at most 3.
SMALL_CAPS = SearchConfig(support_size_cap=2, denominator_cap=3, random_trials=0)


def _grid_laws(group):
    """(support, numerators) of every law within SMALL_CAPS, each once."""
    laws = set()
    for m in range(1, SMALL_CAPS.support_size_cap + 1):
        for support in combinations(range(group.order), m):
            for weights in product(range(1, SMALL_CAPS.denominator_cap + 1), repeat=m):
                if sum(weights) <= SMALL_CAPS.denominator_cap and math.gcd(*weights) == 1:
                    laws.add((support, weights))
    return sorted(laws)


def _weighted_symmetric(sigma, law1, law2):
    """sigma maps A x B onto itself and wa(x) wb(y) = wa(x') wb(y') on it."""
    wa, wb = dict(zip(*law1)), dict(zip(*law2))
    for x, y in product(wa, wb):
        x2, y2 = sigma[x, y]
        if x2 not in wa or y2 not in wb or wa[x] * wb[y] != wa[x2] * wb[y2]:
            return False
    return True


#: Z9 with alpha = 2: alpha - I = 1 is invertible, I + alpha = 3 is not.
WEIGHTED_CASES = SIGMA_CASES + [([9], [[2]])]


@pytest.mark.parametrize("orders, matrix", WEIGHTED_CASES)
def test_weighted_pairs_are_symmetric_exactly_on_sigma_balanced_weights(orders, matrix):
    """The exact predicate on every pair of laws in the caps-2/3 grid agrees
    with the weighted sigma condition."""
    group = make_group(orders)
    alpha = make_endomorphism(group, matrix)
    sigma = _sigma(group, alpha)
    laws = {law: Distribution.from_weights(group, *law) for law in _grid_laws(group)}
    verdicts, non_uniform = set(), False
    for (law1, mu1), (law2, mu2) in product(laws.items(), repeat=2):
        expected = _weighted_symmetric(sigma, law1, law2)
        inst = canonical_instance(group, alpha, mu1, mu2)
        assert is_conditionally_symmetric(inst) == expected, (law1, law2)
        verdicts.add(expected)
        non_uniform |= expected and set(law1[1] + law2[1]) != {1}
    assert verdicts == {True, False}
    if orders == [9]:
        assert non_uniform


def test_weighted_oracle_gives_the_grid_hits_with_cosets():
    """On Z9 with alpha = 2 and caps 2/3, the scan's grid hits are exactly
    the candidate pairs that meet the weighted sigma condition, where the
    candidates are the grid's laws and the uniform laws on the cosets of
    {0, 3, 6} and on Z9 itself, the cosets larger than the support cap."""
    group = make_group([9])
    alpha = make_endomorphism(group, [[2]])
    sigma = _sigma(group, alpha)
    cosets = {tuple(sorted((x + h) % 9 for h in (0, 3, 6))) for x in range(9)}
    cosets.add(tuple(range(9)))
    candidates = _grid_laws(group) + [(c, (1,) * len(c)) for c in cosets]
    expected = sorted(
        (law1, law2) for law1, law2 in product(candidates, repeat=2)
        if _weighted_symmetric(sigma, law1, law2)
    )
    hits = grid_scan(group, alpha, SMALL_CAPS).hits
    found = sorted(((h.mu1.indices, h.mu1.numerators), (h.mu2.indices, h.mu2.numerators))
                   for h in hits)
    assert found == expected
    assert sum(len(a) > 2 or len(b) > 2 for (a, _), (b, _) in found) == 4


def _nullspace(rows, width):
    """A basis of {v : row . v = 0 for every row}, by exact Fraction
    elimination to reduced row echelon form."""
    rows = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    for col in range(width):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if r is None:
            continue
        top = len(pivots)
        rows[top], rows[r] = rows[r], rows[top]
        rows[top] = [c / rows[top][col] for c in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[top])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            v[col] = -row[free]
        basis.append(v)
    return basis


def _log_rows(sigma, a, b):
    """The log-linear sigma-pair system on A x B: one row per cell, in the
    unknowns log wa (positions of A), then log wb (positions of B), reading
    log wa(x) + log wb(y) - log wa(x') - log wb(y') = 0."""
    pos_a, pos_b = {x: i for i, x in enumerate(a)}, {y: len(a) + j for j, y in enumerate(b)}
    rows = []
    for x, y in product(a, b):
        x2, y2 = sigma[x, y]
        row = [0] * (len(a) + len(b))
        row[pos_a[x]] += 1
        row[pos_b[y]] += 1
        row[pos_a[x2]] -= 1
        row[pos_b[y2]] -= 1
        rows.append(row)
    return rows


def _powers_of_two(group, a, b, v):
    """The laws on A and B with weights 2^(v - min v), v an integer vector
    over the positions of A, then B."""
    low = min(v)
    wa, wb = [2 ** (c - low) for c in v[:len(a)]], [2 ** (c - low) for c in v[len(a):]]
    return Distribution.from_weights(group, list(a), wa), Distribution.from_weights(group, list(b), wb)


#: (orders, matrix, feasible support pairs within the cap, those of nullity
#: above 2).  I + alpha is invertible in the first four, not on Z9 alpha = 2.
NULLITY_CASES = [
    ([5], [[2]], 5, 0),
    ([7], [[3]], 7, 0),
    ([13], [[5]], 13, 0),
    ([3, 3], [[0, 1], [2, 0]], 9, 0),
    ([9], [[2]], 21, 12),
]


@pytest.mark.parametrize("orders, matrix, feasible, above_two", NULLITY_CASES)
def test_log_linear_nullity_on_feasible_support_pairs(orders, matrix, feasible, above_two):
    """On each sigma-invariant support pair within the cap, the log-linear
    system has nullity 2 (the constant directions on A and on B) wherever
    I + alpha is invertible, and more on some pair on Z9 with alpha = 2.
    The exact predicate agrees with the rank: the laws with weights 2^v are
    symmetric for each null vector v of a basis, and not for a unit vector
    outside the null space.  The grid's hits within the cap lie on exactly
    these pairs, and a hit with unequal weights only on a pair of nullity
    above 2."""
    group = make_group(orders)
    alpha = make_endomorphism(group, matrix)
    sigma = _sigma(group, alpha)
    nullity = {}
    for a, b in product(_supports(group), repeat=2):
        cells = set(product(a, b))
        if {sigma[p] for p in cells} != cells:
            continue
        rows, width = _log_rows(sigma, a, b), len(a) + len(b)
        basis = _nullspace(rows, width)
        nullity[a, b] = len(basis)
        for v in basis:
            scale = math.lcm(*(c.denominator for c in v))
            mu1, mu2 = _powers_of_two(group, a, b, [int(c * scale) for c in v])
            assert is_conditionally_symmetric(canonical_instance(group, alpha, mu1, mu2)), (a, b, v)
        for i in range(width):
            if any(row[i] for row in rows):  # the unit vector at i is not a null vector
                unit = [int(j == i) for j in range(width)]
                mu1, mu2 = _powers_of_two(group, a, b, unit)
                inst = canonical_instance(group, alpha, mu1, mu2)
                assert not is_conditionally_symmetric(inst), (a, b, i)
    assert min(nullity.values()) == 2
    assert (len(nullity), sum(k > 2 for k in nullity.values())) == (feasible, above_two)
    cap = CAPS.support_size_cap
    for h in grid_scan(group, alpha, CAPS).hits:
        a, b = h.mu1.indices, h.mu2.indices
        if len(a) <= cap and len(b) <= cap:
            assert (a, b) in nullity
            if len(set(h.mu1.numerators + h.mu2.numerators)) > 1:
                assert nullity[a, b] > 2, (a, b)

"""Metamorphic relations of conditional symmetry.

With L1 = x1 + x2 and L2 = x1 + alpha x2 for an automorphism alpha, each
relation maps a pair (mu1, mu2) to one whose verdict follows from the
original's:

    R1  translation: (mu1 - alpha b, mu2 + b) leaves L2 as it is and moves
        L1 by (I - alpha) b;
    R2  an automorphism gamma with gamma alpha = alpha gamma: (gamma mu1,
        gamma mu2) maps (L1, L2) to (gamma L1, gamma L2);
    R3  inverse swap: (mu2, mu1) with alpha^-1 keeps L1 and maps L2 to
        alpha^-1 L2;
    R4  a quotient map pi with pi alpha = alpha_Y pi maps symmetric pairs to
        symmetric pairs (one direction only);
    R5  products: pairs on X with alpha and on Y with beta give a pair on
        X x Y with alpha + beta that is symmetric exactly when both are.

Each pool mixes random pairs, whose verdict the predicate gives on the
original, with pairs whose verdict is known by construction: iid laws on
Ker(I + alpha), where alpha acts as -I; laws on the elements of order at
most 2; and pairs with one point mass, on which L1 determines L2, so that
they are symmetric exactly when every value of L2 has order at most 2.
The relations then also hold the predicate to those verdicts.  The scans
are held to R1, R2 and R4 on their own hits.
"""

import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from heyde_lab.distributions import (
    is_idempotent_shift,
    make_distribution,
    point_mass,
    push_forward,
    shift,
)
from heyde_lab.groups import make_endomorphism, make_group, scaling_endomorphism
from heyde_lab.predicates import canonical_instance, is_conditionally_symmetric
from heyde_lab.search import (
    SearchConfig,
    grid_scan,
    padic_scan,
    random_automorphism,
    random_distribution,
)

#: (cyclic orders, alpha's matrix, or None for a random automorphism)
INSTANCES = [
    ([5], [[2]]),
    ([9], [[8]]),
    ([9], [[2]]),
    ([15], [[7]]),
    ([8], [[3]]),
    ([12], [[5]]),
    ([3, 3], None),
    ([4, 2], None),
    ([2, 6], None),
]


def _instance(rng, choices=INSTANCES):
    orders, matrix = rng.choice(choices)
    group = make_group(orders)
    alpha = random_automorphism(group, rng) if matrix is None else make_endomorphism(group, matrix)
    return group, alpha


def _symmetric(group, alpha, mu1, mu2):
    return is_conditionally_symmetric(canonical_instance(group, alpha, mu1, mu2))


def _on(group, rng, points):
    """Random positive weights on the given elements."""
    weights = {x: Fraction(rng.randint(1, 5)) for x in points}
    total = sum(weights.values())
    return make_distribution(group, {x: w / total for x, w in weights.items()})


def _pool(group, alpha, rng):
    """(mu1, mu2, verdict) triples: the verdict is known by construction, or
    None for a random pair."""
    elements = group.elements
    kernel = [x for x in elements if (x + alpha(x)).is_zero]
    two_torsion = [x for x in elements if (x + x).is_zero]
    pool = []
    if len(kernel) > 1:
        mu = _on(group, rng, rng.sample(kernel, min(3, len(kernel))))
        pool.append((mu, mu, True))
    if len(two_torsion) > 1:
        pool.append((_on(group, rng, two_torsion), _on(group, rng, two_torsion[:2]), True))
    for _ in range(3):
        # a point mass at a: L1 = a + x2 determines x2, so L2 = a + alpha x2 is
        # determined by L1, and the pair is symmetric iff 2 L2 = 0 throughout
        a = rng.choice(elements)
        twin = rng.choice([y for y in elements if (a + alpha(y) + a + alpha(y)).is_zero])
        others = rng.sample(elements, rng.randint(1, 3))
        for support in ([twin], others):
            verdict = all((a + alpha(y) + a + alpha(y)).is_zero for y in support)
            pool.append((point_mass(group, a), _on(group, rng, support), verdict))
        # and mirrored: a point mass at b for x2, so L1 determines x1
        b = rng.choice(elements)
        support = rng.sample(elements, rng.randint(1, 3))
        verdict = all((x + alpha(b) + x + alpha(b)).is_zero for x in support)
        pool.append((_on(group, rng, support), point_mass(group, b), verdict))
    for _ in range(4):
        mu1, mu2 = (random_distribution(group, rng, 3, 6) for _ in range(2))
        pool.append((mu1, mu2, None))
    return pool


def _verdicts(group, alpha, rng):
    """(mu1, mu2, verdict) with the verdict by construction, else the predicate's."""
    for mu1, mu2, known in _pool(group, alpha, rng):
        yield mu1, mu2, _symmetric(group, alpha, mu1, mu2) if known is None else known


def _commuting_automorphism(group, alpha, rng):
    """A unit multiple of a power of alpha."""
    units = [u for u in range(1, group.exponent) if math.gcd(u, group.exponent) == 1]
    gamma = scaling_endomorphism(group, rng.choice(units))
    for _ in range(rng.randrange(3)):
        gamma = gamma @ alpha
    return gamma


@given(st.integers(0, 10**9))
def test_r1_translation_keeps_the_verdict(seed):
    rng = random.Random(seed)
    group, alpha = _instance(rng)
    for mu1, mu2, verdict in _verdicts(group, alpha, rng):
        b = rng.choice(group.elements)
        assert _symmetric(group, alpha, shift(mu1, -alpha(b)), shift(mu2, b)) == verdict


@given(st.integers(0, 10**9))
def test_r2_commuting_automorphism_keeps_the_verdict(seed):
    rng = random.Random(seed)
    group, alpha = _instance(rng)
    gamma = _commuting_automorphism(group, alpha, rng)
    assert gamma.is_auto and gamma @ alpha == alpha @ gamma
    for mu1, mu2, verdict in _verdicts(group, alpha, rng):
        image = (push_forward(mu1, gamma), push_forward(mu2, gamma))
        assert _symmetric(group, alpha, *image) == verdict


@given(st.integers(0, 10**9))
def test_r3_inverse_swap_keeps_the_verdict(seed):
    rng = random.Random(seed)
    group, alpha = _instance(rng)
    inverse = alpha.inverse()
    for mu1, mu2, verdict in _verdicts(group, alpha, rng):
        assert _symmetric(group, inverse, mu2, mu1) == verdict


def _reduce(mu, quotient):
    """The law of x mod m on Z_m, for mu on a cyclic group."""
    masses = {}
    for x, p in mu.probs.items():
        y = quotient.element([x.coords[0]])
        masses[y] = masses.get(y, 0) + p
    return make_distribution(quotient, masses)


@given(st.integers(0, 10**9))
def test_r4_quotients_keep_symmetry(seed):
    """Z_n -> Z_m for m | n, with alpha = c on both."""
    rng = random.Random(seed)
    n = rng.choice([8, 9, 12, 15, 18, 27])
    m = rng.choice([m for m in range(2, n) if n % m == 0])
    c = rng.choice([c for c in range(1, n) if math.gcd(c, n) == 1])
    group, quotient = make_group([n]), make_group([m])
    alpha, alpha_y = scaling_endomorphism(group, c), scaling_endomorphism(quotient, c)
    symmetric = [(mu1, mu2) for mu1, mu2, verdict in _verdicts(group, alpha, rng) if verdict]
    assert symmetric
    for mu1, mu2 in symmetric:
        assert _symmetric(quotient, alpha_y, _reduce(mu1, quotient), _reduce(mu2, quotient))


def _product(mu, nu, group):
    masses = {
        group.element(x.coords + y.coords): p * q
        for x, p in mu.probs.items()
        for y, q in nu.probs.items()
    }
    return make_distribution(group, masses)


@given(st.integers(0, 10**9))
def test_r5_products_are_symmetric_exactly_when_both_factors_are(seed):
    rng = random.Random(seed)
    small = [i for i in INSTANCES if len(i[0]) == 1 and i[0][0] <= 9]
    (x, alpha), (y, beta) = _instance(rng, small), _instance(rng)
    kx, ky = x.rank, y.rank
    group = make_group(x.cyclic_orders + y.cyclic_orders)
    block = make_endomorphism(
        group,
        [list(row) + [0] * ky for row in alpha.matrix]
        + [[0] * kx + list(row) for row in beta.matrix],
    )
    left = list(_verdicts(x, alpha, rng))
    right = list(_verdicts(y, beta, rng))
    for mu1, mu2, vx in rng.sample(left, 4):
        for nu1, nu2, vy in rng.sample(right, 4):
            pair = (_product(mu1, nu1, group), _product(mu2, nu2, group))
            assert _symmetric(group, block, *pair) == (vx and vy)


def _key(mu1, mu2):
    return mu1.indices, mu1.numerators, mu2.indices, mu2.numerators


@pytest.mark.parametrize(
    "orders, matrix",
    [([9], [[2]]), ([9], [[8]]), ([15], [[7]]), ([8], [[3]]), ([3, 3], [[1, 1], [0, 1]])],
)
def test_grid_hits_are_closed_under_r1_and_r2(orders, matrix):
    """Each image under R1 and R2 of a grid hit, or of an iid pair on two
    points of Ker(I + alpha), symmetric by construction, keeps its support
    size and weights, or stays uniform on a coset.  So it is a candidate of
    the same scan, and a hit of it."""
    group = make_group(orders)
    alpha = make_endomorphism(group, matrix)
    config = SearchConfig(support_size_cap=2, denominator_cap=4, random_trials=0)
    hits = [(r.mu1, r.mu2) for r in grid_scan(group, alpha, config).hits]
    keys = {_key(*pair) for pair in hits}
    rng = random.Random(str(orders))
    gammas = [_commuting_automorphism(group, alpha, rng) for _ in range(4)]
    kernel = [x for x in group.elements if (x + alpha(x)).is_zero]
    iid = [
        make_distribution(group, dict(zip(pair, (Fraction(1, d), Fraction(d - 1, d)))))
        for d, pair in zip((2, 3, 4), (rng.sample(kernel, 2) for _ in range(3)))
    ] if len(kernel) > 1 else []

    def candidate(mu):
        if len(mu.indices) <= 2:
            return mu.denominator <= 4
        return mu.denominator == len(mu.indices) and is_idempotent_shift(mu) is not None

    assert hits
    for mu1, mu2 in hits + [(mu, mu) for mu in iid]:
        images = [(shift(mu1, -alpha(b)), shift(mu2, b)) for b in group.elements]
        images += [(push_forward(mu1, g), push_forward(mu2, g)) for g in gammas]
        for image in images:
            assert candidate(image[0]) and candidate(image[1])
            assert _key(*image) in keys


@pytest.mark.parametrize(
    "p, k, c", [(3, 2, 2), (3, 2, 4), (3, 2, 8), (3, 3, 5), (5, 2, 2), (5, 2, 4), (2, 3, 3)]
)
def test_padic_hits_push_forward_to_the_level_below(p, k, c):
    """x -> x mod p^(k-1) commutes with multiplication by c, so each hit at
    level k is a symmetric pair at level k - 1 (R4)."""
    support_cap = 3 if p**k < 16 else 2
    config = SearchConfig(support_size_cap=support_cap, denominator_cap=4, random_trials=0)
    report = padic_scan(p, k, c, config)
    below = make_group([p ** (k - 1)])
    alpha = scaling_endomorphism(below, c)
    assert report.scan.hits
    for r in report.scan.hits:
        assert _symmetric(below, alpha, _reduce(r.mu1, below), _reduce(r.mu2, below))

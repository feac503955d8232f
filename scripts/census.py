"""Census of the small abelian groups: the scan's hits against two oracles
that share no decision code with the scan.

The cases are every abelian group type of order at most --max-order
(invariant factors from the partitions of each prime's exponent), each
with I, -I and two seeded random automorphisms, duplicates dropped.  On a
group of exponent 2, -t = t, so every pair is symmetric whatever alpha is,
and I alone is kept.  For each case:

- the grid's hits at caps 1/1, all of them pairs of uniform laws on cosets
  a + H and b + K, equal the closed form: with T = (alpha - I)(H meet K),
  the pair is symmetric exactly when 2H and 2 alpha K lie in T and
  2(a + alpha b) lies in T, computed on coordinates; where the scan
  refuses for more than MAX_HITS hits, the closed form must count more;
- up to order 8, the grid's hits at caps 2/3 equal a brute-force exact
  decision (is_conditionally_symmetric) over every ordered candidate pair,
  in the scan's order;
- every hit passes the characteristic-function check heyde_equation_check;
- the scan's candidate count, summary["grid_candidates"], equals the
  brute-force candidate count at caps 1/1 (unless the scan refuses) and,
  up to order 8, at caps 2/3.

Prints one line per (group, alpha), naming the candidate counts only when
they disagree, and exits 1 on any disagreement.

    python scripts/census.py --max-order 32
"""

import argparse
import operator
import random
import sys
from itertools import combinations, islice, product

from heyde_lab.distributions import Distribution
from heyde_lab.groups import identity_endomorphism, make_group, neg_identity_endomorphism
from heyde_lab.predicates import (
    canonical_instance,
    heyde_equation_check,
    is_conditionally_symmetric,
)
from heyde_lab.search import (
    MAX_HITS,
    SearchConfig,
    SearchSpaceError,
    all_subgroups,
    grid_scan,
    random_automorphism,
    weight_vectors,
)

#: Largest order whose caps-2/3 scan is compared pair by pair.
BRUTE_FORCE_MAX_ORDER = 8


def _partitions(e, largest):
    """Partitions of e into parts of at most ``largest``, largest part first."""
    if e == 0:
        yield ()
    for part in range(min(e, largest), 0, -1):
        for rest in _partitions(e - part, part):
            yield (part, *rest)


def _factor(n):
    """[(p, e)] with n the product of the p**e."""
    factors, p = [], 2
    while n > 1:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            factors.append((p, e))
        p += 1
    return factors


def group_types(max_order):
    """Invariant factors d1 | d2 | ... of every abelian group of order 2..max_order."""
    types = []
    for n in range(2, max_order + 1):
        primes = _factor(n)
        for shapes in product(*(_partitions(e, e) for _, e in primes)):
            factors = [1] * max(map(len, shapes))
            for (p, _), shape in zip(primes, shapes):
                for i, part in enumerate(shape):
                    factors[-1 - i] *= p**part
            types.append(factors)
    return types


def cases(max_order):
    """(cyclic orders, alpha matrix) per group type: I, -I and two draws."""
    out = []
    for orders in group_types(max_order):
        group = make_group(orders)
        alphas = [identity_endomorphism(group)]
        if group.exponent > 2:
            rng = random.Random(str(orders))
            alphas.append(neg_identity_endomorphism(group))
            alphas += [random_automorphism(group, rng) for _ in range(2)]
        out += [(orders, matrix) for matrix in dict.fromkeys(a.matrix for a in alphas)]
    return out


def grid_result(group, alpha, cap, denominator_cap):
    """The scan's grid phase alone, at these caps."""
    config = SearchConfig(support_size_cap=cap, denominator_cap=denominator_cap, random_trials=0)
    return grid_scan(group, alpha, config)


def hit_laws(result):
    """The laws (mu1, mu2) of a scan's hits, in the scan's order."""
    return [(hit.mu1, hit.mu2) for hit in result.hits]


def weighted(pairs):
    """Law pairs as (indices, weights, indices, weights), comparable across builds."""
    return [(a.indices, a.numerators, b.indices, b.numerators) for a, b in pairs]


def _cosets(group):
    """[(H, [(support, representative) per coset of H])] over every
    subgroup H, on coordinate tuples; a support is sorted element indices."""
    orders = group.cyclic_orders
    out = []
    for sub in all_subgroups(group):
        h = frozenset(x.coords for x in sub)
        cosets = {
            frozenset(tuple((a + b) % n for a, b, n in zip(x.coords, y, orders)) for y in h)
            for x in group.elements
        }
        supports = [
            (tuple(sorted(group.element(c).index for c in coset)), min(coset))
            for coset in cosets
        ]
        out.append((h, supports))
    return out


def brute_force_candidates(group, cap, denominator_cap):
    """The grid's candidates at these caps, {support: weight vectors}: the
    supports of at most min(caps) points with their weight vectors, and the
    uniform laws on the cosets of larger subgroups."""
    size = min(cap, denominator_cap, group.order)
    candidates = {
        support: [w for w, _ in weight_vectors(m, denominator_cap)]
        for m in range(1, size + 1)
        for support in combinations(range(group.order), m)
    }
    for h, cosets in _cosets(group):
        if len(h) > size:
            candidates.update((support, [(1,) * len(h)]) for support, _ in cosets)
    return candidates


def candidate_count(group, cap, denominator_cap):
    """The number of candidate laws, one per (support, weight vector)."""
    return sum(map(len, brute_force_candidates(group, cap, denominator_cap).values()))


def brute_force_hits(group, alpha, cap=2, denominator_cap=3):
    """Every ordered candidate pair of the grid at these caps that the exact
    predicate accepts, in the scan's order."""
    candidates = brute_force_candidates(group, cap, denominator_cap)
    laws = [
        [Distribution.from_weights(group, support, w) for w in candidates[support]]
        for support in sorted(candidates)
    ]
    return [
        (mu1, mu2)
        for laws_a, laws_b in product(laws, repeat=2)
        for mu1, mu2 in product(laws_a, laws_b)
        if is_conditionally_symmetric(canonical_instance(group, alpha, mu1, mu2))
    ]


def closed_form_pairs(group, alpha):
    """The symmetric pairs of uniform laws on cosets (a + H, b + K), as
    (support, support): with T = (alpha - I)(H meet K), those with 2H and
    2 alpha K in T and 2(a + alpha b) in T, that is 2a and -2 alpha b in one
    coset of T, found by matching the cosets' smallest elements."""
    orders = group.cyclic_orders
    add = lambda x, y: tuple((a + b) % n for a, b, n in zip(x, y, orders))
    act = lambda x: tuple(
        sum(map(operator.mul, row, x)) % n for row, n in zip(alpha.matrix, orders)
    )
    scale = lambda m, x: tuple(m * a % n for a, n in zip(x, orders))
    cosets = _cosets(group)
    for (h, cosets_h), (k, cosets_k) in product(cosets, repeat=2):
        t = {add(act(z), scale(-1, z)) for z in h & k}
        if any(scale(2, x) not in t for x in h) or any(scale(2, act(y)) not in t for y in k):
            continue
        side_b = {}
        for support, y in cosets_k:
            side_b.setdefault(min(add(scale(-2, act(y)), z) for z in t), []).append(support)
        for support, x in cosets_h:
            for other in side_b.get(min(add(scale(2, x), z) for z in t), ()):
                yield support, other


def heyde_failures(group, alpha, hits):
    """The hits whose characteristic functions fail the symmetry equation."""
    return [
        (mu1, mu2) for mu1, mu2 in hits
        if not heyde_equation_check(canonical_instance(group, alpha, mu1, mu2))
    ]


def _agree(same):
    return "agree" if same else "DISAGREE"


def count_mismatches(group, scans):
    """A report part for each scan, given as (result, cap, denominator cap),
    whose candidate count is not the brute-force count at its caps."""
    return [
        f"caps {cap}/{dcap} candidates {result.summary['grid_candidates']} vs {counted} DISAGREE"
        for result, cap, dcap in scans
        if (counted := candidate_count(group, cap, dcap)) != result.summary["grid_candidates"]
    ]


def census_line(orders, matrix):
    """One report line for the case, and whether every comparison agrees; a
    candidate count adds a part only when it disagrees."""
    group = make_group(orders)
    alpha = group.endomorphism(matrix)
    scans = []
    try:
        result = grid_result(group, alpha, 1, 1)
    except SearchSpaceError:
        counted = sum(1 for _ in islice(closed_form_pairs(group, alpha), MAX_HITS + 1))
        same, hits = counted > MAX_HITS, []
        parts = [f"cosets refused, closed form {_agree(same)}"]
    else:
        hits, scans = hit_laws(result), [(result, 1, 1)]
        same = [(a.indices, b.indices) for a, b in hits] == sorted(closed_form_pairs(group, alpha))
        parts = [f"cosets {len(hits)} hits {_agree(same)}"]
    if group.order <= BRUTE_FORCE_MAX_ORDER:
        result = grid_result(group, alpha, 2, 3)
        grid, scans = hit_laws(result), scans + [(result, 2, 3)]
        exact = weighted(grid) == weighted(brute_force_hits(group, alpha))
        parts.append(f"grid {len(grid)} hits {_agree(exact)}")
        same, hits = same and exact, hits + grid
    mismatches = count_mismatches(group, scans)
    parts += mismatches
    failures = len(heyde_failures(group, alpha, hits))
    parts.append(f"heyde failures {failures}")
    alpha_text = [list(row) for row in matrix]
    return f"{group} alpha={alpha_text}: " + "; ".join(parts), same and not (failures or mismatches)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=16)
    args = parser.parse_args()
    disagreements = 0
    for orders, matrix in cases(args.max_order):
        line, agree = census_line(orders, matrix)
        print(line, flush=True)
        disagreements += not agree
    print(f"{disagreements} disagreeing cases")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())

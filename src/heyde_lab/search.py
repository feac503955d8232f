"""Constructive and exhaustive exploration of symmetric instances.

Two constructions produce guaranteed conditionally symmetric instances: an
iid pair supported inside Ker(I + alpha) (where alpha acts as negation),
and any pair supported inside the subgroup generated by the order-2
elements (where every value equals its own negative).  The grid scan
enumerates exact-rational distribution pairs up to configurable support and
denominator caps (plus all shifted uniform-on-subgroup candidates and a
batch of random pairs), decides symmetry exactly for each pair, and
classifies every symmetric hit.  Both phases of the scan decide symmetry
with one integer kernel over element indices: a support pair is feasible
when its set of occupied joint-cell keys contains every mirror key, and a
feasible pair is symmetric when the integer weights of each cell and its
mirror agree.  Every random-phase hit is confirmed by the exact Fraction
predicate before it is recorded.  A finite-level scan over the cyclic
p-power groups tags its outcome by the leading base-p digit of the
multiplier.

Scans are deterministic given the configuration seed: the grid phase is
pure enumeration and the random phase is partitioned into fixed-size index
blocks, each seeded with seed + partition index, so results do not depend
on evaluation order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .distributions import Distribution, is_degenerate, is_idempotent_shift
from .groups import (
    Endomorphism,
    FiniteAbelianGroup,
    Subgroup,
    identity_endomorphism,
    make_group,
    order2_subgroup,
    scaling_endomorphism,
    subgroup_generated,
    trivial_subgroup,
)
from .predicates import (
    FormsInstance,
    canonical_instance,
    is_conditionally_symmetric,
)
from .serialization import (
    distribution_to_json,
    endomorphism_to_json,
    group_to_json,
)

#: Hard ceiling on the number of candidate pairs a scan may evaluate.
MAX_CANDIDATES = 10**8

#: Largest group order for which the scan builds index tables.
MAX_SCAN_ORDER = 1024

#: Random-phase trials per seeded partition; partition i is seeded seed + i.
PARTITION_SIZE = 1024


class SearchSpaceError(ValueError):
    """The requested scan is too large to enumerate."""


@dataclass
class SearchConfig:
    support_size_cap: int = 3
    denominator_cap: int = 6
    random_trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.support_size_cap < 1 or self.denominator_cap < 1:
            raise ValueError("caps must be >= 1")
        if self.random_trials < 0:
            raise ValueError("random_trials must be >= 0")

    def to_json(self) -> dict:
        return {
            "support_size_cap": self.support_size_cap,
            "denominator_cap": self.denominator_cap,
            "random_trials": self.random_trials,
            "seed": self.seed,
        }


def classify_distribution(mu: Distribution) -> dict:
    """Classification record: degenerate, idempotent-shift (with witness),
    or other."""
    if is_degenerate(mu):
        x = mu.support()[0]
        return {"kind": "degenerate", "subgroup": None, "shift": list(x.coords)}
    witness = is_idempotent_shift(mu)
    if witness is not None:
        return {
            "kind": "idempotent-shift",
            "subgroup": [list(e.coords) for e in witness.subgroup],
            "shift": list(witness.shift.coords),
        }
    return {"kind": "other", "subgroup": None, "shift": None}


_IDEMPOTENT_KINDS = ("degenerate", "idempotent-shift")


def verdict_tags(class1: dict, class2: dict, kernel: Subgroup) -> tuple[str, ...]:
    """Tags of a symmetric pair from its two classifications and
    Ker(I + alpha).

    An idempotent pair with a trivial kernel is what Theorem B predicts; a
    non-idempotent pair is explained by a nontrivial kernel, and without
    one it contradicts the theorem.
    """
    if class1["kind"] in _IDEMPOTENT_KINDS and class2["kind"] in _IDEMPOTENT_KINDS:
        return ("theoremB-consistent",) if kernel.is_trivial else ()
    if kernel.is_trivial:
        return ("red-alert-nonidempotent",)
    return ("kernel-counterexample",)


@dataclass
class SymmetryReport:
    """Outcome record for one evaluated (group, alpha, mu1, mu2) instance."""

    group: FiniteAbelianGroup
    alpha: Endomorphism
    mu1: Distribution
    mu2: Distribution
    symmetric: bool
    mu1_class: dict | None
    mu2_class: dict | None
    kernel: Subgroup
    tags: tuple[str, ...]
    source: str

    @property
    def pair_idempotent(self) -> bool:
        return (
            self.symmetric
            and self.mu1_class["kind"] in _IDEMPOTENT_KINDS
            and self.mu2_class["kind"] in _IDEMPOTENT_KINDS
        )

    def to_json(self) -> dict:
        return {
            "group": group_to_json(self.group),
            "alpha": endomorphism_to_json(self.alpha),
            "mu1": distribution_to_json(self.mu1),
            "mu2": distribution_to_json(self.mu2),
            "symmetric": self.symmetric,
            "mu1_class": self.mu1_class,
            "mu2_class": self.mu2_class,
            "kernel": [list(e.coords) for e in self.kernel],
            "tags": list(self.tags),
            "source": self.source,
        }


def _report_for_hit(
    group: FiniteAbelianGroup,
    alpha: Endomorphism,
    mu1: Distribution,
    mu2: Distribution,
    kernel: Subgroup,
    source: str,
) -> SymmetryReport:
    c1 = classify_distribution(mu1)
    c2 = classify_distribution(mu2)
    tags = verdict_tags(c1, c2, kernel)
    return SymmetryReport(group, alpha, mu1, mu2, True, c1, c2, kernel, tags, source)


def kernel_construction(
    group: FiniteAbelianGroup, alpha: Endomorphism, weights: Distribution
) -> FormsInstance:
    """Canonical iid instance supported inside Ker(I + alpha).

    On the kernel alpha acts as negation, so the instance is conditionally
    symmetric for any choice of weights; the construction verifies this
    exactly and refuses trivial kernels or supports escaping the kernel.
    """
    kernel = (identity_endomorphism(group) + alpha).kernel()
    if kernel.is_trivial:
        raise ValueError("kernel of I + alpha is trivial; no construction exists")
    for x in weights.support():
        if x not in kernel:
            raise ValueError(f"support element {x} escapes the kernel {kernel}")
    inst = canonical_instance(group, alpha, weights, weights)
    if not is_conditionally_symmetric(inst):
        raise RuntimeError(
            "kernel construction failed its symmetry guarantee; this is a bug"
        )
    return inst


def order2_construction(
    group: FiniteAbelianGroup,
    alpha: Endomorphism,
    mu1: Distribution,
    mu2: Distribution,
) -> FormsInstance:
    """Instance supported inside the order-2 subgroup, symmetric for any
    alpha because every attainable value of the second form is its own
    negative."""
    torsion = order2_subgroup(group)
    if torsion.is_trivial:
        raise ValueError("the order-2 subgroup is trivial")
    for mu in (mu1, mu2):
        for x in mu.support():
            if x not in torsion:
                raise ValueError(f"support element {x} escapes the order-2 subgroup")
    inst = canonical_instance(group, alpha, mu1, mu2)
    if not is_conditionally_symmetric(inst):
        raise RuntimeError(
            "order-2 construction failed its symmetry guarantee; this is a bug"
        )
    return inst


def all_subgroups(group: FiniteAbelianGroup) -> list[Subgroup]:
    """Every subgroup, grown by repeatedly adjoining one generator."""
    trivial = trivial_subgroup(group)
    seen: dict[frozenset, Subgroup] = {frozenset(trivial.elements): trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for sub in frontier:
            for x in group.elements:
                if x in sub:
                    continue
                grown = subgroup_generated(group, list(sub.generators) + [x])
                key = frozenset(grown.elements)
                if key not in seen:
                    seen[key] = grown
                    new.append(grown)
        frontier = new
    return sorted(seen.values(), key=lambda s: (len(s), tuple(e.coords for e in s)))


def random_distribution(
    group: FiniteAbelianGroup,
    rng: random.Random,
    support_cap: int,
    weight_cap: int,
) -> Distribution:
    """Random exact-rational distribution: integer weights up to weight_cap
    on a random support, normalized."""
    size = rng.randint(1, min(support_cap, group.order))
    support_idx = sorted(rng.sample(range(group.order), size))
    weights = [rng.randint(1, weight_cap) for _ in support_idx]
    total = sum(weights)
    elements = group.elements
    return Distribution(
        group,
        {elements[i]: Fraction(w, total) for i, w in zip(support_idx, weights)},
    )


def _index_weights(mu: Distribution) -> tuple[list[int], list[int]]:
    """Element indices of mu's support and integer weights proportional to
    its masses: each numerator times lcm(denominators) // denominator."""
    group = mu.group
    common = math.lcm(*(p.denominator for p in mu.probs.values()))
    support = [group.index(x) for x in mu.probs]
    weights = [p.numerator * (common // p.denominator) for p in mu.probs.values()]
    return support, weights


def random_automorphism(
    group: FiniteAbelianGroup, rng: random.Random, max_tries: int = 2000
) -> Endomorphism:
    """Rejection-sample a compatible matrix until it is bijective."""
    orders = group.cyclic_orders
    k = group.rank
    for _ in range(max_tries):
        matrix = []
        for i in range(k):
            row = []
            for j in range(k):
                g = math.gcd(orders[i], orders[j])
                row.append((orders[i] // g) * rng.randrange(g))
            matrix.append(row)
        endo = Endomorphism(group, matrix)
        if endo.is_auto:
            return endo
    raise RuntimeError(f"no automorphism found in {max_tries} tries")


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def weight_vectors(size: int, denominator_cap: int) -> list[tuple[tuple[int, ...], int]]:
    """Primitive positive integer weight vectors (w, d) with sum(w) = d <=
    denominator_cap; each represents the distribution with masses w_i / d,
    and primitivity (gcd of the w_i equal to 1) makes the representation
    unique."""
    out = []
    for d in range(size, denominator_cap + 1):
        for comp in _compositions(d, size):
            if math.gcd(*comp) == 1:
                out.append((comp, d))
    return out


@dataclass
class ScanResult:
    group: FiniteAbelianGroup
    alpha: Endomorphism
    config: SearchConfig
    hits: list[SymmetryReport]
    summary: dict

    @property
    def red_alert(self) -> bool:
        return any("red-alert-nonidempotent" in r.tags for r in self.hits)


def _grid_candidate_count(group: FiniteAbelianGroup, config: SearchConfig) -> int:
    n = group.order
    total = 0
    for m in range(1, min(config.support_size_cap, n) + 1):
        total += math.comb(n, m) * len(weight_vectors(m, config.denominator_cap))
    return total


def _idempotent_candidates(
    group: FiniteAbelianGroup, config: SearchConfig
) -> dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]]:
    """Uniform-on-coset candidates not already covered by the grid."""
    extras: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    covered_by_grid = min(config.support_size_cap, config.denominator_cap)
    for sub in all_subgroups(group):
        size = len(sub)
        if size <= covered_by_grid:
            continue
        rows = [group.translation_row(group.index(e)) for e in sub]
        seen = set()
        for x in range(group.order):
            coset = tuple(sorted(row[x] for row in rows))
            if coset in seen:
                continue
            seen.add(coset)
            extras.setdefault(coset, []).append(((1,) * size, size))
    return extras


def grid_scan(
    group: FiniteAbelianGroup, alpha: Endomorphism, config: SearchConfig
) -> ScanResult:
    """Enumerate distribution pairs, decide symmetry exactly, classify hits.

    Both phases share one integer kernel.  With (s, t) = (x_a + y_b,
    x_a + alpha y_b) the joint cell of support elements x_a and y_b, a
    support pair is feasible only if its occupied cells include the mirror
    (s, -t) of each, since an empty mirror makes every strictly positive
    weight assignment asymmetric; a feasible pair is symmetric when each
    cell and its mirror carry equal integer weight.  The grid phase
    enumerates weights only on feasible ordered support pairs.  The random
    phase draws config.random_trials pairs in seeded partitions, reads
    each as an index support with integer weights, and confirms every hit
    with the exact predicate, raising RuntimeError on a disagreement.
    Deterministic given (seed, caps).
    """
    if alpha.group != group:
        raise ValueError("alpha acts on a different group")
    n = group.order
    if n > MAX_SCAN_ORDER:
        raise SearchSpaceError(f"group order {n} exceeds scan bound {MAX_SCAN_ORDER}")

    grid_count = _grid_candidate_count(group, config)
    if grid_count * grid_count + config.random_trials > MAX_CANDIDATES:
        raise SearchSpaceError(
            f"search space of {grid_count}^2 grid pairs + "
            f"{config.random_trials} trials exceeds {MAX_CANDIDATES} candidates"
        )

    weights_by_size = {
        m: weight_vectors(m, config.denominator_cap)
        for m in range(1, min(config.support_size_cap, n) + 1)
    }
    candidates: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for m, vecs in weights_by_size.items():
        for support in combinations(range(n), m):
            candidates[support] = list(vecs)
    for support, vecs in _idempotent_candidates(group, config).items():
        candidates.setdefault(support, []).extend(vecs)

    total_candidates = sum(len(v) for v in candidates.values())
    if total_candidates**2 + config.random_trials > MAX_CANDIDATES:
        raise SearchSpaceError(
            f"search space of {total_candidates}^2 pairs exceeds {MAX_CANDIDATES}"
        )

    kernel = (identity_endomorphism(group) + alpha).kernel()

    neg = group.negation_table()
    act = alpha.table
    # keys[x][y] = s*n + t for the joint cell (s, t) = (x + y, x + alpha y);
    # mirrors[x][y] = s*n + neg[t] for its mirror (s, -t).
    keys: list[list[int]] = []
    mirrors: list[list[int]] = []
    for x in range(n):
        row = group.translation_row(x)
        ts = [row[a] for a in act]
        keys.append([s * n + t for s, t in zip(row, ts)])
        mirrors.append([s * n + neg[t] for s, t in zip(row, ts)])

    def cell_comparisons(sup_a, sup_b):
        """(cell, mirror) lists of support positions (i, j) whose joint
        weights must agree, or None when the pair is infeasible."""
        rows = [keys[x] for x in sup_a]
        occupied = {row[y] for row in rows for y in sup_b}
        if not occupied.issuperset([mirrors[x][y] for x in sup_a for y in sup_b]):
            return None
        cells: dict[int, list[tuple[int, int]]] = {}
        for i, row in enumerate(rows):
            for j, y in enumerate(sup_b):
                cells.setdefault(row[y], []).append((i, j))
        comparisons = []
        for key, cell in cells.items():
            t = key % n
            if t < neg[t]:
                comparisons.append((cell, cells[key - t + neg[t]]))
        return comparisons

    def balanced(comparisons, wa, wb):
        for cell, mirror in comparisons:
            lhs = sum(wa[i] * wb[j] for i, j in cell)
            rhs = sum(wa[i] * wb[j] for i, j in mirror)
            if lhs != rhs:
                return False
        return True

    elements = group.elements

    def make_distribution_from(support, weight_vec, denom):
        return Distribution(
            group,
            {elements[i]: Fraction(w, denom) for i, w in zip(support, weight_vec)},
        )

    hits: list[SymmetryReport] = []
    counts = {"symmetric": 0, "idempotent": 0, "degenerate": 0, "other": 0}

    def record_hit(mu1, mu2, source):
        report = _report_for_hit(group, alpha, mu1, mu2, kernel, source)
        hits.append(report)
        counts["symmetric"] += 1
        k1 = report.mu1_class["kind"]
        k2 = report.mu2_class["kind"]
        if k1 == "degenerate" and k2 == "degenerate":
            counts["degenerate"] += 1
        elif report.pair_idempotent:
            counts["idempotent"] += 1
        else:
            counts["other"] += 1

    support_list = sorted(candidates)
    for sup_a in support_list:
        vecs_a = candidates[sup_a]
        # An element y of a feasible sup_b has the mirrors of its cells with
        # sup_a occupied by cells of sup_a x X, so test that first.
        reach = set().union(*(keys[x] for x in sup_a))
        viable = {y for y in range(n) if all(mirrors[x][y] in reach for x in sup_a)}
        for sup_b in support_list:
            if not viable.issuperset(sup_b):
                continue
            comparisons = cell_comparisons(sup_a, sup_b)
            if comparisons is None:
                continue
            for wa, da in vecs_a:
                for wb, db in candidates[sup_b]:
                    if balanced(comparisons, wa, wb):
                        record_hit(
                            make_distribution_from(sup_a, wa, da),
                            make_distribution_from(sup_b, wb, db),
                            "grid",
                        )

    trials_done = 0
    partition = 0
    while trials_done < config.random_trials:
        rng = random.Random(config.seed + partition)
        block = min(PARTITION_SIZE, config.random_trials - trials_done)
        for _ in range(block):
            mu1 = random_distribution(
                group, rng, config.support_size_cap, config.denominator_cap
            )
            mu2 = random_distribution(
                group, rng, config.support_size_cap, config.denominator_cap
            )
            sup1, w1 = _index_weights(mu1)
            sup2, w2 = _index_weights(mu2)
            comparisons = cell_comparisons(sup1, sup2)
            if comparisons is None or not balanced(comparisons, w1, w2):
                continue
            if not is_conditionally_symmetric(
                canonical_instance(group, alpha, mu1, mu2)
            ):
                raise RuntimeError(
                    "integer symmetry kernel disagrees with the exact "
                    "predicate on a random pair; this is a bug"
                )
            record_hit(mu1, mu2, "random")
        trials_done += block
        partition += 1

    summary = {
        "group": group_to_json(group),
        "alpha": endomorphism_to_json(alpha),
        "config": config.to_json(),
        "kernel": [list(e.coords) for e in kernel],
        "i_plus_alpha_automorphism": kernel.is_trivial,
        "grid_candidates": total_candidates,
        "evaluated_pairs": total_candidates**2 + config.random_trials,
        "counts": counts,
        "red_alert": any("red-alert-nonidempotent" in r.tags for r in hits),
    }
    return ScanResult(group, alpha, config, hits, summary)


#: Tags for the finite-level p-power scans.
PADIC_TAG_UNIT = "finite-level 1(i) analogue: all symmetric hits idempotent"
PADIC_TAG_KERNEL = "finite-level 2(i) analogue: counterexamples found"
PADIC_TAG_P2 = "exploratory p=2"


@dataclass
class PadicScanReport:
    p: int
    k: int
    c: int
    c0: int
    c1: int
    group: FiniteAbelianGroup
    kernel: Subgroup
    tag: str
    consistent: bool | None
    note: str
    scan: ScanResult

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "c": self.c,
            "c0": self.c0,
            "c1": self.c1,
            "group": group_to_json(self.group),
            "kernel": [list(e.coords) for e in self.kernel],
            "tag": self.tag,
            "consistent": self.consistent,
            "note": self.note,
            "summary": self.scan.summary,
        }


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def padic_scan(p: int, k: int, c: int, config: SearchConfig) -> PadicScanReport:
    """Scan the finite level Z_{p^k} with alpha = multiplication by c.

    The multiplier's base-p digits decide the expected outcome: for p > 2
    and c0 != p-1 the map I + alpha is an automorphism at every finite
    level and all symmetric hits must be idempotent shifts, while c0 = p-1
    makes the kernel nontrivial and guarantees non-idempotent symmetric
    pairs (an iid pair on two nonzero kernel elements is injected so the
    guarantee does not depend on the caps).  For p = 2 the finite level
    always has a nontrivial kernel made of order-2 elements that do not
    lift to the torsion-free projective limit, so those scans are tagged
    exploratory and assert nothing.
    """
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if c % p == 0:
        raise ValueError("c must be a unit: gcd(c, p) = 1")
    c0 = c % p
    c1 = (c // p) % p
    group = make_group([p**k])
    alpha = scaling_endomorphism(group, c % p**k)
    scan = grid_scan(group, alpha, config)
    kernel = (identity_endomorphism(group) + alpha).kernel()

    if p == 2:
        tag = PADIC_TAG_P2
        consistent = None
        note = (
            "finite levels of the 2-adic tower always have a nontrivial "
            "kernel of order-2 elements, which does not lift to the "
            "torsion-free limit; no conclusion is asserted"
        )
    elif c0 != p - 1:
        non_idempotent = [r for r in scan.hits if not r.pair_idempotent]
        consistent = not non_idempotent
        tag = PADIC_TAG_UNIT if consistent else "red-alert: non-idempotent hit"
        note = (
            f"1 + c = {1 + c0} (mod {p}) is a unit, so I + alpha is an "
            f"automorphism of Z_{p**k} and symmetric pairs must be "
            "idempotent shifts"
        )
    else:
        nonzero = [x for x in kernel if not x.is_zero]
        mu = Distribution(
            group, {nonzero[0]: Fraction(1, 2), nonzero[1]: Fraction(1, 2)}
        )
        inst = kernel_construction(group, alpha, mu)
        already = any(
            r.mu1 == inst.mu1 and r.mu2 == inst.mu2 for r in scan.hits
        )
        if not already:
            scan.hits.append(
                _report_for_hit(group, alpha, inst.mu1, inst.mu2, kernel, "construction")
            )
            scan.summary["counts"]["symmetric"] += 1
            scan.summary["counts"]["other"] += 1
        non_idempotent = [r for r in scan.hits if not r.pair_idempotent]
        consistent = bool(non_idempotent)
        tag = PADIC_TAG_KERNEL
        note = (
            f"c0 = p - 1 makes Ker(I + alpha) nontrivial at every finite "
            "level; iid pairs on the kernel are symmetric without being "
            "idempotent"
        )
    return PadicScanReport(
        p, k, c, c0, c1, group, kernel, tag, consistent, note, scan
    )

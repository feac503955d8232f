"""Constructive and exhaustive exploration of symmetric instances.

Two constructions produce guaranteed conditionally symmetric instances: an
iid pair supported inside Ker(I + alpha) (where alpha acts as negation),
and any pair supported inside the subgroup generated by the order-2
elements (where every value equals its own negative).  The grid scan
enumerates exact-rational distribution pairs up to configurable support and
denominator caps (plus one uniform candidate per coset of each larger
subgroup, and a batch of random pairs), decides symmetry exactly for each
pair, and classifies every symmetric hit; like the theorem, it takes alpha
to be an automorphism and refuses any other map.  Both phases of the scan
reject infeasible support pairs over element indices: a support pair is
feasible when its set of occupied joint-cell keys contains the mirror of
each (one rule, key + flip[t], turns the cell (s, t) into (s, -t)).  For
each first support the grid enumerates as second supports only the
candidates inside its viable set, the elements whose cells with it can have
their mirrors occupied.  It solves for second weights wb the integer rows
v . wb = 0 that first weights wa give, one per (cell, mirror) comparison, and
it tests a coset's one uniform vector by comparing the sums of wa over each
cell and its mirror.  The random phase rejects a draw whose second support
leaves the grid's viable set of its first, or whose mirror is empty, and the
exact predicate decides the rest.  Each hit law is built and classified once
per scan.  A finite-level scan over the cyclic p-power groups tags its
outcome by the leading base-p digit of the multiplier.

Scans are deterministic given the configuration seed: the grid phase is
pure enumeration and the random phase is partitioned into fixed-size index
blocks, each seeded with seed + partition index, so results do not depend
on evaluation order.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import asdict, dataclass
from functools import cache
from itertools import combinations

from .distributions import Distribution, is_degenerate, is_idempotent_shift
from .groups import (
    Endomorphism,
    FiniteAbelianGroup,
    Subgroup,
    _closure,
    make_group,
    order2_subgroup,
    scaling_endomorphism,
    subgroup_generated,
)
from .predicates import (
    FormsInstance,
    canonical_instance,
    is_conditionally_symmetric,
    obstruction_kernel,
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

#: Most symmetric hits a scan keeps; one more raises SearchSpaceError.
MAX_HITS = 10**5

#: Most subgroups all_subgroups lists; one more raises SearchSpaceError.  After
#: grid_scan's grid guard at most isqrt(MAX_CANDIDATES) subgroups are as small as
#: its supports (each is one), so past this bound more than isqrt are larger, each
#: adds a coset, and the scan's candidate guard would refuse the scan anyway.
MAX_SUBGROUPS = 2 * math.isqrt(MAX_CANDIDATES)


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
    one it contradicts the theorem.  The theorem assumes odd order: on a
    group of even order every pair supported in X[2] = {x : 2x = 0} is
    symmetric for every alpha, so there such a pair is tagged
    exploratory-2-torsion and asserts nothing.
    """
    if class1["kind"] in _IDEMPOTENT_KINDS and class2["kind"] in _IDEMPOTENT_KINDS:
        return ("theoremB-consistent",) if kernel.is_trivial else ()
    if not kernel.is_trivial:
        return ("kernel-counterexample",)
    return ("red-alert-nonidempotent",) if kernel.parent.order % 2 else ("exploratory-2-torsion",)


@dataclass
class SymmetryReport:
    """Outcome record for one symmetric (group, alpha, mu1, mu2) instance."""

    group: FiniteAbelianGroup
    alpha: Endomorphism
    mu1: Distribution
    mu2: Distribution
    mu1_class: dict | None
    mu2_class: dict | None
    kernel: Subgroup
    tags: tuple[str, ...]
    source: str

    @property
    def pair_idempotent(self) -> bool:
        return (
            self.mu1_class["kind"] in _IDEMPOTENT_KINDS
            and self.mu2_class["kind"] in _IDEMPOTENT_KINDS
        )

    def to_json(self) -> dict:
        return {
            "group": group_to_json(self.group),
            "alpha": endomorphism_to_json(self.alpha),
            "mu1": distribution_to_json(self.mu1),
            "mu2": distribution_to_json(self.mu2),
            "symmetric": True,
            "mu1_class": self.mu1_class,
            "mu2_class": self.mu2_class,
            "kernel": [list(e.coords) for e in self.kernel],
            "tags": list(self.tags),
            "source": self.source,
        }


def checked_instance(
    group: FiniteAbelianGroup,
    alpha: Endomorphism,
    mu1: Distribution,
    mu2: Distribution,
    sub: Subgroup,
    name: str,
) -> FormsInstance:
    """Canonical instance of a pair supported inside sub, confirmed symmetric
    by the exact predicate; a support escaping sub raises ValueError and a
    failed confirmation RuntimeError."""
    for mu in (mu1, mu2):
        for x in mu.support():
            if x not in sub:
                raise ValueError(f"support element {x} escapes the {name} {sub}")
    inst = canonical_instance(group, alpha, mu1, mu2)
    if not is_conditionally_symmetric(inst):
        raise RuntimeError(
            f"{name} construction failed its symmetry guarantee; this is a bug"
        )
    return inst


def kernel_construction(
    group: FiniteAbelianGroup, alpha: Endomorphism, weights: Distribution
) -> FormsInstance:
    """Canonical iid instance supported inside Ker(I + alpha).

    On the kernel alpha acts as negation, so the instance is conditionally
    symmetric for any choice of weights; the construction verifies this
    exactly and refuses trivial kernels or supports escaping the kernel.
    """
    kernel = obstruction_kernel(alpha)
    if kernel.is_trivial:
        raise ValueError("kernel of I + alpha is trivial; no construction exists")
    return checked_instance(group, alpha, weights, weights, kernel, "kernel")


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
    return checked_instance(group, alpha, mu1, mu2, torsion, "order-2 subgroup")


def all_subgroups(group: FiniteAbelianGroup) -> list[Subgroup]:
    """Every subgroup, adjoining each uncovered x to each subgroup H found.
    The closure lists the cosets H + m*x (m < k) in order, and those with
    gcd(m, k) = 1 are covered: each of their elements generates it with H.
    A lattice of more than MAX_SUBGROUPS raises SearchSpaceError."""
    subgroups = [subgroup_generated(group, [])]
    seen = {subgroups[0].elements}
    for sub in subgroups:
        size, covered = len(sub), set(sub)
        for x in group.elements:
            if x not in covered:
                closure = list(_closure(sub.elements, [x]))
                k = len(closure) // size
                covered.update(*(closure[m * size:(m + 1) * size]
                                 for m in range(1, k) if math.gcd(m, k) == 1))
                grown = Subgroup._closed(group, closure)
                if grown.elements not in seen:
                    if len(subgroups) == MAX_SUBGROUPS:
                        raise SearchSpaceError(f"{group} has over {MAX_SUBGROUPS} subgroups")
                    seen.add(grown.elements)
                    subgroups.append(grown)
    return sorted(subgroups, key=lambda s: (len(s), tuple(e.coords for e in s)))


def _below(bits, m: int) -> int:
    """bits(m.bit_length()) until it falls below m: the stdlib's _randbelow."""
    if m < 1:
        raise ValueError(f"empty range for a draw below {m}")
    k = m.bit_length()
    r = bits(k)
    while r >= m:
        r = bits(k)
    return r


def random_distribution(
    group: FiniteAbelianGroup,
    rng: random.Random,
    support_cap: int,
    weight_cap: int,
) -> Distribution:
    """Random exact-rational distribution: integer weights up to weight_cap
    on a random support, normalized.  Every draw comes from getrandbits by
    the stdlib's rules: a fixed function of the seed that equals, state
    included, randint(1, min(support_cap, order)), sample(range(order), size)
    and one randint(1, weight_cap) per element on CPython 3.10 to 3.13.  The
    size, pool-swap and weight draws inline _randbelow's loop (see _below)."""
    bits, n = rng.getrandbits, group.order
    m = support_cap if support_cap < n else n
    if m < 1 or weight_cap < 1:
        raise ValueError(f"empty range for a draw below {m if m < 1 else weight_cap}")
    k = m.bit_length()
    size = bits(k)
    while size >= m:
        size = bits(k)
    size += 1
    if n <= 21 + (4 ** math.ceil(math.log(3 * size, 4)) if size > 5 else 0):
        pool, support, last, stop = list(range(n)), [], n, n - size
        while last > stop:  # sample's pool swap below last, the live pool's length
            k, last = last.bit_length(), last - 1
            j = bits(k)
            while j > last:
                j = bits(k)
            support.append(pool[j])
            pool[j] = pool[last]
        support.sort()
    else:
        support = set()  # sample's rejection set
        while len(support) < size:
            support.add(_below(bits, n))
        support = sorted(support)
    k, weights = weight_cap.bit_length(), []
    for _ in support:
        w = bits(k)
        while w >= weight_cap:
            w = bits(k)
        weights.append(w + 1)
    return Distribution.from_weights(group, support, weights)


#: Compatible matrices random_automorphism draws before giving up.
AUTOMORPHISM_TRIES = 2000


def random_automorphism(group: FiniteAbelianGroup, rng: random.Random) -> Endomorphism:
    """Rejection-sample a compatible matrix until it is bijective."""
    orders = group.cyclic_orders
    k = group.rank
    for _ in range(AUTOMORPHISM_TRIES):
        matrix = []
        for i in range(k):
            row = []
            for j in range(k):
                g = math.gcd(orders[i], orders[j])
                row.append((orders[i] // g) * _below(rng.getrandbits, g))
            matrix.append(row)
        endo = group.endomorphism(matrix)
        if endo.is_auto:
            return endo
    raise RuntimeError(f"no automorphism found in {AUTOMORPHISM_TRIES} tries")


def weight_vectors(size: int, denominator_cap: int) -> list[tuple[tuple[int, ...], int]]:
    """Primitive positive integer weight vectors (w, d) with sum(w) = d <=
    denominator_cap; each represents the distribution with masses w_i / d,
    and primitivity (gcd of the w_i equal to 1) makes the representation
    unique.  The compositions of d are the gaps between size - 1 cut points
    in 1..d-1."""
    if size == 1:
        return [((1,), 1)]
    out = []
    for d in range(size, denominator_cap + 1):
        for cuts in combinations(range(1, d), size - 1):
            comp = tuple(b - a for a, b in zip((0,) + cuts, cuts + (d,)))
            if math.gcd(*comp) == 1:
                out.append((comp, d))
    return out


def weight_vector_count(size: int, denominator_cap: int) -> int:
    """len(weight_vectors(size, denominator_cap)) without enumerating: the
    C(D, m) compositions of totals up to D = denominator_cap into m parts,
    Moebius-inverted over the gcd e of the parts, sum of mu(e) C(D // e, m)."""
    if size == 1:
        return 1
    return sum(
        _moebius(e) * math.comb(denominator_cap // e, size)
        for e in range(1, denominator_cap // size + 1)
    )


def _moebius(e: int) -> int:
    sign, p = 1, 2
    while p * p <= e:
        if e % p == 0:
            e //= p
            if e % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if e > 1 else sign


def balanced_weights(rows, vectors, cap: int | None = None) -> list:
    """The w in vectors, in order, with v . w = 0 for every nonzero integer
    row v.  With cap given, vectors must be weight_vectors(m, cap); if m is
    2 or 3 and the rows have rank m - 1, the solutions are one line (a row's
    perpendicular, or the cross product of two rows), whose primitive point
    is kept when positive, within cap and a solution.  Else each w is tested.
    grid_scan always passes cap; the uncapped form is the tests' reference.
    """
    r = rows[0] if cap is not None and rows else ()
    line = (r[1], -r[0]) if len(r) == 2 else None
    if len(r) == 3:
        crosses = ((r[1] * s[2] - r[2] * s[1], r[2] * s[0] - r[0] * s[2], r[0] * s[1] - r[1] * s[0])
                   for s in rows[1:])
        line = next((c for c in crosses if any(c)), None)
    if line is not None:
        g = math.gcd(*line) if sum(line) > 0 else -math.gcd(*line)
        w = tuple(x // g for x in line)
        solved = all(sum(map(operator.mul, v, w)) == 0 for v in rows)
        return [w] if min(w) > 0 and sum(w) <= cap and solved else []
    return [w for w in vectors if all(sum(map(operator.mul, v, w)) == 0 for v in rows)]


def _hit_counts(hits: list[SymmetryReport]) -> dict:
    """Hits in total and by pair kind: both degenerate, else both
    idempotent (degenerate or idempotent-shift), else other."""
    counts = {"symmetric": len(hits), "idempotent": 0, "degenerate": 0, "other": 0}
    for r in hits:
        if r.mu1_class["kind"] == r.mu2_class["kind"] == "degenerate":
            counts["degenerate"] += 1
        elif r.pair_idempotent:
            counts["idempotent"] += 1
        else:
            counts["other"] += 1
    return counts


@dataclass
class ScanResult:
    group: FiniteAbelianGroup
    alpha: Endomorphism
    config: SearchConfig
    hits: list[SymmetryReport]
    summary: dict
    kernel: Subgroup

    @property
    def red_alert(self) -> bool:
        return self.summary["red_alert"]


def _coset_supports(group: FiniteAbelianGroup, subgroups: list[Subgroup]) -> list[tuple[int, ...]]:
    """Sorted supports of every coset of each subgroup H given, each once: the
    closure of H with all of X lists X coset by coset, in blocks of |H|."""
    supports = []
    for sub in subgroups:
        size, xs = len(sub), [x.index for x in _closure(sub.elements, group.elements)]
        supports += [tuple(sorted(xs[i:i + size])) for i in range(0, len(xs), size)]
    return supports


def grid_scan(
    group: FiniteAbelianGroup, alpha: Endomorphism, config: SearchConfig
) -> ScanResult:
    """Enumerate distribution pairs, decide symmetry exactly, classify hits.

    With (s, t) = (x_a + y_b, x_a + alpha y_b) the joint cell of support
    elements x_a and y_b, a support pair is feasible only if its occupied
    cells include the mirror (s, -t) of each, since an empty mirror makes
    every strictly positive weight assignment asymmetric; a feasible pair is
    symmetric when each cell and its mirror carry equal joint weight.  The
    grid phase visits only feasible ordered support pairs.  On a grid second
    support, first weights wa turn the comparisons into rows v . wb = 0,
    solved for the second weights wb by balanced_weights; a coset's one
    uniform vector balances wa when each cell and its mirror carry equal
    sums of wa.  The random phase draws config.random_trials pairs in seeded
    partitions, rejects a draw whose second support leaves the viable set the
    grid kept for its first (a first support the grid lacks has none) or whose
    pair is infeasible, and lets the exact predicate decide the rest.  Hits
    share their laws.  More than MAX_HITS hits raise SearchSpaceError, and an
    alpha that is not an automorphism, outside the theorem, ValueError.
    Deterministic given (seed, caps).
    """
    if alpha.group != group:
        raise ValueError("alpha acts on a different group")
    n = group.order
    if n > MAX_SCAN_ORDER:
        raise SearchSpaceError(f"group order {n} exceeds scan bound {MAX_SCAN_ORDER}")
    if not alpha.is_auto:
        matrix = [list(row) for row in alpha.matrix]
        raise ValueError(f"alpha must be an automorphism, and {matrix} is not one")

    # a support of m points needs a denominator of at least m
    cap = config.denominator_cap
    max_size = min(config.support_size_cap, cap, n)
    sizes = range(1, max_size + 1)
    # a size-2 support alone carries the cap - 1 vectors (1, d - 1), so past
    # this cap the grid exceeds the bound before its count is worth summing
    if len(sizes) > 1 and cap - 1 > math.isqrt(MAX_CANDIDATES):
        raise SearchSpaceError(
            f"denominator cap {cap} exceeds {math.isqrt(MAX_CANDIDATES) + 1} "
            f"for supports of size 2 or more"
        )
    grid_count = sum(math.comb(n, m) * weight_vector_count(m, cap) for m in sizes)
    if grid_count * grid_count + config.random_trials > MAX_CANDIDATES:
        raise SearchSpaceError(
            f"search space of {grid_count}^2 grid pairs + "
            f"{config.random_trials} trials exceeds {MAX_CANDIDATES} candidates"
        )
    # a subgroup H larger than the grid's supports adds its n // |H| cosets, each
    # determining H, so the total is counted from the orders before any is listed
    subgroups = [sub for sub in all_subgroups(group) if len(sub) > max_size]
    total_candidates = grid_count + sum(n // len(sub) for sub in subgroups)
    if total_candidates**2 + config.random_trials > MAX_CANDIDATES:
        raise SearchSpaceError(
            f"search space of {total_candidates}^2 pairs exceeds {MAX_CANDIDATES}"
        )

    # supports of one size share their weight list; a coset carries uniform weights
    weights_by_size = {m: [w for w, _ in weight_vectors(m, cap)] for m in sizes}
    cosets = _coset_supports(group, subgroups)
    candidates = sorted([sup for m in sizes for sup in combinations(range(n), m)] + cosets)

    kernel = obstruction_kernel(alpha)

    act = alpha.table
    # keys[x][y] = s*n + t for the joint cell (s, t) = (x + y, x + alpha y);
    # its mirror (s, -t) has key s*n + t + flip[t], flip[t] = index(-t) - t.
    flip = [minus_t - t for t, minus_t in enumerate(group.negation_table())]
    keys: list[list[int]] = []
    for x in range(n):
        row = group.translation_row(x)
        keys.append([s * n + row[a] for s, a in zip(row, act)])

    def cell_comparisons(sup_a, sup_b):
        """(cell, mirror) lists of support positions (i, j) whose joint
        weights must agree, or None when the pair is infeasible."""
        rows = [keys[x] for x in sup_a]
        occupied = {row[y] for row in rows for y in sup_b}
        if not all(k + flip[k % n] in occupied for k in occupied):
            return None
        cells: dict[int, list[tuple[int, int]]] = {}
        for i, row in enumerate(rows):
            for j, y in enumerate(sup_b):
                cells.setdefault(row[y], []).append((i, j))
        comparisons = []
        for key, cell in cells.items():
            step = flip[key % n]
            if step > 0:
                comparisons.append((cell, cells[key + step]))
        return comparisons

    def balance_rows(comparisons, wa, m):
        """The nonzero rows v, one per comparison, for first weights wa:
        v[j] is what second-support position j adds to the cell less its
        mirror, so second weights wb balance when v . wb = 0 for each."""
        rows = []
        for cell, mirror in comparisons:
            v = [0] * m
            for i, j in cell:
                v[j] += wa[i]
            for i, j in mirror:
                v[j] -= wa[i]
            if any(v):
                rows.append(v)
        return rows

    # wb depends only on the comparisons, wa and m (fixing sup_b's weights): solve each once
    solve = cache(lambda comparisons, wa, m: balanced_weights(
        balance_rows(comparisons, wa, m), weights_by_size[m], cap))

    hits: list[SymmetryReport] = []

    @cache  # each hit law is built and classified once per scan
    def law(support, weights):
        mu = Distribution.from_weights(group, support, weights)
        return mu, classify_distribution(mu)

    def record_hit(law1, law2, source):
        if len(hits) >= MAX_HITS:
            raise SearchSpaceError(
                f"scan finds more than {MAX_HITS} symmetric hits; lower the caps"
            )
        (mu1, c1), (mu2, c2) = law1, law2
        hits.append(SymmetryReport(group, alpha, mu1, mu2, c1, c2, kernel,
                                   verdict_tags(c1, c2, kernel), source))

    viable_sets: dict[tuple[int, ...], set[int]] = {}
    for sup_a in candidates:
        vecs_a = weights_by_size[len(sup_a)] if len(sup_a) <= max_size else [(1,) * len(sup_a)]
        # An element y of a feasible sup_b has the mirrors of its cells with
        # sup_a occupied by cells of sup_a x X, so sup_b lies inside viable:
        # enumerate only those candidates, in the order of the candidate list.
        reach = set().union(*(keys[x] for x in sup_a))
        viable = viable_sets[sup_a] = set(range(n))
        for x in sup_a:
            viable &= {y for y, k in enumerate(keys[x]) if k + flip[k % n] in reach}
        inside = sorted(viable)
        supports_b = [sup for m in sizes for sup in combinations(inside, m)]
        supports_b += [coset for coset in cosets if viable.issuperset(coset)]
        for sup_b in sorted(supports_b):
            comparisons = cell_comparisons(sup_a, sup_b)
            if comparisons is None:
                continue
            if len(sup_b) > max_size:  # a coset's one uniform vector: compare cell sums of wa
                for wa in vecs_a:
                    if all(sum(wa[i] for i, _ in cell) == sum(wa[i] for i, _ in mirror)
                           for cell, mirror in comparisons):
                        record_hit(law(sup_a, wa), law(sup_b, (1,) * len(sup_b)), "grid")
                continue
            # as tuples only here: a coset pair's comparisons can be |X|^2 positions
            pattern = tuple((tuple(cell), tuple(mirror)) for cell, mirror in comparisons)
            for wa in vecs_a:
                for wb in solve(pattern, wa, len(sup_b)):
                    record_hit(law(sup_a, wa), law(sup_b, wb), "grid")

    for start in range(0, config.random_trials, PARTITION_SIZE):
        rng = random.Random(config.seed + start // PARTITION_SIZE)
        for _ in range(min(PARTITION_SIZE, config.random_trials - start)):
            mu1 = random_distribution(group, rng, config.support_size_cap, cap)
            mu2 = random_distribution(group, rng, config.support_size_cap, cap)
            # a second support outside the first's viable set is infeasible;
            # a first support the grid lacks has no viable set to test
            viable = viable_sets.get(mu1.indices)
            if ((viable is None or viable.issuperset(mu2.indices))
                    and cell_comparisons(mu1.indices, mu2.indices) is not None
                    and is_conditionally_symmetric(canonical_instance(group, alpha, mu1, mu2))):
                record_hit(law(mu1.indices, mu1.numerators),
                           law(mu2.indices, mu2.numerators), "random")

    summary = {
        "group": group_to_json(group),
        "alpha": endomorphism_to_json(alpha),
        "config": asdict(config),
        "kernel": [list(e.coords) for e in kernel],
        "i_plus_alpha_automorphism": kernel.is_trivial,
        "grid_candidates": total_candidates,
        "evaluated_pairs": total_candidates**2 + config.random_trials,
        "counts": _hit_counts(hits),
        "red_alert": any("red-alert-nonidempotent" in r.tags for r in hits),
    }
    return ScanResult(group, alpha, config, hits, summary, kernel)


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
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


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
    if k < 1:
        raise ValueError("k must be >= 1")
    # p >= 2 and k >= bit_length(bound) give p^k >= 2^k > bound: no huge p**k
    if p >= 2 and (k >= MAX_SCAN_ORDER.bit_length() or p**k > MAX_SCAN_ORDER):
        raise SearchSpaceError(
            f"group order {p}^{k} exceeds scan bound {MAX_SCAN_ORDER}"
        )
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if c % p == 0:
        raise ValueError("c must be a unit: gcd(c, p) = 1")
    c0 = c % p
    c1 = (c // p) % p
    group = make_group([p**k])
    alpha = scaling_endomorphism(group, c % p**k)
    scan = grid_scan(group, alpha, config)
    kernel = scan.kernel

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
        nonzero = [x.index for x in kernel if not x.is_zero]
        mu = Distribution.from_weights(group, nonzero[:2], [1, 1])
        inst = checked_instance(group, alpha, mu, mu, kernel, "kernel")
        if not any(r.mu1 == inst.mu1 and r.mu2 == inst.mu2 for r in scan.hits):
            c_mu = classify_distribution(mu)
            scan.hits.append(SymmetryReport(group, alpha, mu, mu, c_mu, c_mu, kernel,
                                            verdict_tags(c_mu, c_mu, kernel), "construction"))
            scan.summary["counts"] = _hit_counts(scan.hits)
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

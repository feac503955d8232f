import hashlib
import importlib
import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from heyde_lab.distributions import haar_on, make_distribution, point_mass, uniform
from heyde_lab import search
from heyde_lab.distributions import Distribution
from heyde_lab.groups import (
    Endomorphism,
    identity_endomorphism,
    make_endomorphism,
    make_group,
    neg_identity_endomorphism,
    scaling_endomorphism,
    subgroup_generated,
)
from heyde_lab.predicates import canonical_instance, is_conditionally_symmetric
from heyde_lab.search import (
    PADIC_TAG_KERNEL,
    PADIC_TAG_P2,
    PADIC_TAG_UNIT,
    PARTITION_SIZE,
    SearchConfig,
    SearchSpaceError,
    all_subgroups,
    classify_distribution,
    grid_scan,
    kernel_construction,
    order2_construction,
    padic_scan,
    random_automorphism,
    random_distribution,
    weight_vector_count,
    weight_vectors,
)
from heyde_lab.serialization import instance_to_json
from heyde_lab.verify import engineered_symmetric_instances

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

with pytest.MonkeyPatch.context() as patch:
    patch.syspath_prepend(str(SCRIPTS))
    census = importlib.import_module("census")


def elem(group, *coords):
    return group.element(coords)


# ---------------------------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------------------------


def test_weight_vector_counts():
    """Frozen counts from direct enumeration of primitive compositions."""
    assert len(weight_vectors(1, 6)) == 1
    assert len(weight_vectors(2, 6)) == 11
    assert len(weight_vectors(3, 6)) == 19


def test_weight_vector_count_matches_enumeration():
    for m in range(1, 5):
        for d in range(1, 15):
            assert weight_vector_count(m, d) == len(weight_vectors(m, d)), (m, d)


def _solutions_by_brute_force(rows, vectors):
    return [w for w in vectors if all(sum(a * b for a, b in zip(v, w)) == 0 for v in rows)]


@pytest.mark.parametrize(
    "rows, cap, expected",
    [
        ([[1, -2]], 6, [(2, 1)]),
        ([[2, -4], [-1, 2]], 6, [(2, 1)]),
        ([[1, 1]], 6, []),
        ([[1, -5]], 5, []),
        ([[1, -5]], 6, [(5, 1)]),
        ([[1, -1], [1, -2]], 6, []),
        ([[1, 1, -2], [1, -1, 0]], 6, [(1, 1, 1)]),
        ([[2, -1, -1], [1, 1, -2]], 6, [(1, 1, 1)]),
        ([[1, -1, 0], [-2, 2, 0]], 6, [(1, 1, 1), (1, 1, 2), (1, 1, 3), (2, 2, 1), (1, 1, 4)]),
        ([[1, 2, -3], [-2, 1, 0]], 13, []),
        ([[1, 2, -3], [-2, 1, 0]], 14, [(3, 6, 5)]),
        ([[1, 1, 1], [1, 0, 0]], 6, []),
        ([[1, -1, 0], [0, 1, -1], [1, 0, -2]], 6, []),
    ],
    ids=[
        "m2-rank1", "m2-parallel", "m2-no-positive", "m2-over-cap", "m2-at-cap",
        "m2-rank2", "m3-cross", "m3-sign-mixed", "m3-rank1", "m3-over-cap",
        "m3-at-cap", "m3-no-positive", "m3-rank3",
    ],
)
def test_balanced_weights_cases(rows, cap, expected):
    vectors = [w for w, _ in weight_vectors(len(rows[0]), cap)]
    assert search.balanced_weights(rows, vectors, cap) == expected
    assert _solutions_by_brute_force(rows, vectors) == expected
    # without the cap every vector is tested, with the same answer
    assert search.balanced_weights(rows, vectors) == expected


@pytest.mark.parametrize("m", [2, 3])
def test_balanced_weights_match_brute_force(m):
    """Rows orthogonal to a random integer target, positive or sign-mixed,
    within the cap or past it, with now and then a row that breaks it."""
    rng = random.Random(m)
    cap = 7
    vectors = [w for w, _ in weight_vectors(m, cap)]
    for _ in range(600):
        target = [rng.randint(-3, 9) for _ in range(m)]
        rows = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.15:
                row = [rng.randint(-4, 4) for _ in range(m)]
            elif m == 2:
                k = rng.choice([-3, -2, -1, 1, 2, 3])
                row = [k * target[1], -k * target[0]]
            else:
                a = [rng.randint(-3, 3) for _ in range(3)]
                row = [
                    a[1] * target[2] - a[2] * target[1],
                    a[2] * target[0] - a[0] * target[2],
                    a[0] * target[1] - a[1] * target[0],
                ]
            if any(row):
                rows.append(row)
        if rows:
            expected = _solutions_by_brute_force(rows, vectors)
            assert search.balanced_weights(rows, vectors, cap) == expected, rows


def test_weight_vectors_are_primitive_distributions():
    seen = set()
    for w, d in weight_vectors(3, 8):
        assert sum(w) == d and all(x >= 1 for x in w)
        fracs = tuple(Fraction(x, d) for x in w)
        assert fracs not in seen
        seen.add(fracs)


def test_all_subgroups_counts():
    assert sorted(len(s) for s in all_subgroups(make_group([15]))) == [1, 3, 5, 15]
    assert sorted(len(s) for s in all_subgroups(make_group([3, 3]))) == [
        1, 3, 3, 3, 3, 9,
    ]
    assert sorted(len(s) for s in all_subgroups(make_group([8]))) == [1, 2, 4, 8]


def test_random_distribution_shape():
    rng = random.Random(3)
    group = make_group([9])
    for _ in range(50):
        mu = random_distribution(group, rng, 3, 6)
        assert 1 <= len(mu.support()) <= 3
        assert sum(mu.probs.values()) == 1


def test_random_automorphism_is_automorphism():
    rng = random.Random(4)
    for orders in ([5], [9], [3, 3], [2, 3]):
        group = make_group(orders)
        for _ in range(10):
            assert random_automorphism(group, rng).is_auto


def _stdlib_distribution(group, rng, support_cap, weight_cap):
    """random_distribution as written with the stdlib's randint and sample."""
    size = rng.randint(1, min(support_cap, group.order))
    support = sorted(rng.sample(range(group.order), size))
    return Distribution.from_weights(group, support, [rng.randint(1, weight_cap) for _ in support])


def _stdlib_automorphism(group, rng):
    """random_automorphism as written with the stdlib's randrange."""
    orders = group.cyclic_orders
    while True:
        matrix = [
            [(a // math.gcd(a, b)) * rng.randrange(math.gcd(a, b)) for b in orders]
            for a in orders
        ]
        endo = make_endomorphism(group, matrix)
        if endo.is_auto:
            return endo


@pytest.mark.parametrize("order", [2, 9, 15, 16, 17, 21, 27, 64, 81, 243, 1024])
def test_random_distribution_equals_stdlib_draws(order):
    """Draws taken straight from getrandbits give the laws that randint and
    sample give on the running interpreter, and leave the same generator
    state.  sample swaps within a pool when the order is at most its set
    size (21, or 85 for sizes 6 to 8) and keeps a rejection set otherwise:
    Z21 sits on the first bound, support cap 8 on Z27, Z64 and Z81 runs both
    branches, and Z243 and Z1024 the rejection set at the larger size.  Each
    bound is drawn with its own bit length, so the pool sizes n - i of Z2,
    Z16, Z17 and Z64 and the weight caps 2 and 8 step across powers of two."""
    group = make_group([order])
    for support_cap in (1, 3, 8):
        for weight_cap in (1, 2, 6, 8, 12):
            seed = order * 100 + support_cap * 10 + weight_cap
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(200):
                assert random_distribution(group, ours, support_cap, weight_cap) == (
                    _stdlib_distribution(group, ref, support_cap, weight_cap)
                )
            assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("orders", [[15], [3, 9], [2, 4, 8], [2, 9]])
def test_random_automorphism_equals_stdlib_draws(orders):
    """Entries drawn from getrandbits equal randrange's, also the draw from
    range(1) that Z2xZ9's coprime off-diagonal entries still consume."""
    group = make_group(orders)
    ours, ref = random.Random(7), random.Random(7)
    for _ in range(200):
        assert random_automorphism(group, ours).matrix == _stdlib_automorphism(group, ref).matrix
    assert ours.getstate() == ref.getstate()


def test_random_draws_refuse_an_empty_range():
    """A zero cap raises, as randint(1, 0) does, instead of spinning on
    getrandbits(0) == 0."""
    group, rng = make_group([9]), random.Random(0)
    with pytest.raises(ValueError, match="^empty range for a draw below 0$"):
        random_distribution(group, rng, 0, 6)
    with pytest.raises(ValueError, match="^empty range for a draw below 0$"):
        random_distribution(group, rng, 3, 0)
    with pytest.raises(ValueError):
        search._below(rng.getrandbits, -1)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(support_size_cap=0)
    with pytest.raises(ValueError):
        SearchConfig(random_trials=-1)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def test_kernel_construction_z9():
    g9 = make_group([9])
    alpha = scaling_endomorphism(g9, 5)
    mu = make_distribution(
        g9, {elem(g9, 3): Fraction(1, 2), elem(g9, 6): Fraction(1, 2)}
    )
    inst = kernel_construction(g9, alpha, mu)
    assert is_conditionally_symmetric(inst)
    assert classify_distribution(mu)["kind"] == "other"


def test_kernel_construction_haar_weights():
    g9 = make_group([9])
    kernel = subgroup_generated(g9, [elem(g9, 3)])
    inst = kernel_construction(g9, scaling_endomorphism(g9, 5), haar_on(kernel))
    assert is_conditionally_symmetric(inst)


def test_kernel_construction_rejections():
    g5 = make_group([5])
    with pytest.raises(ValueError):
        kernel_construction(g5, scaling_endomorphism(g5, 2), uniform(g5))
    g9 = make_group([9])
    escaping = make_distribution(
        g9, {elem(g9, 3): Fraction(1, 2), elem(g9, 1): Fraction(1, 2)}
    )
    with pytest.raises(ValueError):
        kernel_construction(g9, scaling_endomorphism(g9, 5), escaping)


def test_order2_construction_examples():
    g23 = make_group([2, 3])
    mu1 = point_mass(g23, elem(g23, 1, 0))
    mu2 = make_distribution(
        g23,
        {elem(g23, 0, 0): Fraction(1, 3), elem(g23, 1, 0): Fraction(2, 3)},
    )
    inst = order2_construction(g23, identity_endomorphism(g23), mu1, mu2)
    assert is_conditionally_symmetric(inst)

    g4 = make_group([4])
    nu = make_distribution(
        g4, {elem(g4, 0): Fraction(1, 4), elem(g4, 2): Fraction(3, 4)}
    )
    inst = order2_construction(g4, scaling_endomorphism(g4, 3), nu, nu)
    assert is_conditionally_symmetric(inst)

    with pytest.raises(ValueError):
        order2_construction(
            make_group([5]),
            identity_endomorphism(make_group([5])),
            uniform(make_group([5])),
            uniform(make_group([5])),
        )


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------


def _scan(orders, a, **kwargs):
    group = make_group(orders)
    config = SearchConfig(**kwargs)
    return grid_scan(group, scaling_endomorphism(group, a), config)


def test_scan_z5_all_hits_idempotent():
    result = _scan([5], 2, support_size_cap=3, denominator_cap=6,
                   random_trials=500, seed=11)
    assert result.hits
    assert all(r.pair_idempotent for r in result.hits)
    assert not result.red_alert
    degenerate = [
        r for r in result.hits
        if r.mu1_class["kind"] == "degenerate"
        and r.mu2_class["kind"] == "degenerate"
    ]
    group = result.group
    alpha = result.alpha
    for r in degenerate:
        x1 = r.mu1.support()[0]
        x2 = r.mu2.support()[0]
        assert (x1 + alpha(x2)).is_zero
    assert result.summary["counts"]["other"] == 0


def test_scan_z9_kernel_finds_counterexamples():
    result = _scan([9], 5, support_size_cap=3, denominator_cap=4,
                   random_trials=200, seed=2)
    non_idempotent = [r for r in result.hits if not r.pair_idempotent]
    assert non_idempotent
    assert all("kernel-counterexample" in r.tags for r in non_idempotent)
    assert not result.summary["i_plus_alpha_automorphism"]
    # the explicit iid kernel pair is rediscovered by the grid
    g9 = make_group([9])
    target = make_distribution(
        g9, {elem(g9, 3): Fraction(1, 2), elem(g9, 6): Fraction(1, 2)}
    )
    assert any(r.mu1 == target and r.mu2 == target for r in result.hits)


def test_scan_z15_finds_haar_pair():
    result = _scan([15], 7, support_size_cap=3, denominator_cap=6,
                   random_trials=0, seed=0)
    g15 = make_group([15])
    mk = haar_on(subgroup_generated(g15, [elem(g15, 3)]))
    matching = [r for r in result.hits if r.mu1 == mk and r.mu2 == mk]
    assert len(matching) == 1
    report = matching[0]
    assert report.mu1_class["kind"] == "idempotent-shift"
    assert report.mu1_class["shift"] == [0]
    assert len(report.mu1_class["subgroup"]) == 5
    assert "theoremB-consistent" in report.tags


def test_scan_reflected_form_hits_are_iid():
    result = _scan([5], 4, support_size_cap=3, denominator_cap=6,
                   random_trials=300, seed=17)
    assert result.hits
    assert all(r.mu1 == r.mu2 for r in result.hits)


def test_scan_reproducible_bit_for_bit():
    r1 = _scan([7], 3, random_trials=400, seed=23)
    r2 = _scan([7], 3, random_trials=400, seed=23)
    assert json.dumps([h.to_json() for h in r1.hits]) == json.dumps(
        [h.to_json() for h in r2.hits]
    )
    assert r1.summary == r2.summary
    r3 = _scan([7], 3, random_trials=400, seed=24)
    assert r3.summary["config"]["seed"] != r1.summary["config"]["seed"]


def test_scan_hits_verified_against_predicate():
    """Every emitted hit re-checks as symmetric via the exact predicate."""
    from heyde_lab.predicates import canonical_instance

    result = _scan([9], 5, support_size_cap=2, denominator_cap=4,
                   random_trials=100, seed=5)
    for r in result.hits:
        inst = canonical_instance(r.group, r.alpha, r.mu1, r.mu2)
        assert is_conditionally_symmetric(inst)


def _non_diagonal_automorphism(group, seed):
    rng = random.Random(seed)
    for _ in range(100):
        alpha = random_automorphism(group, rng)
        m = alpha.matrix
        if any(m[i][j] or m[j][i] for i in range(group.rank) for j in range(i)):
            return alpha
    raise AssertionError(f"no non-diagonal automorphism of {group} drawn")


def _symmetric(group, alpha, mu1, mu2):
    return is_conditionally_symmetric(canonical_instance(group, alpha, mu1, mu2))


@pytest.mark.parametrize(
    "orders, make_alpha, caps",
    [
        ([2, 6], lambda g: _non_diagonal_automorphism(g, 1), (3, 4)),
        ([3, 3], lambda g: _non_diagonal_automorphism(g, 2), (3, 4)),
        ([8], lambda g: scaling_endomorphism(g, 3), (2, 3)),
        ([9], neg_identity_endomorphism, (3, 4)),
        # draws of 3 points are no grid support, so no viable set rejects them
        ([2, 2], identity_endomorphism, (3, 2)),
        # 3-point draws on a coset of <3> read that coset candidate's viable
        # set, and other 3-point draws have none
        ([9], lambda g: scaling_endomorphism(g, 2), (3, 2)),
        ([3, 3], lambda g: _non_diagonal_automorphism(g, 2), (3, 2)),
    ],
    ids=["Z2xZ6", "Z3xZ3", "Z8-alpha3", "Z9-minusI", "Z2xZ2-past-grid", "Z9-alpha2-past-grid",
         "Z3xZ3-past-grid"],
)
def test_random_phase_matches_exact_predicate(orders, make_alpha, caps):
    """The random hits of a scan are exactly the symmetric draws of a
    reference loop that re-draws the same seeded partitions and decides
    each pair with the exact predicate."""
    group = make_group(orders)
    alpha = make_alpha(group)
    config = SearchConfig(
        support_size_cap=caps[0],
        denominator_cap=caps[1],
        random_trials=PARTITION_SIZE + 300,
        seed=7,
    )
    expected = []
    done = partition = 0
    while done < config.random_trials:
        rng = random.Random(config.seed + partition)
        block = min(PARTITION_SIZE, config.random_trials - done)
        for _ in range(block):
            mu1 = random_distribution(group, rng, *caps)
            mu2 = random_distribution(group, rng, *caps)
            if _symmetric(group, alpha, mu1, mu2):
                expected.append((mu1, mu2))
        done += block
        partition += 1
    assert expected
    result = grid_scan(group, alpha, config)
    found = [(r.mu1, r.mu2) for r in result.hits if r.source == "random"]
    assert found == expected


def _viable(group, alpha, support):
    """The y whose joint cell (x + y, x + alpha y) with each x of support has
    its mirror (s, -t) among the cells of support x X."""
    el = [group.elements[i] for i in support]
    return {
        y.index for y in group.elements
        if all(any(z + alpha(x + y - z) == -(x + alpha(y)) for z in el) for x in el)
    }


@pytest.mark.parametrize(
    "orders, make_alpha, caps, shape",
    [
        ([2, 4], lambda g: _non_diagonal_automorphism(g, 3), (2, 3), "coset"),
        ([15], lambda g: scaling_endomorphism(g, 7), (2, 2), "proper"),
        ([9], neg_identity_endomorphism, (2, 3), "full"),
        ([3, 3], lambda g: _non_diagonal_automorphism(g, 2), (2, 3), "proper"),
        ([5], neg_identity_endomorphism, (3, 5), "proper"),
        ([9], neg_identity_endomorphism, (2, 2), "coset"),
        # pairs of 3-point supports whose cells agree and whose mirrors differ
        ([4], neg_identity_endomorphism, (3, 4), "full"),
    ],
    ids=["Z2xZ4", "Z15-alpha7", "Z9-minusI", "Z3xZ3", "Z5-minusI-cap3", "Z9-minusI-cap2",
         "Z4-minusI-cap3"],
)
def test_grid_phase_finds_every_symmetric_candidate_pair(orders, make_alpha, caps, shape):
    """Brute force over every candidate pair of a scan: the grid hits are
    exactly the pairs the exact predicate accepts, in emission order.  Each
    case shows its shape of viable set for some first support: a proper
    subset, the whole group, or one containing a coset candidate."""
    group = make_group(orders)
    alpha = make_alpha(group)
    config = SearchConfig(support_size_cap=caps[0], denominator_cap=caps[1], random_trials=0)
    max_size = min(*caps, group.order)
    elements = group.elements
    candidates = {}
    for m in range(1, max_size + 1):
        for support in combinations(range(group.order), m):
            candidates[support] = list(weight_vectors(m, config.denominator_cap))
    cosets = set()
    for sub in all_subgroups(group):
        if len(sub) <= max_size:
            continue
        for x in elements:
            coset = tuple(sorted(group.index(x + k) for k in sub))
            cosets.add(coset)
            vec = ((1,) * len(sub), len(sub))
            if vec not in candidates.setdefault(coset, []):
                candidates[coset].append(vec)
    viable = [_viable(group, alpha, support) for support in candidates]
    assert any({
        "proper": 0 < len(v) < group.order,
        "full": len(v) == group.order,
        "coset": any(v.issuperset(c) for c in cosets),
    }[shape] for v in viable)
    by_support = [
        [
            Distribution(
                group, {elements[i]: Fraction(w, d) for i, w in zip(support, ws)}
            )
            for ws, d in candidates[support]
        ]
        for support in sorted(candidates)
    ]
    expected = [
        (mu1, mu2)
        for dists_a in by_support
        for dists_b in by_support
        for mu1 in dists_a
        for mu2 in dists_b
        if _symmetric(group, alpha, mu1, mu2)
    ]
    result = grid_scan(group, alpha, config)
    assert result.summary["grid_candidates"] == sum(map(len, by_support))
    assert [(r.mu1, r.mu2) for r in result.hits if r.source == "grid"] == expected
    # Theorem B: hits are idempotent when Ker(I + alpha) is trivial; a
    # nontrivial kernel shows here in a non-idempotent hit
    assert any(not r.pair_idempotent for r in result.hits) != result.kernel.is_trivial


def test_grid_solves_each_comparison_pattern_once(monkeypatch):
    """Z9 with alpha = 8 at caps 3/6: the grid's 2,001 weight solves, one per
    feasible grid support pair and first weight vector, share 99 distinct
    (comparisons, first weights, second-support size) keys, and each is
    solved once.  With the solve memo bypassed the hits are the same."""
    group = make_group([9])
    alpha = scaling_endomorphism(group, 8)
    config = SearchConfig(support_size_cap=3, denominator_cap=6, random_trials=0)
    solves = []
    solve = search.balanced_weights
    monkeypatch.setattr(search, "balanced_weights", lambda *args: solves.append(1) or solve(*args))
    hits = [(r.mu1, r.mu2, r.source) for r in grid_scan(group, alpha, config).hits]
    assert len(hits) == 2002 and len(solves) <= 99
    solves.clear()
    monkeypatch.setattr(search, "cache", lambda f: f)
    assert [(r.mu1, r.mu2, r.source) for r in grid_scan(group, alpha, config).hits] == hits
    assert len(solves) == 2001


def test_exact_predicate_decides_random_draws(monkeypatch):
    """The exact predicate alone decides a random draw that passes the
    viable-set and occupancy rejections: with it patched to reject every
    pair, the random phase keeps no hit and the grid's hits are unchanged."""
    group = make_group([9])
    alpha = neg_identity_endomorphism(group)
    config = SearchConfig(
        support_size_cap=1, denominator_cap=1, random_trials=200, seed=3
    )
    reference = grid_scan(group, alpha, config).hits
    assert any(r.source == "random" for r in reference)
    monkeypatch.setattr(search, "is_conditionally_symmetric", lambda inst: False)
    hits = grid_scan(group, alpha, config).hits
    assert all(r.source == "grid" for r in hits)
    assert [r.to_json() for r in hits] == [
        r.to_json() for r in reference if r.source == "grid"
    ]


def test_hit_bound_admits_exactly_max_hits(monkeypatch):
    group = make_group([2, 2])
    alpha = identity_endomorphism(group)
    config = SearchConfig(
        support_size_cap=1, denominator_cap=1, random_trials=0, seed=0
    )
    count = len(grid_scan(group, alpha, config).hits)
    monkeypatch.setattr(search, "MAX_HITS", count)
    assert len(grid_scan(group, alpha, config).hits) == count
    monkeypatch.setattr(search, "MAX_HITS", count - 1)
    with pytest.raises(SearchSpaceError, match=f"more than {count - 1} "):
        grid_scan(group, alpha, config)


def test_scan_space_overflow_guard():
    g27 = make_group([27])
    with pytest.raises(SearchSpaceError):
        grid_scan(g27, scaling_endomorphism(g27, 4), SearchConfig())


def test_scan_denominator_cap_is_bounded_before_enumerating():
    """Singleton supports carry one vector, (1,), whatever the cap; with
    larger supports in play a large cap is refused, not enumerated."""
    g5 = make_group([5])
    alpha = scaling_endomorphism(g5, 2)

    def hits(support_cap, denominator_cap):
        config = SearchConfig(support_cap, denominator_cap, random_trials=0)
        start = time.perf_counter()
        scan = grid_scan(g5, alpha, config)
        assert time.perf_counter() - start < 1
        return [(r.mu1, r.mu2, r.source) for r in scan.hits]

    assert hits(1, 10**12) == hits(1, 1)
    for cap in (400, 10**9):
        start = time.perf_counter()
        with pytest.raises(SearchSpaceError):
            grid_scan(g5, alpha, SearchConfig(3, cap, random_trials=0))
        assert time.perf_counter() - start < 1


def test_scan_refuses_group_and_alpha_before_building_tables():
    """A group past MAX_SCAN_ORDER is refused before its element table or any
    translation row is built; an alpha of another group is refused outright."""
    group = make_group([2, 513])
    with pytest.raises(SearchSpaceError, match=r"^group order 1026 exceeds scan bound 1024$"):
        grid_scan(group, identity_endomorphism(group), SearchConfig())
    assert group._elements is None and group._translations == {}
    with pytest.raises(ValueError, match="^alpha acts on a different group$"):
        grid_scan(make_group([5]), identity_endomorphism(make_group([7])), SearchConfig())


def test_scan_space_guard_counts_grid_before_enumerating():
    """Caps 3/6 on Z27: 27*1 + C(27,2)*11 + C(27,3)*19 grid candidates,
    with the weight-vector counts of test_weight_vector_counts."""
    g27 = make_group([27])
    count = 27 * 1 + 351 * 11 + 2925 * 19
    with pytest.raises(SearchSpaceError, match=rf"^search space of {count}\^2 grid"):
        grid_scan(g27, scaling_endomorphism(g27, 4), SearchConfig())


def test_scan_counts_cosets_before_listing_them():
    """Z3 x Z9 x Z27 with alpha = 2 at caps 1/1: 729 singletons and one
    uniform candidate per coset of each of its nontrivial subgroups make
    10390 candidates, counted from the subgroup orders, so the scan is
    refused before any coset is listed or any translation row built."""
    group = make_group([3, 9, 27])
    config = SearchConfig(support_size_cap=1, denominator_cap=1, random_trials=0)
    with pytest.raises(SearchSpaceError, match=r"^search space of 10390\^2 pairs exceeds"):
        grid_scan(group, scaling_endomorphism(group, 2), config)
    assert group._translations == {}


@pytest.mark.parametrize("orders", census.group_types(16), ids=lambda t: "x".join(map(str, t)))
def test_coset_supports_list_each_coset_once(orders):
    """Above max sizes 1 and 2, the closure lists every coset of every larger
    subgroup exactly once, as the census's coordinate cosets do."""
    group = make_group(orders)
    for max_size in (1, 2):
        larger = [sub for sub in all_subgroups(group) if len(sub) > max_size]
        expected = [
            support
            for h, cosets in census._cosets(group) if len(h) > max_size
            for support, _ in cosets
        ]
        assert sorted(search._coset_supports(group, larger)) == sorted(expected)


@pytest.mark.parametrize("caps,bounded", [((4, 3), (3, 3)), ((3, 1), (1, 1))])
def test_support_cap_beyond_denominator_cap_builds_no_supports(monkeypatch, caps, bounded):
    """A support of m points needs a denominator of at least m: a support cap
    above the denominator cap changes neither the hits nor the summary, and
    the grid asks for no weight vectors of a size above the denominator cap."""
    g15 = make_group([15])
    alpha = scaling_endomorphism(g15, 7)
    sizes = []
    weight_vectors = search.weight_vectors
    monkeypatch.setattr(
        search, "weight_vectors", lambda m, d: sizes.append(m) or weight_vectors(m, d)
    )

    def outcome(support_cap, denominator_cap):
        scan = grid_scan(g15, alpha, SearchConfig(support_cap, denominator_cap, random_trials=0))
        summary = {k: v for k, v in scan.summary.items() if k != "config"}
        return [r.to_json() for r in scan.hits], summary

    assert outcome(*caps) == outcome(*bounded)
    assert max(sizes) <= caps[1]


# ---------------------------------------------------------------------------
# finite-level p-power scans
# ---------------------------------------------------------------------------

PADIC_CONFIG = SearchConfig(
    support_size_cap=2, denominator_cap=4, random_trials=500, seed=31
)


def test_padic_validation():
    with pytest.raises(ValueError):
        padic_scan(4, 2, 3, PADIC_CONFIG)
    with pytest.raises(ValueError):
        padic_scan(3, 0, 2, PADIC_CONFIG)
    with pytest.raises(ValueError):
        padic_scan(3, 2, 6, PADIC_CONFIG)


def test_padic_digits():
    report = padic_scan(3, 2, 5, PADIC_CONFIG)
    assert (report.c0, report.c1) == (2, 1)
    report = padic_scan(3, 2, 4, PADIC_CONFIG)
    assert (report.c0, report.c1) == (1, 1)


def test_padic_unit_case():
    report = padic_scan(3, 3, 4, PADIC_CONFIG)
    assert report.tag == PADIC_TAG_UNIT
    assert report.consistent is True
    assert report.kernel.is_trivial
    assert all(r.pair_idempotent for r in report.scan.hits)


def test_padic_kernel_case():
    report = padic_scan(3, 3, 5, PADIC_CONFIG)
    assert report.tag == PADIC_TAG_KERNEL
    assert report.consistent is True
    assert [x.coords[0] for x in report.kernel] == [0, 9, 18]
    assert any(not r.pair_idempotent for r in report.scan.hits)


@pytest.mark.parametrize("caps", [(1, 1), (2, 4)])
def test_padic_builds_the_obstruction_kernel_once(monkeypatch, caps):
    """The scan's Ker(I + alpha) serves the report and the injected
    construction; caps 1/1 force the injection."""
    calls = []
    original = Endomorphism.kernel

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Endomorphism, "kernel", counted)
    config = SearchConfig(
        support_size_cap=caps[0], denominator_cap=caps[1], random_trials=50
    )
    report = padic_scan(3, 3, 5, config)
    assert [x.coords[0] for x in report.kernel] == [0, 9, 18]
    assert len(calls) == 1


def test_engineered_pool_builds_each_obstruction_kernel_once(monkeypatch):
    """The pool hands the Ker(I + beta) it tested to the checked-instance
    helper, so its two constructions build no kernel of their own; the
    pool's content is pinned."""
    calls = []
    original = Endomorphism.kernel

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Endomorphism, "kernel", counted)
    pool = engineered_symmetric_instances(0)
    assert len(calls) == 124
    encoded = json.dumps([instance_to_json(inst) for inst in pool], sort_keys=True)
    assert hashlib.sha256(encoded.encode()).hexdigest() == (
        "676bc29e5863c663bbe9edc5c3b84800d5b514e921f46b2723a66587175a1702"
    )


def test_padic_counts_include_injected_construction():
    """Caps 1/1 cannot hold a two-point pair, so the construction is
    injected and the counts must recount it."""
    config = SearchConfig(
        support_size_cap=1, denominator_cap=1, random_trials=0, seed=0
    )
    report = padic_scan(3, 2, 2, config)
    hits = report.scan.hits
    assert hits[-1].source == "construction"
    kinds = [(r.mu1_class["kind"], r.mu2_class["kind"]) for r in hits]
    degenerate = kinds.count(("degenerate", "degenerate"))
    idempotent = sum(r.pair_idempotent for r in hits) - degenerate
    assert report.scan.summary["counts"] == {
        "symmetric": len(hits),
        "idempotent": idempotent,
        "degenerate": degenerate,
        "other": len(hits) - idempotent - degenerate,
    }
    assert report.scan.summary["counts"]["other"] == 1


def test_padic_exploratory_p2():
    report = padic_scan(2, 3, 3, PADIC_CONFIG)
    assert report.tag == PADIC_TAG_P2
    assert report.consistent is None
    assert not report.kernel.is_trivial
    assert "does not lift" in report.note or "no conclusion" in report.note


def test_padic_alpha_neg_identity_level_one():
    """p=3, k=1, c=2: the map is negation, every iid pair is symmetric."""
    report = padic_scan(3, 1, 2, PADIC_CONFIG)
    group = report.group
    assert len(report.kernel) == group.order
    rng = random.Random(0)
    for _ in range(10):
        mu = random_distribution(group, rng, 3, 6)
        inst = kernel_construction(
            group, scaling_endomorphism(group, 2), mu
        )
        assert is_conditionally_symmetric(inst)

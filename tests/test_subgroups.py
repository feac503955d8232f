"""Subgroups built by algebra (closures, kernels, images, annihilators and
the subgroup lattice) against the validating constructor and against their
definitions."""

import copy
import hashlib
import math
import pickle
import random
import re
from itertools import combinations, product

import pytest

from heyde_lab import search
from heyde_lab.groups import (
    Subgroup,
    annihilator,
    make_endomorphism,
    make_group,
    order2_subgroup,
    pairing_is_trivial,
    subgroup_generated,
)
from heyde_lab.search import all_subgroups

ORDERS = [[2, 2, 2, 2], [4, 2], [2, 6], [3, 9], [8, 2], [2, 4, 4]]


def validated(sub):
    """The same element set through the checking constructor."""
    return Subgroup(sub.parent, sub.elements)


def compatible_matrices(group, rng, count):
    """Random matrices with a nonzero off-diagonal entry whose entries
    satisfy n_j * a_ij = 0 (mod n_i): a_ij is a multiple of n_i / gcd."""
    orders = group.cyclic_orders
    steps = [[n_i // math.gcd(n_i, n_j) for n_j in orders] for n_i in orders]
    matrices = []
    while len(matrices) < count:
        matrix = [
            [step * rng.randrange(n_i // step) for step in row]
            for row, n_i in zip(steps, orders)
        ]
        if any(matrix[i][j] for i in range(group.rank) for j in range(group.rank) if i != j):
            matrices.append(matrix)
    return matrices


@pytest.mark.parametrize("orders", ORDERS)
def test_kernel_and_image_equal_validated_subgroups(orders):
    group = make_group(orders)
    for matrix in compatible_matrices(group, random.Random(str(orders)), 25):
        alpha = make_endomorphism(group, matrix)
        kernel, image = alpha.kernel(), alpha.image()
        assert kernel == validated(kernel)
        assert image == validated(image)
        assert set(kernel) == {x for x in group.elements if alpha(x).is_zero}
        assert set(image) == {alpha(x) for x in group.elements}


@pytest.mark.parametrize("orders", ORDERS)
def test_generated_subgroups_equal_validated_subgroups(orders):
    group = make_group(orders)
    rng = random.Random(str(orders))
    generator_sets = [[x] for x in group.elements]
    generator_sets += [rng.sample(group.elements, 2) for _ in range(20)]
    generator_sets += [rng.sample(group.elements, 3) for _ in range(10)]
    for gens in generator_sets:
        sub = subgroup_generated(group, gens)
        assert sub == validated(sub)
        assert all(g in sub for g in gens)


@pytest.mark.parametrize("orders", ORDERS)
def test_lattice_annihilators_and_order2_equal_validated_subgroups(orders):
    group = make_group(orders)
    subgroups = all_subgroups(group)
    for sub in subgroups:
        assert sub == validated(sub)
        assert annihilator(sub) == validated(annihilator(sub))
    assert order2_subgroup(group) == validated(order2_subgroup(group))
    assert len(set(subgroups)) == len(subgroups)


def test_unchecked_subgroup_copies_pickles_and_hashes():
    group = make_group([2, 4, 4])
    alpha = make_endomorphism(group, [[1, 0, 0], [0, 1, 2], [2, 0, 3]])
    for sub in (
        alpha.kernel(),
        alpha.image(),
        subgroup_generated(group, [group.element([1, 2, 0])]),
        annihilator(subgroup_generated(group, [group.element([0, 0, 1])])),
        order2_subgroup(group),
    ):
        for twin in (copy.deepcopy(sub), pickle.loads(pickle.dumps(sub))):
            assert twin == sub == validated(sub)
            assert hash(twin) == hash(sub) == hash(validated(sub))
            assert all(x in twin for x in sub)
            assert len(twin) == len(sub)


@pytest.mark.parametrize("orders", ORDERS)
def test_annihilator_matches_definition_and_is_an_involution(orders):
    group = make_group(orders)
    for sub in all_subgroups(group):
        ann = annihilator(sub)
        expected = [
            y for y in group.elements if all(pairing_is_trivial(x, y) for x in sub)
        ]
        assert list(ann.elements) == expected
        assert annihilator(ann) == sub


@pytest.mark.parametrize("orders", ORDERS)
def test_order2_subgroup_matches_definition(orders):
    group = make_group(orders)
    expected = [x for x in group.elements if (2 * x).is_zero]
    assert list(order2_subgroup(group).elements) == expected


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("q,n,count", [(2, 4, 67), (2, 5, 374), (2, 6, 2825), (3, 3, 28)])
def test_elementary_abelian_lattice_size(q, n, count):
    """An elementary abelian group (Z_q)^n has as many subgroups as F_q^n
    has subspaces: the sum over k of the Gaussian binomials [n, k]_q."""
    assert sum(gaussian_binomial(n, k, q) for k in range(n + 1)) == count
    assert len(all_subgroups(make_group([q] * n))) == count


@pytest.mark.parametrize(
    "orders,count,digest",
    [
        ([2, 4, 4], 54, "65dad76f72dc5d402f1c31c20831de4d32bf74208f42745943fcbdb2591a29f6"),
        ([3, 9], 10, "2c8cac03ca396fcf157a0dfa586c579d785cd6553fbee5a44da9ab309dbadef2"),
        ([1024], 11, "6557b75d953186e42e7fb849f9363e68054706c2a94124427f72e7b1ff6ab78a"),
        ([3, 9, 27], 202, "c07e472c481814dc34a481d8bf39d0f8f194fa34a3b5e17257147e0561a65e90"),
    ],
)
def test_lattice_pinned(orders, count, digest):
    """all_subgroups in its (size, coordinates) order, pinned by hash."""
    rows = [(len(s), tuple(e.coords for e in s)) for s in all_subgroups(make_group(orders))]
    assert rows == sorted(rows)
    assert len(rows) == count
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_lattice_closed_under_sum_and_intersection():
    """Z4 x Z2: the sum and the intersection of two subgroups are in the
    list, and every cyclic subgroup is."""
    group = make_group([4, 2])
    subgroups = set(all_subgroups(group))
    for a, b in combinations(subgroups, 2):
        assert subgroup_generated(group, [*a, *b]) in subgroups
        assert Subgroup(group, set(a) & set(b)) in subgroups
    assert all(subgroup_generated(group, [x]) in subgroups for x in group.elements)


def _closed_under_addition(elements):
    return all(x + y in elements for x in elements for y in elements)


@pytest.mark.parametrize("orders", [[4, 6], [2, 2, 2]])
def test_validation_accepts_exactly_the_sets_closed_under_addition(orders):
    """Subgroup(...) against a brute-force oracle over pairs, on random sets
    with 0 added (every such set on Z2^3), and on subgroups with an element
    dropped; a rejection names an element that the set generates but lacks."""
    group = make_group(orders)
    rng = random.Random(str(orders))
    others = group.elements[1:]
    if group.order <= 8:
        sets = [set(c) for m in range(len(others) + 1) for c in combinations(others, m)]
    else:
        sets = [set(rng.sample(others, rng.randrange(len(others) + 1))) for _ in range(300)]
        for sub in all_subgroups(group):
            sets.append(set(sub))
            sets.append(set(sub) - {rng.choice(sub.elements)})
    accepted = 0
    for members in sets:
        members.add(group.zero)
        if _closed_under_addition(members):
            assert set(Subgroup(group, members)) == members
            accepted += 1
            continue
        with pytest.raises(ValueError) as exc:
            Subgroup(group, members)
        coords = re.search(r"generate \(([\d,]+)\)", str(exc.value)).group(1)
        named = group.element(int(c) for c in coords.split(","))
        assert named in subgroup_generated(group, members) and named not in members
    assert accepted >= len(all_subgroups(group))


#: Every abelian group type of order at most 16, by invariant factors.
TYPES_TO_16 = [
    [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2], [9], [3, 3], [10],
    [11], [12], [2, 6], [13], [14], [15], [16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2],
]


def coordinate_closure(orders, generators):
    """The subgroup the generators generate, on coordinate tuples."""
    members = {(0,) * len(orders)}
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = tuple((a + b) % n for a, b, n in zip(x, g, orders))
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


@pytest.mark.parametrize("orders", TYPES_TO_16, ids=lambda o: "Z" + "xZ".join(map(str, o)))
def test_lattice_is_every_closure_of_at_most_rank_elements(orders):
    """A subgroup of a group of rank r is generated by r elements, so the
    closures of every set of at most r elements are every subgroup; in
    (size, coordinates) order they are the lattice the walk returns."""
    elements = sorted(product(*map(range, orders)))
    closures = {
        coordinate_closure(orders, gens)
        for r in range(len(orders) + 1)
        for gens in combinations(elements, r)
    }
    expected = sorted((len(c), tuple(sorted(c))) for c in closures)
    found = [(len(s), tuple(e.coords for e in s)) for s in all_subgroups(make_group(orders))]
    assert found == expected


def test_walk_adjoins_each_cyclic_extension_once(monkeypatch):
    """Z1024's 11 subgroups take at most 100 closures: the elements of a
    coset H + m*x with gcd(m, k) = 1 are never adjoined to H again."""
    calls = []
    closure = search._closure

    def counted(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(search, "_closure", counted)
    assert len(search.all_subgroups(make_group([1024]))) == 11
    assert len(calls) <= 100


def test_walk_refuses_a_lattice_past_its_bound(monkeypatch):
    """Z2^4 has 67 subgroups: the walk lists them all at a bound of 67 and
    raises SearchSpaceError at 66, before it returns any."""
    group = make_group([2, 2, 2, 2])
    monkeypatch.setattr(search, "MAX_SUBGROUPS", 67)
    assert len(all_subgroups(group)) == 67
    monkeypatch.setattr(search, "MAX_SUBGROUPS", 66)
    with pytest.raises(search.SearchSpaceError, match="has over 66 subgroups"):
        all_subgroups(group)

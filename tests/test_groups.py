import cmath
import copy
import io
import math
import pickle
import random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

from heyde_lab import cli, groups, verify
from heyde_lab.groups import (
    Endomorphism,
    IncompatibleMatrixError,
    Subgroup,
    annihilator,
    character,
    identity_endomorphism,
    make_endomorphism,
    make_group,
    neg_identity_endomorphism,
    order2_subgroup,
    pairing_is_trivial,
    scaling_endomorphism,
    subgroup_generated,
)
from heyde_lab.distributions import uniform
from heyde_lab.predicates import canonical_instance
from heyde_lab.serialization import SchemaError, endomorphism_from_json

SMALL_ORDERS = [[5], [9], [2, 3], [3, 3], [4], [12]]


def elem(group, *coords):
    return group.element(coords)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "orders,expected",
    [([5], 5), ([3, 3], 9), ([9, 3], 27)],
)
def test_make_group_order(orders, expected):
    group = make_group(orders)
    assert group.order == expected
    assert group.cyclic_orders == tuple(orders)
    assert len(group.elements) == expected


def test_make_group_rejects_small_factor():
    with pytest.raises(ValueError):
        make_group([1, 5])
    with pytest.raises(ValueError):
        make_group([])


def test_constructors_reject_non_integers():
    """Orders, coordinates and matrix entries must be integers, not values
    that truncate to one."""
    with pytest.raises(TypeError):
        make_group([9.5])
    g9 = make_group([9])
    with pytest.raises(TypeError):
        g9.element([1.7])
    with pytest.raises(TypeError):
        make_endomorphism(g9, [[2.9]])
    np = pytest.importorskip("numpy", exc_type=ImportError)
    assert make_group([np.int64(9)]) == g9
    assert make_endomorphism(g9, [[np.int64(2)]]).matrix == ((2,),)


def test_make_group_rejects_over_cap():
    with pytest.raises(ValueError):
        make_group([1001, 1000])


def test_element_order_is_lexicographic():
    group = make_group([2, 3])
    coords = [e.coords for e in group.elements]
    assert coords == sorted(coords)


@pytest.mark.parametrize("orders", [[4, 2], [2, 6], [9, 3], [3, 3, 3], [243], [2, 2, 2]])
def test_index_tables_match_element_arithmetic(orders):
    """The index core on mixed-radix products: ranks, negation and every
    translation row agree with GroupElement arithmetic; the negation table
    is built once and cannot be changed."""
    group = make_group(orders)
    elements = group.elements
    assert [group.index(x) for x in elements] == list(range(group.order))
    assert [elements[t] for t in group.negation_table()] == [-x for x in elements]
    assert type(group.negation_table()) is tuple
    assert group.negation_table() is group.negation_table()
    for i, x in enumerate(elements):
        row = group.translation_row(i)
        assert [elements[t] for t in row] == [x + y for y in elements]


def test_element_arithmetic_reduces():
    group = make_group([9, 3])
    x = elem(group, 7, 2)
    y = elem(group, 5, 2)
    assert (x + y).coords == (3, 1)
    assert (-x).coords == (2, 1)
    assert (x - y).coords == (2, 0)
    assert (4 * x).coords == (28 % 9, 8 % 3)


def test_cross_group_arithmetic_rejected():
    with pytest.raises(ValueError):
        elem(make_group([5]), 1) + elem(make_group([7]), 1)


def test_element_equality_and_hash():
    """Equal coordinates in equal groups are equal elements, whichever
    object holds the group; a different group or a tuple is never equal."""
    a, b = elem(make_group([3]), 1), elem(make_group([3]), 1)
    assert a.group is not b.group
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert elem(make_group([3]), 1) != elem(make_group([5]), 1)
    assert a != (1,) and (1,) != a
    assert a != elem(a.group, 2)


@pytest.mark.parametrize("orders", [[4, 2], [2, 6], [9, 3], [3, 3, 3]])
def test_every_element_result_is_the_table_instance(orders):
    """element(), zero, +, binary and unary -, n*x, an endomorphism, a pickle
    round trip and deepcopy each return group.elements[r.index], and that
    index is the stride rank of r's coordinates."""
    group = make_group(orders)
    strides = [math.prod(orders[m + 1 :]) for m in range(len(orders))]
    alpha = make_endomorphism(group, [
        [1 if i == j else ni // math.gcd(ni, nj) for j, nj in enumerate(orders)]
        for i, ni in enumerate(orders)
    ])
    results = [group.zero]
    for x in group.elements:
        twins = [pickle.loads(pickle.dumps(x)), copy.deepcopy(x)]
        assert twins == [x, x] and len(pickle.dumps(x)) < 200
        results += twins + [elem(group, *(c - 2 * n for c, n in zip(x.coords, orders)))]
        results += [-x, 3 * x, alpha(x)] + [x + y for y in group] + [x - y for y in group]
    for r in results:
        assert r is r.group.elements[r.index]
        assert r.index == sum(c * s for c, s in zip(r.coords, strides))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def test_character_examples():
    g5 = make_group([5])
    assert character(elem(g5, 1), elem(g5, 0)) == pytest.approx(1)
    assert character(elem(g5, 1), elem(g5, 1)) == pytest.approx(
        cmath.exp(2j * math.pi / 5)
    )
    g33 = make_group([3, 3])
    # pairing exponent (1*2 + 2*1)/3 = 4/3, i.e. a primitive cube root
    assert character(elem(g33, 1, 2), elem(g33, 2, 1)) == pytest.approx(
        cmath.exp(2j * math.pi / 3)
    )


def test_character_group_mismatch():
    with pytest.raises(ValueError):
        character(elem(make_group([5]), 1), elem(make_group([7]), 1))


@pytest.mark.parametrize("orders", [[4, 2], [9, 3], [3, 3, 3], [4099]])
def test_character_row_equals_character(orders):
    """A character row is the same floats as character() per element, both
    read off the group's one root table."""
    group = make_group(orders)
    elements = group.elements
    picks = elements if group.order < 100 else [elements[i] for i in (1, 2, 1000, 4098)]
    for x in picks:
        assert group.character_row(x) == [character(x, y) for y in elements]


def test_root_of_unity_is_cmath_at_the_reduced_exponent():
    """On Z4099 each root, read at t % e, is the float cmath.exp gives for
    that residue; a group of rank 3 keeps one table of its exponent's roots."""
    group = make_group([4099])
    e = group.exponent
    for t in [*range(-3, e + 3), 10**9 + 7, -(10**9)]:
        assert group.root_of_unity(t) == cmath.exp(2j * math.pi * (t % e) / e)
    rank3 = make_group([4, 6, 12])
    rank3.character_row(rank3.elements[-1])
    assert len(rank3._root_table()) == rank3.exponent == 12


def _tables(group, np):
    n = group.order
    elements = group.elements
    index = group.index
    add = np.array([[index(x + y) for y in elements] for x in elements])
    chars = np.array(
        [[character(x, y) for y in elements] for x in elements]
    )
    return add, chars


@pytest.mark.parametrize("orders", [[5], [9], [2, 3], [3, 3], [27], [5, 5, 5]])
def test_pairing_bilinear_exhaustive(orders):
    """character(x + x', y) == character(x, y) * character(x', y) for every
    triple, on groups up to order 125."""
    np = pytest.importorskip("numpy", exc_type=ImportError)
    group = make_group(orders)
    add, chars = _tables(group, np)
    lhs = chars[add, :]  # [x, x', y]
    rhs = chars[:, None, :] * chars[None, :, :]
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_pairing_modulus_one():
    group = make_group([9, 3])
    for x in group.elements:
        for y in group.elements:
            assert abs(abs(character(x, y)) - 1) < 1e-12


def test_pairing_is_trivial_matches_numeric():
    group = make_group([12])
    for x in group.elements:
        for y in group.elements:
            assert pairing_is_trivial(x, y) == (
                abs(character(x, y) - 1) < 1e-9
            )


# ---------------------------------------------------------------------------
# endomorphisms
# ---------------------------------------------------------------------------


def test_make_endomorphism_examples():
    g5 = make_group([5])
    assert make_endomorphism(g5, [[2]]).is_auto
    g9 = make_group([9])
    tripling = make_endomorphism(g9, [[3]])
    assert not tripling.is_auto
    assert {x.coords[0] for x in tripling.image()} == {0, 3, 6}


def test_incompatible_entry_reported():
    group = make_group([9, 3])
    with pytest.raises(IncompatibleMatrixError) as err:
        make_endomorphism(group, [[1, 1], [0, 1]])
    assert err.value.row == 0 and err.value.col == 1


@pytest.mark.parametrize(
    "matrix, error, message, json_message",
    [
        ([[1, 0], [0, 1], [0, 0]], ValueError, "matrix must be 2x2 for this group", None),
        ([[1, 1], [0, 1]], IncompatibleMatrixError,
         "entry a[0][1]=1 is incompatible: 3*1 != 0 (mod 9)", None),
        ([[1.5, 0], [0, 1]], TypeError, "'float' object cannot be interpreted as an integer",
         "endomorphism: matrix row: expected a list of integers, got [1.5, 0]"),
    ],
)
def test_malformed_matrix_errors_leave_the_memo_alone(matrix, error, message, json_message):
    """The factory, a direct build and the JSON reader refuse a malformed
    matrix as before; the first 2x2 rows of the 3x2 one are the identity,
    which the memo holds, and no refusal adds to or replaces a memo entry."""
    group = make_group([9, 3])
    kept = [identity_endomorphism(group), scaling_endomorphism(group, 2)]
    for build in (make_endomorphism, Endomorphism):
        with pytest.raises(error) as err:
            build(group, matrix)
        assert type(err.value) is error and str(err.value) == message
        if error is IncompatibleMatrixError:
            assert (err.value.row, err.value.col, err.value.entry) == (0, 1, 1)
    with pytest.raises(SchemaError) as err:
        endomorphism_from_json(group, {"matrix": matrix})
    assert str(err.value) == (json_message or "endomorphism: " + message)
    assert len(group._endomorphisms) == 2
    assert all(group._endomorphisms[e.matrix] is e for e in kept)


def test_matrix_entries_reduced():
    g5 = make_group([5])
    assert make_endomorphism(g5, [[7]]).matrix == ((2,),)


@pytest.mark.parametrize("orders", [[5], [9], [2, 3], [3, 3], [9, 3], [4]])
def test_automorphism_three_way_equivalence(orders):
    """is_auto == trivial kernel == full image, each computed separately."""
    group = make_group(orders)
    candidates = [identity_endomorphism(group), neg_identity_endomorphism(group)]
    for n in range(group.cyclic_orders[0]):
        try:
            candidates.append(scaling_endomorphism(group, n))
        except ValueError:
            pass
    for endo in candidates:
        kernel_trivial = all(
            not endo(x).is_zero for x in group.elements if not x.is_zero
        )
        image_full = len({endo(x).coords for x in group.elements}) == group.order
        assert endo.is_auto == kernel_trivial == image_full


def test_adjoint_formula_example():
    group = make_group([9, 3])
    endo = make_endomorphism(group, [[1, 3], [0, 1]])
    # entry (0,1)=3 maps to adjoint entry (1,0) = 3 * 3 / 9 = 1
    assert endo.adjoint().matrix == ((1, 0), (1, 1))


@pytest.mark.parametrize("orders", [[5], [9, 3], [4, 6], [2, 4, 8]])
def test_adjoint_cached_and_table_matches_formula(orders):
    """One adjoint per endomorphism, the group's instance for its matrix,
    whose table is the matrix formula applied to each element and satisfies
    (alpha x, y) = (x, adjoint y)."""
    group = make_group(orders)
    rng = random.Random(len(orders))
    k = group.rank
    for _ in range(5):
        gcds = [[math.gcd(n, m) for m in orders] for n in orders]
        matrix = [
            [orders[i] // gcds[i][j] * rng.randrange(gcds[i][j]) for j in range(k)]
            for i in range(k)
        ]
        endo = make_endomorphism(group, matrix)
        adj = endo.adjoint()
        assert adj is endo.adjoint() is group.endomorphism(adj.matrix)
        assert adj.adjoint() is endo
        formula = [
            group.element([
                sum(matrix[i][j] * orders[j] // orders[i] * y.coords[i] for i in range(k))
                for j in range(k)
            ]).index
            for y in group.elements
        ]
        assert list(adj.table) == formula
        for x in group.elements:
            ax = group.elements[endo.table[x.index]]
            for y in group.elements:
                adj_y = group.elements[adj.table[y.index]]
                assert group.pairing_exponent(ax, y) == group.pairing_exponent(x, adj_y)


@pytest.mark.parametrize("orders", [[5], [9], [9, 3], [3, 3], [2, 3], [5, 5]])
def test_adjoint_pairing_identity_exhaustive(orders):
    group = make_group(orders)
    rng_entries = [
        identity_endomorphism(group),
        neg_identity_endomorphism(group),
        scaling_endomorphism(group, 2),
    ]
    if group.rank == 2:
        n1, n2 = group.cyclic_orders
        step = n1 // math.gcd(n1, n2)
        rng_entries.append(Endomorphism(group, [[1, step], [0, 1]]))
    for endo in rng_entries:
        adj = endo.adjoint()
        for x in group.elements:
            for y in group.elements:
                assert abs(character(endo(x), y) - character(x, adj(y))) < 1e-9


def test_adjoint_involutive():
    group = make_group([9, 3])
    endo = Endomorphism(group, [[2, 3], [1, 2]])
    assert endo.adjoint().adjoint() == endo
    ident = identity_endomorphism(group)
    assert ident.adjoint() == ident


def test_adjoint_cyclic_self():
    g5 = make_group([5])
    assert scaling_endomorphism(g5, 2).adjoint().matrix == ((2,),)


def test_kernel_examples():
    g9 = make_group([9])
    six = identity_endomorphism(g9) + scaling_endomorphism(g9, 5)
    assert [x.coords[0] for x in six.kernel()] == [0, 3, 6]
    g5 = make_group([5])
    three = identity_endomorphism(g5) + scaling_endomorphism(g5, 2)
    assert three.kernel().is_trivial
    assert identity_endomorphism(g9).kernel().is_trivial


def test_compose_add_invert():
    g5 = make_group([5])
    double = scaling_endomorphism(g5, 2)
    assert double.inverse().matrix == ((3,),)
    assert (identity_endomorphism(g5) + double).matrix == ((3,),)
    g9 = make_group([9])
    quad = scaling_endomorphism(g9, 4)
    assert (quad @ quad.inverse()) == identity_endomorphism(g9)
    assert (quad.inverse() @ quad) == identity_endomorphism(g9)


def test_identity_endomorphism_built_once_per_group(monkeypatch):
    """One identity per group, the memo's entry for the identity matrix; a
    copied group builds its own, and a second canonical instance builds no
    endomorphism."""
    group = make_group([3, 9])
    ident = identity_endomorphism(group)
    assert identity_endomorphism(group) is ident
    assert scaling_endomorphism(group, 1) is group._endomorphisms[((1, 0), (0, 1))] is ident
    for twin in (pickle.loads(pickle.dumps(group)), copy.deepcopy(group)):
        twin_ident = identity_endomorphism(twin)
        assert twin_ident is not ident and twin_ident.group is twin
        assert twin_ident == ident and identity_endomorphism(twin) is twin_ident
    alpha, mu = scaling_endomorphism(group, 2), uniform(group)
    canonical_instance(group, alpha, mu, mu)
    builds = []
    original = Endomorphism.__init__

    def counted(self, *args):
        builds.append(args)
        original(self, *args)

    monkeypatch.setattr(Endomorphism, "__init__", counted)
    inst = canonical_instance(group, alpha, mu, mu)
    assert inst.is_canonical and inst.alpha1 is ident
    assert builds == []


def test_equal_matrices_share_one_table_per_group():
    """Endomorphisms with one reduced matrix on one group are one object with
    one table; a direct Endomorphism(...) is equal, hashes equal and prints
    the same but is not shared, and an equal, a pickled and a deep-copied
    group each build their own."""
    z5 = make_group([5])
    three = scaling_endomorphism(z5, 3)
    assert scaling_endomorphism(z5, 8) is three
    assert make_endomorphism(z5, [[-2]]) is three
    direct = Endomorphism(z5, [[-2]])
    assert direct == three and direct is not three
    assert hash(direct) == hash(three) and len({direct, three}) == 1
    assert repr(direct) == repr(three) == "Endomorphism(Z5, [[3]])"
    assert z5._endomorphisms == {((3,),): three}
    group = make_group([9, 3])
    alpha = make_endomorphism(group, [[2, 3], [1, 2]])
    assert alpha.adjoint() is make_endomorphism(group, alpha.adjoint().matrix)
    assert (alpha + alpha) is (2 * alpha)
    for twin in (make_group([9, 3]), pickle.loads(pickle.dumps(group)), copy.deepcopy(group)):
        twin_alpha = make_endomorphism(twin, alpha.matrix)
        assert twin_alpha == alpha and twin_alpha is not alpha
        assert hash(twin_alpha) == hash(alpha) and len({twin_alpha, alpha}) == 1
        assert twin_alpha.table == alpha.table and twin_alpha.table is not alpha.table
        assert list(twin._endomorphisms.values()) == [twin_alpha]


def test_copied_endomorphism_is_the_copied_groups_instance():
    """A pickled or deep-copied endomorphism is its copied group's one
    instance for the matrix and carries no table built before the copy."""
    group = make_group([9, 3])
    alpha = make_endomorphism(group, [[2, 3], [1, 2]])
    assert alpha.is_auto
    for copied in (copy.deepcopy(alpha), pickle.loads(pickle.dumps(alpha))):
        assert copied == alpha and copied.group is not group
        assert copied.group.endomorphism(alpha.matrix) is copied
        assert "table" not in vars(copied) and "is_auto" not in vars(copied)
        assert copied.table == alpha.table


def test_table_memo_stops_at_its_bound(monkeypatch):
    """The memo keeps endomorphisms while their tables hold at most
    TABLE_MEMO_ENTRIES indices; later ones are built on each use, and their
    tables still equal the formula."""
    z9 = make_group([9])
    monkeypatch.setattr(groups, "TABLE_MEMO_ENTRIES", 3 * z9.order)
    endos = [scaling_endomorphism(z9, c) for c in range(9)]
    assert list(z9._endomorphisms) == [((c,),) for c in range(3)]
    for c, endo in enumerate(endos):
        assert endo.table == tuple(c * x % 9 for x in range(9))
        assert (scaling_endomorphism(z9, c) is endo) == (c < 3)


def _count_row_builds(monkeypatch):
    """Wrap both row builders; the lists collect the (group, index) of each build."""
    built = {"translation": [], "character": []}
    for kind in built:
        name = f"_build_{kind}_row"
        original = getattr(groups, name)

        def counted(group, i, log=built[kind], original=original):
            log.append((group, i))
            return original(group, i)

        monkeypatch.setattr(groups, name, counted)
    return built


def test_each_row_is_built_once_per_group(monkeypatch):
    """Repeated requests for a translation or character row return the
    group's one row, built on first use."""
    built = _count_row_builds(monkeypatch)
    group = make_group([4, 3])
    n = group.order
    kept = [(group.translation_row(i), group._character_row(i)) for i in range(n)]
    for _ in range(2):
        for i, (row, chars) in enumerate(kept):
            assert group.translation_row(i) is row and group._character_row(i) is chars
            assert group.character_row(group.elements[i]) == list(chars)
    assert built["translation"] == built["character"] == [(group, i) for i in range(n)]


@pytest.mark.parametrize("orders", [[4, 2], [2, 6], [9, 3], [3, 3, 3], [2, 3, 5], [300], [7, 40]])
def test_kept_rows_equal_the_digit_sum_formula(orders):
    """Entry j of row i: the rank of x_i + x_j digit by digit, in the
    smallest item that holds every index; and the group's own root at the
    pairing exponent of x_i and x_j."""
    group = make_group(orders)
    n, roots = group.order, group._root_table()
    strides = [math.prod(orders[m + 1:]) for m in range(len(orders))]
    digits = [[i // s % k for k, s in zip(orders, strides)] for i in range(n)]
    itemsize = 1 if n <= 256 else 2
    for i, x in enumerate(group.elements):
        row = group.translation_row(i)
        assert row.readonly and row.itemsize == itemsize
        assert list(row) == [
            sum((a + b) % k * s for a, b, k, s in zip(digits[i], digits[j], orders, strides))
            for j in range(n)
        ]
        chars = group._character_row(i)
        assert type(chars) is tuple
        assert all(z is roots[group.pairing_exponent(x, y)] for z, y in zip(chars, group.elements))


def test_large_group_rows_take_four_bytes_per_index():
    group = make_group([3, 2**16])
    n = group.order
    row = group.translation_row(n - 1)
    assert row.itemsize == 4 and len(row) == n
    assert list(row[:3]) == [n - 1, n - 2**16, n - 2**16 + 1]


def test_row_memos_stop_at_their_bound(monkeypatch):
    """Each memo keeps rows while they hold at most TABLE_MEMO_ENTRIES
    entries; later rows are built on each use and still equal the formula."""
    z9 = make_group([9])
    monkeypatch.setattr(groups, "TABLE_MEMO_ENTRIES", 3 * z9.order)
    rows = [z9.translation_row(i) for i in range(9)]
    chars = [z9._character_row(i) for i in range(9)]
    assert list(z9._translations) == list(z9._characters) == [0, 1, 2]
    for i in range(9):
        assert list(rows[i]) == [(i + j) % 9 for j in range(9)]
        assert chars[i] == tuple(z9.root_of_unity(i * j) for j in range(9))
        assert (z9.translation_row(i) is rows[i]) == (z9._character_row(i) is chars[i]) == (i < 3)


def test_equal_pickled_and_copied_groups_build_their_own_rows():
    """An equal group, and a pickled or deep-copied one, starts with empty
    row memos and builds equal rows of its own."""
    group = make_group([9, 3])
    row, chars = group.translation_row(5), group._character_row(5)
    for twin in (make_group([9, 3]), pickle.loads(pickle.dumps(group)), copy.deepcopy(group)):
        assert twin._translations == {} and twin._characters == {}
        twin_row, twin_chars = twin.translation_row(5), twin._character_row(5)
        assert twin_row == row and twin_row is not row
        assert twin_chars == chars and twin_chars is not chars
        assert list(twin._translations) == list(twin._characters) == [5]


def test_translation_rows_are_read_only():
    group = make_group([5])
    row = group.translation_row(1)
    with pytest.raises(TypeError):
        row[0] = 0
    with pytest.raises(TypeError):
        row[:2] = b"\0\0"
    assert list(group.translation_row(1)) == [1, 2, 3, 4, 0]


def test_identity_lookup_reduces_no_matrix(monkeypatch):
    """Building a canonical instance and asking whether it is canonical read
    the group's identity straight from the memo, reducing no matrix."""
    group = make_group([3, 9])
    ident = identity_endomorphism(group)
    alpha, mu = scaling_endomorphism(group, 2), uniform(group)
    calls = []
    original = groups.FiniteAbelianGroup.endomorphism
    monkeypatch.setattr(
        groups.FiniteAbelianGroup, "endomorphism",
        lambda self, matrix: calls.append(matrix) or original(self, matrix),
    )
    inst = canonical_instance(group, alpha, mu, mu)
    assert inst.is_canonical and inst.alpha1 is ident
    assert calls == []


def test_corollary3_builds_one_table_per_matrix(monkeypatch):
    """corollary3 draws every coefficient on one Z9 and one Z7, so it builds
    one table for each of their 9 + 7 matrices."""
    built = []
    original = groups._image_table

    def counted(group, matrix):
        built.append((group, matrix))
        return original(group, matrix)

    monkeypatch.setattr(groups, "_image_table", counted)
    assert verify.suite_corollary3(seed=0, trials=200).passed
    assert len(built) == len(set(built)) == 16


def test_verify_builds_each_endomorphism_once(monkeypatch, tmp_path):
    """A seed-1 verify --suite all run builds one Endomorphism per distinct
    (group object, reduced matrix); the adjoint of the adjoint is the
    endomorphism itself, and is_auto builds its set once per object."""
    builds = []
    original = Endomorphism.__init__

    def counted(self, group, matrix):
        original(self, group, matrix)
        builds.append((group, self.matrix))

    monkeypatch.setattr(Endomorphism, "__init__", counted)
    argv = ["verify", "--suite", "all", "--seed", "1", "--out", str(tmp_path / "r.json")]
    assert cli.run(argv, out=io.StringIO()) == 0
    assert len(builds) > 500
    assert len({(id(group), matrix) for group, matrix in builds}) == len(builds)

    group = make_group([9, 3])
    endo = make_endomorphism(group, [[1, 3], [0, 1]])
    assert endo.adjoint().matrix == ((1, 0), (1, 1)) and endo.adjoint().adjoint() is endo
    sets = []
    monkeypatch.setattr(groups, "set", lambda items: sets.append(1) or set(items), raising=False)
    assert [endo.is_auto for _ in range(3)] == [True] * 3
    assert len(sets) == 1


def test_invert_non_automorphism_rejected():
    g9 = make_group([9])
    with pytest.raises(ValueError):
        scaling_endomorphism(g9, 3).inverse()


def test_invert_matrix_case():
    group = make_group([3, 3])
    endo = Endomorphism(group, [[1, 1], [0, 1]])
    assert endo.is_auto
    inv = endo.inverse()
    assert (endo @ inv) == identity_endomorphism(group)


@given(st.sampled_from([[9, 3], [4, 2], [3, 3]]), st.data())
def test_endomorphism_table_matches_enumeration(orders, data):
    """is_auto, kernel(), image() and inverse() agree with alpha(x) applied
    to every element, for compatible matrices with an off-diagonal entry."""
    group = make_group(orders)
    n = group.cyclic_orders
    matrix = [[0, 0], [0, 0]]
    for i in range(2):
        for j in range(2):
            g = math.gcd(n[i], n[j])
            matrix[i][j] = (n[i] // g) * data.draw(st.integers(0, g - 1))
    assume(matrix[0][1] or matrix[1][0])
    endo = Endomorphism(group, matrix)
    images = [endo(x) for x in group.elements]
    bijective = len(set(images)) == group.order
    assert endo.is_auto == bijective
    assert endo.kernel().elements == tuple(
        x for x, y in zip(group.elements, images) if y.is_zero
    )
    assert set(endo.image()) == set(images)
    if bijective:
        inv = endo.inverse()
        assert all(inv(y) == x for x, y in zip(group.elements, images))
    else:
        with pytest.raises(ValueError):
            endo.inverse()


def test_endomorphism_table_rank3_non_diagonal():
    """The digit-sum table equals index(alpha(x)) for every x, for random
    compatible matrices with nonzero off-diagonal entries on Z2xZ4xZ4."""
    group = make_group([2, 4, 4])
    n = group.cyclic_orders
    rng = random.Random(0)
    checked = 0
    while checked < 25:
        matrix = [
            [(n[i] // math.gcd(n[i], n[j])) * rng.randrange(math.gcd(n[i], n[j]))
             for j in range(3)]
            for i in range(3)
        ]
        if not any(matrix[i][j] for i in range(3) for j in range(3) if i != j):
            continue
        endo = Endomorphism(group, matrix)
        assert endo.table == tuple(group.index(endo(x)) for x in group.elements)
        checked += 1


@given(st.sampled_from(SMALL_ORDERS), st.data())
def test_endomorphism_additive_action(orders, data):
    """(a + b)(x) == a(x) + b(x) and (a @ b)(x) == a(b(x))."""
    group = make_group(orders)
    n = group.cyclic_orders[0]
    a = scaling_endomorphism(group, data.draw(st.integers(0, n - 1)))
    b = scaling_endomorphism(group, data.draw(st.integers(0, n - 1)))
    x = group.elements[data.draw(st.integers(0, group.order - 1))]
    assert (a + b)(x) == a(x) + b(x)
    assert (a @ b)(x) == a(b(x))


# ---------------------------------------------------------------------------
# subgroups and annihilators
# ---------------------------------------------------------------------------


def test_subgroup_generated_examples():
    g9 = make_group([9])
    sub = subgroup_generated(g9, [elem(g9, 3)])
    assert [x.coords[0] for x in sub] == [0, 3, 6]
    assert len(subgroup_generated(g9, [])) == 1


def test_subgroup_closure_validated():
    g9 = make_group([9])
    with pytest.raises(ValueError):
        Subgroup(g9, [elem(g9, 0), elem(g9, 3)])  # 3+3=6 missing
    g33 = make_group([3, 3])
    axes = [elem(g33, a, 0) for a in range(3)] + [elem(g33, 0, b) for b in (1, 2)]
    with pytest.raises(ValueError):
        Subgroup(g33, axes)  # <(1,0)> u <(0,1)>: (1,0)+(0,1) missing


def test_annihilator_examples():
    g9 = make_group([9])
    sub = subgroup_generated(g9, [elem(g9, 3)])
    assert annihilator(sub).elements == sub.elements
    whole = subgroup_generated(g9, [elem(g9, 1)])
    assert annihilator(whole).is_trivial
    trivial = subgroup_generated(g9, [])
    assert len(annihilator(trivial)) == 9


def test_annihilator_is_dual_order():
    """|K| * |A(K)| == |X| on a few groups."""
    for orders in ([12], [3, 3], [2, 3]):
        group = make_group(orders)
        for g in group.elements:
            sub = subgroup_generated(group, [g])
            assert len(sub) * len(annihilator(sub)) == group.order


def test_order2_subgroup_examples():
    assert order2_subgroup(make_group([5])).is_trivial
    g4 = make_group([4])
    assert [x.coords[0] for x in order2_subgroup(g4)] == [0, 2]
    g23 = make_group([2, 3])
    assert [x.coords for x in order2_subgroup(g23)] == [(0, 0), (1, 0)]


@pytest.mark.parametrize("orders", [[3], [5], [9], [3, 3], [15], [7]])
def test_odd_order_doubling_is_automorphism(orders):
    group = make_group(orders)
    assert order2_subgroup(group).is_trivial
    assert scaling_endomorphism(group, 2).is_auto

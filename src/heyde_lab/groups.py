"""Finite abelian groups as explicit products of cyclic groups.

Elements are residue vectors.  The group doubles as its own character group
through the fixed pairing (x, y) = exp(2*pi*i * sum_j x_j*y_j / n_j), so a
``GroupElement`` is also a character index.  Endomorphisms are integer
matrices acting on residue vectors; a congruence condition on the entries
guarantees the action is well defined.

Everything here is desk scale.  The group defines element indices:
coordinate m of element i is (i // s_m) % n_m for fixed strides s_m, and
loops over all elements or pairs, here and in the modules above, read
``negation_table()``, built once per group, and ``translation_row(i)``, the
digit sums of the group's columns [e * s_m for e < n_m], each rotated by
i's digit m.  ``group.elements[i]`` is the one instance of element i, with i
as its ``index``; ``element()`` and every operation return it via
``_reduce``.  ``group.endomorphism(matrix)`` keeps one endomorphism per
reduced matrix and every operation returns it.  Its table of image indices
is a digit sum, and ``is_auto``, the kernel, image, inverse and the joint law
of two forms are read off it.  The group keeps one table of the e roots of
unity, e its exponent; ``root_of_unity(t)`` and a character's row, digit
sums of exponents reduced per coordinate, read it at t mod e.  The group
keeps each translation row, built on first use as a read-only typed view of
1, 2 or 4 bytes per index as its order needs, and each character row, a
tuple of its shared roots.  Each of the three memos stops at
TABLE_MEMO_ENTRIES entries; past it, rows and endomorphisms are built but not
kept, and a pickled or copied group starts with all three empty.  A
subgroup is held as its element set.
``Subgroup(parent, elements)`` validates elements from outside the algebra;
``Subgroup._closed`` trusts a closure, kernel, image or annihilator, which
algebra built closed.  An annihilator keeps the y of pairing exponent 0
against every x in K.
"""

from __future__ import annotations

import cmath
import math
import operator
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _cartesian
from typing import Iterable, Iterator, Sequence

#: Largest group order a FiniteAbelianGroup may have.
ENUMERATION_CAP = 10**6

#: Numeric tolerance for character comparisons; the integer congruence is
#: always consulted as the authoritative answer.
PAIRING_TOL = 1e-9

#: Most entries, one per group element per kept endomorphism, translation row
#: or character row, that each of a group's three memos may hold; past it,
#: they are built but not kept.
TABLE_MEMO_ENTRIES = 2**20


class IncompatibleMatrixError(ValueError):
    """A matrix entry violates n_j * a_ij = 0 (mod n_i)."""

    def __init__(self, row: int, col: int, entry: int, message: str):
        super().__init__(message)
        self.row = row
        self.col = col
        self.entry = entry


def _digit_sums(columns: Iterable[Sequence[int]]) -> list[int]:
    """columns[m][e_m] summed over the coordinates m, for each coordinate
    vector e in lexicographic order (the first column itself if it is the only one)."""
    sums, *rest = columns
    for column in rest:
        sums = [t + c for t in sums for c in column]
    return sums


def _image_table(group: FiniteAbelianGroup, matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Index of alpha(x) = sum_i (sum_j a_ij x_j mod n_i) * s_i per x."""
    orders = group.cyclic_orders
    images = [
        [r % n * s for r in _digit_sums([a * e for e in range(m)] for a, m in zip(row, orders))]
        for row, n, s in zip(matrix, orders, group._strides)
    ]
    return tuple(map(sum, zip(*images)))


def _build_translation_row(group: FiniteAbelianGroup, i: int) -> memoryview:
    """Index of x_i + x_j for each element index j: the columns rotated by
    i's digits, viewed over immutable bytes."""
    sums = _digit_sums(col[c:] + col[:c] for col, c in zip(group._columns, group._digits(i)))
    return memoryview(array(group._typecode, sums).tobytes()).cast(group._typecode)


def _build_character_row(group: FiniteAbelianGroup, i: int) -> tuple[complex, ...]:
    """(x_i, y) for each element y, in element order, read off the root table."""
    e, roots = group.exponent, group._root_table()
    exponents = _digit_sums(
        [a * w * k % e for k in range(n)]
        for a, n, w in zip(group._digits(i), group.cyclic_orders, group._pair_weights)
    )
    return tuple([roots[t % e] for t in exponents])


class FiniteAbelianGroup:
    """Z_{n_1} x ... x Z_{n_k} with a fixed lexicographic element order."""

    def __init__(self, cyclic_orders: Sequence[int]):
        orders = tuple(map(operator.index, cyclic_orders))
        if not orders:
            raise ValueError("at least one cyclic factor is required")
        for n in orders:
            if n < 2:
                raise ValueError(f"cyclic orders must be >= 2, got {n}")
        order = math.prod(orders)
        if order > ENUMERATION_CAP:
            raise ValueError(
                f"group order {order} exceeds enumeration cap {ENUMERATION_CAP}"
            )
        self.cyclic_orders = orders
        self.order = order
        self.rank = k = len(orders)
        self.exponent = math.lcm(*orders)
        # weights turning the pairing sum into a single residue mod exponent
        self._pair_weights = tuple(self.exponent // n for n in orders)
        # lexicographic order: the last coordinate varies fastest
        self._strides = tuple(math.prod(orders[m + 1 :]) for m in range(self.rank))
        self._columns = tuple([e * s for e in range(n)] for n, s in zip(orders, self._strides))
        # the smallest unsigned item that holds every index
        self._typecode = "B" if order <= 1 << 8 else "H" if order <= 1 << 16 else "I"
        # the identity endomorphism's memo key
        self._identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        self._elements: tuple[GroupElement, ...] | None = None
        self._negation: tuple[int, ...] | None = None
        self._roots: tuple[complex, ...] | None = None
        self._endomorphisms: dict[tuple[tuple[int, ...], ...], Endomorphism] = {}
        self._translations: dict[int, memoryview] = {}
        self._characters: dict[int, tuple[complex, ...]] = {}

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, FiniteAbelianGroup)
            and self.cyclic_orders == other.cyclic_orders
        )

    def __hash__(self) -> int:
        return hash(self.cyclic_orders)

    def __repr__(self) -> str:
        return "Z" + "xZ".join(str(n) for n in self.cyclic_orders)

    def element(self, coords: Iterable[int]) -> GroupElement:
        coords = tuple(map(operator.index, coords))
        if len(coords) != self.rank:
            raise ValueError(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        return self._reduce(coords)

    def _reduce(self, coords: Iterable[int]) -> GroupElement:
        """The element whose coordinates are coords modulo the orders."""
        orders, strides = self.cyclic_orders, self._strides
        return self.elements[sum(map(operator.mul, map(operator.mod, coords, orders), strides))]

    def endomorphism(self, matrix: Sequence[Sequence[int]]) -> Endomorphism:
        """The group's one endomorphism per reduced matrix, or a new one past the
        memo's bound.  Only a valid matrix reduces to a memo key, so
        Endomorphism(...) validates, and refuses, any matrix that matches none."""
        index, orders = operator.index, self.cyclic_orders
        key = tuple([tuple([index(a) % n for a in row]) for row, n in zip(matrix, orders)])
        endo = self._endomorphisms.get(key) if len(matrix) == self.rank else None
        if endo is None:
            endo = Endomorphism(self, matrix)
            self._keep(self._endomorphisms, endo.matrix, endo)
        return endo

    def _keep(self, memo: dict, key, value):
        """value, kept in memo under key while the memo holds at most
        TABLE_MEMO_ENTRIES entries, one per group element per value."""
        if (len(memo) + 1) * self.order <= TABLE_MEMO_ENTRIES:
            memo[key] = value
        return value

    @property
    def zero(self) -> GroupElement:
        return self.elements[0]

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        """All elements in lexicographic coordinate order; the only instances."""
        if self._elements is None:
            ranges = (range(n) for n in self.cyclic_orders)
            self._elements = tuple(GroupElement(self, c, i) for i, c in enumerate(_cartesian(*ranges)))
        return self._elements

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __reduce__(self):  # the element table is rebuilt on first use
        return FiniteAbelianGroup, (self.cyclic_orders,)

    def index(self, x: GroupElement) -> int:
        """Lexicographic rank of an element."""
        return x.index

    def negation_table(self) -> tuple[int, ...]:
        """Index of -x_i for each element index i; built once per group."""
        if self._negation is None:
            self._negation = tuple(_digit_sums(col[:1] + col[:0:-1] for col in self._columns))
        return self._negation

    def _digits(self, i: int) -> Iterator[int]:
        """The coordinates of element index i."""
        return (i // s % n for n, s in zip(self.cyclic_orders, self._strides))

    def translation_row(self, i: int) -> memoryview:
        """Index of x_i + x_j for each element index j, kept up to the memo's bound."""
        row = self._translations.get(i)
        if row is None:
            row = self._keep(self._translations, i, _build_translation_row(self, i))
        return row

    def pairing_exponent(self, x: GroupElement, y: GroupElement) -> int:
        """Integer t with (x, y) = exp(2*pi*i*t / exponent), 0 <= t < exponent."""
        t = 0
        for a, b, w in zip(x.coords, y.coords, self._pair_weights):
            t += a * b * w
        return t % self.exponent

    def _root_table(self) -> tuple[complex, ...]:
        """exp(2*pi*i*k / exponent) for k < exponent, built once per group."""
        if self._roots is None:
            e = self.exponent
            self._roots = tuple(cmath.exp(2j * math.pi * k / e) for k in range(e))
        return self._roots

    def root_of_unity(self, t: int) -> complex:
        """exp(2*pi*i*t / exponent)."""
        return self._root_table()[t % self.exponent]

    def character_row(self, x: GroupElement) -> list[complex]:
        """character(x, y) for each element y, in element order."""
        return list(self._character_row(x.index))

    def _character_row(self, i: int) -> tuple[complex, ...]:
        """(x_i, y) for each element y, kept up to the memo's bound."""
        row = self._characters.get(i)
        if row is None:
            row = self._keep(self._characters, i, _build_character_row(self, i))
        return row


@dataclass(frozen=True, slots=True, eq=False)
class GroupElement:
    """Residue vector with its rank ``index`` in ``group.elements``, the one place
    it is built; also a character index.  Equal to its twin in an equal group."""

    group: FiniteAbelianGroup
    coords: tuple[int, ...]
    index: int

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, GroupElement) and self.index == other.index and self.group == other.group
        )

    def __hash__(self) -> int:
        return self.index

    def __reduce__(self):  # the copy is the canonical instance in the copied group
        return FiniteAbelianGroup.element, (self.group, self.coords)

    def _check(self, other: GroupElement) -> None:
        if self.group is not other.group and self.group != other.group:
            raise ValueError("elements belong to different groups")

    def __add__(self, other: GroupElement) -> GroupElement:
        self._check(other)
        return self.group._reduce(map(operator.add, self.coords, other.coords))

    def __sub__(self, other: GroupElement) -> GroupElement:
        self._check(other)
        return self.group._reduce(map(operator.sub, self.coords, other.coords))

    def __neg__(self) -> GroupElement:
        return self.group._reduce(map(operator.neg, self.coords))

    def __rmul__(self, n: int) -> GroupElement:
        """Integer scaling x -> n*x."""
        if not isinstance(n, int):
            return NotImplemented
        return self.group._reduce([n * a for a in self.coords])

    @property
    def is_zero(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def make_group(cyclic_orders: Sequence[int]) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(cyclic_orders)


def character(x: GroupElement, y: GroupElement) -> complex:
    """Value of the character indexed by y at the element x.

    Bilinear in both arguments and of modulus 1.  Use
    :func:`pairing_is_trivial` when exact equality with 1 matters.
    """
    if x.group != y.group:
        raise ValueError("character arguments belong to different groups")
    return x.group.root_of_unity(x.group.pairing_exponent(x, y))


def pairing_is_trivial(x: GroupElement, y: GroupElement) -> bool:
    """Exact test (x, y) == 1, confirmed by the integer congruence.

    The numeric value is checked first at tolerance PAIRING_TOL; the residue
    test is authoritative and the two can only disagree if the numeric
    tolerance is violated, which would indicate a broken root table.
    """
    if x.group != y.group:
        raise ValueError("pairing arguments belong to different groups")
    exact = x.group.pairing_exponent(x, y) == 0
    numeric = abs(character(x, y) - 1.0) < PAIRING_TOL
    if exact != numeric:
        raise ArithmeticError(
            f"numeric character value contradicts exact congruence at x={x}, y={y}"
        )
    return exact


def _closure(
    start: Sequence[GroupElement], generators: Iterable[GroupElement]
) -> Iterator[GroupElement]:
    """Elements of the subgroup <start, generators>; ``start``, a subgroup, first.

    Adjoining g to a subgroup C appends the cosets C + m*g for m = 1, 2, ...
    up to the first multiple already in C, so each element is produced by
    exactly one addition.  Each coset is yielded as it is built, so a caller
    that stops early builds no more.
    """
    closure = list(start)
    members = set(start)
    yield from closure
    for g in generators:
        if g in members:
            continue
        base = closure[:]
        step = g
        while step not in members:
            coset = [c + step for c in base]
            members.update(coset)
            closure += coset
            yield from coset
            step = step + g


@dataclass(unsafe_hash=True)
class Subgroup:
    """Subgroup given by its full (sorted) element set.

    ``Subgroup(parent, elements)`` validates the set by closing it: the
    subgroup generated by the elements, the identity first, must add no
    element, and the ValueError names the first one it adds; elements of
    another group are never members, so they fail too.  ``Subgroup._closed``
    trusts a set built closed.
    """

    parent: FiniteAbelianGroup
    elements: tuple[GroupElement, ...]

    def __init__(self, parent: FiniteAbelianGroup, elements: Iterable[GroupElement]):
        elems = sorted(set(elements), key=lambda e: e.index)
        elem_set = frozenset(elems)
        for y in _closure([parent.zero], elems):
            if y not in elem_set:
                raise ValueError(f"not a subgroup: its elements generate {y}, which it lacks")
        self.parent = parent
        self.elements = tuple(elems)
        self._set = elem_set

    @classmethod
    def _closed(cls, parent, elements) -> Subgroup:
        """Subgroup of distinct elements that algebra built closed; unchecked."""
        sub = object.__new__(cls)
        sub.parent = parent
        sub.elements = tuple(sorted(elements, key=lambda e: e.index))
        sub._set = frozenset(sub.elements)
        return sub

    def __contains__(self, x: GroupElement) -> bool:
        return x in self._set

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(e) for e in self.elements) + "}"


def subgroup_generated(
    group: FiniteAbelianGroup, generators: Iterable[GroupElement]
) -> Subgroup:
    """Closure of the generators under addition (hence negation, by finiteness)."""
    gens = list(generators)
    for g in gens:
        if g.group != group:
            raise ValueError("generator outside the group")
    return Subgroup._closed(group, _closure([group.zero], gens))


def annihilator(sub: Subgroup) -> Subgroup:
    """Characters that are 1 on the whole subgroup (living in the same group
    by self-duality), decided by the exact congruence (x, y) = 0."""
    group = sub.parent
    ann = group.elements
    for x in sub:
        ann = [y for y in ann if group.pairing_exponent(x, y) == 0]
    return Subgroup._closed(group, ann)


def order2_subgroup(group: FiniteAbelianGroup) -> Subgroup:
    """The elements of order dividing 2: the kernel of x -> 2x."""
    return scaling_endomorphism(group, 2).kernel()


class Endomorphism:
    """Integer-matrix endomorphism: coordinate i of the image is
    sum_j a[i][j] * x_j mod n_i.

    Well-definedness requires n_j * a[i][j] = 0 (mod n_i) for every entry;
    the constructor rejects matrices violating it, and ``group.endomorphism``
    returns the group's one instance per reduced matrix.  ``table``, built on
    first use, holds the index of alpha(x) for each element x; ``is_auto``,
    ``kernel()``, ``image()`` and ``inverse()`` are read off it.
    """

    def __init__(self, group: FiniteAbelianGroup, matrix: Sequence[Sequence[int]]):
        k, orders = group.rank, group.cyclic_orders
        rows = [tuple(map(operator.index, row)) for row in matrix]
        if len(rows) != k or any(len(r) != k for r in rows):
            raise ValueError(f"matrix must be {k}x{k} for this group")
        self.group = group
        self.matrix = tuple(tuple(a % n for a in row) for row, n in zip(rows, orders))
        for i, j in _cartesian(range(k), repeat=2):
            a = self.matrix[i][j]
            if orders[j] * a % orders[i]:
                raise IncompatibleMatrixError(i, j, a, f"entry a[{i}][{j}]={a} is incompatible: "
                                              f"{orders[j]}*{a} != 0 (mod {orders[i]})")

    @cached_property
    def table(self) -> tuple[int, ...]:
        """Index of alpha(x) per x."""
        return _image_table(self.group, self.matrix)

    @cached_property
    def is_auto(self) -> bool:
        return len(set(self.table)) == self.group.order

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.group is not self.group and x.group != self.group:
            raise ValueError("element outside the endomorphism's group")
        return self.group._reduce(
            [sum(map(operator.mul, row, x.coords)) for row in self.matrix]
        )

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Endomorphism)
            and self.group == other.group
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.group, self.matrix))

    def __repr__(self) -> str:
        return f"Endomorphism({self.group!r}, {[list(r) for r in self.matrix]})"

    def __reduce__(self):  # the copy is the canonical instance in the copied group
        return FiniteAbelianGroup.endomorphism, (self.group, self.matrix)

    def _check(self, other: Endomorphism) -> None:
        if self.group != other.group:
            raise ValueError("endomorphisms act on different groups")

    def __matmul__(self, other: Endomorphism) -> Endomorphism:
        """self after other (matrix product)."""
        self._check(other)
        columns = list(zip(*other.matrix))
        prod = [
            [sum(map(operator.mul, row, col)) for col in columns]
            for row in self.matrix
        ]
        return self.group.endomorphism(prod)

    def __add__(self, other: Endomorphism) -> Endomorphism:
        self._check(other)
        summed = [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.matrix, other.matrix)
        ]
        return self.group.endomorphism(summed)

    def __neg__(self) -> Endomorphism:
        return self.group.endomorphism([[-a for a in row] for row in self.matrix])

    def __sub__(self, other: Endomorphism) -> Endomorphism:
        return self + -other

    def __rmul__(self, n: int) -> Endomorphism:
        if not isinstance(n, int):
            return NotImplemented
        return self.group.endomorphism([[n * a for a in row] for row in self.matrix])

    def adjoint(self) -> Endomorphism:
        """The unique map with (alpha x, y) = (x, adjoint y) for all x, y.

        Entry (j, i) of the adjoint is a[i][j] * n_j / n_i, an integer by the
        compatibility congruence.
        """
        orders, k = self.group.cyclic_orders, self.group.rank
        return self.group.endomorphism([
            [(self.matrix[i][j] * orders[j]) // orders[i] % orders[j] for i in range(k)]
            for j in range(k)
        ])

    def kernel(self) -> Subgroup:
        """{x : alpha x = 0}."""
        elements = self.group.elements
        members = [elements[i] for i, t in enumerate(self.table) if t == 0]
        return Subgroup._closed(self.group, members)

    def image(self) -> Subgroup:
        elements = self.group.elements
        return Subgroup._closed(self.group, [elements[t] for t in set(self.table)])

    def inverse(self) -> Endomorphism:
        """Inverse automorphism: column j is the preimage of the j-th basis
        vector."""
        if not self.is_auto:
            raise ValueError("cannot invert: not an automorphism")
        group = self.group
        # the j-th basis vector has index strides[j]
        preimages = [group.elements[self.table.index(s)] for s in group._strides]
        return group.endomorphism(list(zip(*(x.coords for x in preimages))))


make_endomorphism = FiniteAbelianGroup.endomorphism


def identity_endomorphism(group: FiniteAbelianGroup) -> Endomorphism:
    """The identity map: the memo's entry for the group's reduced identity matrix."""
    return group._endomorphisms.get(group._identity) or group.endomorphism(group._identity)


def scaling_endomorphism(group: FiniteAbelianGroup, n: int) -> Endomorphism:
    """The map x -> n*x."""
    k = group.rank
    return group.endomorphism([[n if i == j else 0 for j in range(k)] for i in range(k)])


def neg_identity_endomorphism(group: FiniteAbelianGroup) -> Endomorphism:
    return scaling_endomorphism(group, -1)

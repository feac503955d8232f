"""Exact rational probability distributions on a finite abelian group.

A law is held as positive integer numerators on sorted element indices
over their sum, its one denominator, so convolution, reflection,
push-forwards and all equality predicates are exact; they sum numerator
products over the group's index tables.  The ``Fraction`` masses keyed by
element are a read-only view built on first use.  Masses given by element are
validated on integer numerators over one common denominator by
:func:`exact_masses`, and laws summed by image use one accumulator,
:func:`accumulate`.  A ``GroupFunction`` is held as ``row``, its values in
element order, and viewed as a dict keyed by element; a ``CharFunction``
(group Fourier transform) adds its checks to one: complex doubles, summed
from one row of character values per support point, with a tolerance; the
inversion conjugates the same sums taken over the conjugated values.
Whenever a question can be decided in probability space it is decided there.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Hashable, Iterable, Mapping, Sequence

from .groups import (
    Endomorphism,
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
    annihilator,
)

#: General tolerance for characteristic-function comparisons.
CHAR_TOL = 1e-9
#: Tolerance for the normalization value at 0.
CHAR_ONE_TOL = 1e-12
#: Upper edge of the ambiguity window around 1 used by :func:`one_set`.
ONE_SET_AMBIGUITY = 1e-6
#: Largest denominator considered when snapping inverted masses to rationals.
SNAP_DENOMINATOR_CAP = 10**6


class InvalidCharFunctionError(ValueError):
    """The map is not the characteristic function of any distribution."""


class AmbiguousCharValueError(ValueError):
    """A characteristic value sits inside the numeric ambiguity window."""


class Distribution:
    """Probability distribution with exact rational weights: positive
    integer numerators on strictly increasing element indices over their
    least common denominator, so equal laws have equal forms.

    ``Distribution(group, probs)`` takes masses keyed by element (Fractions,
    ints, floats or strings), drops zeros and requires the rest to be
    nonnegative and to sum to exactly 1; ``from_weights`` normalizes
    positive integer weights by their sum.  ``probs`` is the Fraction view
    in index order.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, group: FiniteAbelianGroup, probs: Mapping[GroupElement, Any]):
        if any(x.group is not group and x.group != group for x in probs):
            raise ValueError("distribution key outside the group")
        masses, d, numerators = exact_masses(probs)
        pairs = sorted((x.index, w) for x, w in zip(masses, numerators))
        self.group = group
        self.indices, self.numerators = tuple(i for i, _ in pairs), tuple(w for _, w in pairs)
        self._probs = None  # set at build, so a view read later keeps the attribute layout
        self.__post_init__(d)  # masses off 1 do not sum to their lcm d

    @classmethod
    def from_weights(
        cls, group: FiniteAbelianGroup, indices: Sequence[int], weights: Sequence[int]
    ) -> Distribution:
        """Mass w / sum(weights) on the element of each index."""
        weights = tuple(weights)
        if (g := math.gcd(*weights)) > 1:
            weights = tuple([w // g for w in weights])
        mu = cls.__new__(cls)
        mu.group, mu.indices, mu.numerators, mu._probs = group, tuple(indices), weights, None
        mu.__post_init__()
        return mu

    def __post_init__(self, lcm: int = 0):
        """The one check of every build, on the integer form: indices, weights,
        and for masses given over their lcm, their sum; only a failure reads the elements."""
        indices, nums = self.indices, self.numerators
        if len(nums) != len(indices) or indices and not (
            0 <= indices[0] and indices[-1] < self.group.order
            and (len(indices) == 1 or all(map(operator.lt, indices, indices[1:])))
        ):
            raise ValueError("support indices must increase strictly inside the group")
        if not nums or min(nums) <= 0 or lcm and sum(nums) != lcm:
            elements, d = self.group.elements, lcm or sum(nums)
            for i, w in zip(indices, nums):
                if w < 0 < d:
                    raise ValueError(f"negative probability {Fraction(w, d)} at {elements[i]}")
                if w <= 0:
                    raise ValueError(f"nonpositive weight {w} at {elements[i]}")
            raise ValueError(f"probabilities sum to {Fraction(sum(nums), d or 1)}, expected 1")

    @property
    def denominator(self) -> int:
        """The numerators' sum, which is their least common denominator."""
        return sum(self.numerators)

    @property
    def probs(self) -> Mapping[GroupElement, Fraction]:
        if self._probs is None:
            elements, d = self.group.elements, self.denominator
            self._probs = MappingProxyType({
                elements[i]: Fraction(w, d) for i, w in zip(self.indices, self.numerators)
            })
        return self._probs

    def __reduce__(self):  # the cached view is not picklable; rebuild from integers
        return Distribution.from_weights, (self.group, self.indices, self.numerators)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Distribution) and self.group == other.group and (
            self.indices, self.numerators) == (other.indices, other.numerators)

    def prob(self, x: GroupElement) -> Fraction:
        return self.probs.get(x, Fraction(0))

    def support(self) -> tuple[GroupElement, ...]:
        elements = self.group.elements
        return tuple(elements[i] for i in self.indices)

    def __repr__(self) -> str:
        items = ", ".join(f"{x!r}: {p}" for x, p in self.probs.items())
        return "Distribution({" + items + "})"


class GroupFunction:
    """Total function on a group, held as ``row``, its values in element
    order: ``GroupFunction(group, mapping)`` takes them keyed by element,
    ``from_row(group, row)`` as a list; ``values`` is a read-only view."""

    def __new__(cls, group: FiniteAbelianGroup, mapping: Mapping[GroupElement, Any]):
        if len(mapping) != group.order:
            raise ValueError("function must be defined on every element of its group")
        return cls.from_row(group, [mapping.get(y) for y in group.elements])

    @classmethod
    def from_row(cls, group: FiniteAbelianGroup, row: Sequence) -> GroupFunction:
        if len(row) != group.order or None in row:
            raise ValueError("function must be defined on every element of its group")
        f = object.__new__(cls)
        f.group, f.row = group, list(row)
        f._values = None  # set at build, so a view read later keeps the attribute layout
        return f

    @property
    def values(self) -> Mapping[GroupElement, Any]:
        if self._values is None:
            self._values = MappingProxyType(dict(zip(self.group.elements, self.row)))
        return self._values

    def __reduce__(self):  # the cached view is not picklable; rebuild from the row
        return type(self).from_row, (self.group, self.row)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and (self.group, self.row) == (other.group, other.row)

    def __call__(self, y: GroupElement):
        return self.values[y]

    def max_abs(self) -> float:
        return max(map(abs, self.row))


class CharFunction(GroupFunction):
    """Characteristic function: complex value per character index.

    Validated on construction: value 1 at the identity (within
    CHAR_ONE_TOL), modulus at most 1, and hermitian symmetry
    f(-y) = conj(f(y)) within CHAR_TOL; a NaN value fails them.
    """

    @classmethod
    def from_row(cls, group: FiniteAbelianGroup, row: Sequence) -> CharFunction:
        f = super().from_row(group, row)
        if not abs(row[0] - 1.0) <= CHAR_ONE_TOL:
            raise ValueError(f"value at 0 is {row[0]}, expected 1")
        for y, v, minus_y in zip(group.elements, row, group.negation_table()):
            if not abs(v) <= 1 + CHAR_ONE_TOL:
                raise ValueError(f"modulus exceeds 1 at {y}: {v}")
            if not abs(row[minus_y] - v.conjugate()) <= CHAR_TOL:
                raise ValueError(f"hermitian symmetry violated at {y}")
        return f


def exact_masses(probs: Mapping[Hashable, Any]) -> tuple[dict, int, list[int]]:
    """The nonzero masses as Fractions (p as ``Fraction(p)``) in key order,
    the lcm d of their denominators, and d times each mass, an integer."""
    masses = {}
    for key, p in probs.items():
        if type(p) is not Fraction:
            p = Fraction(p)
        if p.numerator:
            masses[key] = p
    d = math.lcm(*[p.denominator for p in masses.values()])
    return masses, d, [p.numerator * (d // p.denominator) for p in masses.values()]


def accumulate(masses: Iterable[tuple[Hashable, Fraction | int]]) -> dict:
    """Sum the masses by key, keys in first-seen order: the law of a map
    applied to an exact law, given (image, mass) pairs."""
    out: dict = {}
    for key, p in masses:
        out[key] = out.get(key, 0) + p
    return out


def make_distribution(
    group: FiniteAbelianGroup, probs: Mapping[GroupElement, Fraction | int]
) -> Distribution:
    return Distribution(group, dict(probs))


def _law(group: FiniteAbelianGroup, pairs: Iterable[tuple[int, int]]) -> Distribution:
    """The law with integer weights given as (element index, weight) pairs,
    summed by index."""
    return Distribution.from_weights(group, *zip(*sorted(accumulate(pairs).items())))


def point_mass(group: FiniteAbelianGroup, x: GroupElement) -> Distribution:
    if x.group != group:
        raise ValueError("point outside the group")
    return Distribution.from_weights(group, [x.index], [1])


def uniform(group: FiniteAbelianGroup) -> Distribution:
    return Distribution.from_weights(group, range(group.order), [1] * group.order)


def haar_on(sub: Subgroup) -> Distribution:
    """Uniform distribution on a subgroup."""
    return Distribution.from_weights(sub.parent, [x.index for x in sub], [1] * len(sub))


def convolve(mu: Distribution, nu: Distribution) -> Distribution:
    if mu.group != nu.group:
        raise ValueError("cannot convolve distributions on different groups")
    pairs = list(zip(nu.indices, nu.numerators))
    rows = zip(map(mu.group.translation_row, mu.indices), mu.numerators)
    return _law(mu.group, ((row[j], w * v) for row, w in rows for j, v in pairs))


def reflect(mu: Distribution) -> Distribution:
    """Distribution of -X; its characteristic function is the conjugate."""
    neg = mu.group.negation_table()
    return _law(mu.group, ((neg[i], w) for i, w in zip(mu.indices, mu.numerators)))


def shift(mu: Distribution, x: GroupElement) -> Distribution:
    if x.group != mu.group:
        raise ValueError("shift outside the group")
    row = mu.group.translation_row(x.index)
    return _law(mu.group, ((row[i], w) for i, w in zip(mu.indices, mu.numerators)))


def push_forward(mu: Distribution, alpha: Endomorphism) -> Distribution:
    if alpha.group != mu.group:
        raise ValueError("endomorphism acts on a different group")
    table = alpha.table
    return _law(mu.group, ((table[i], w) for i, w in zip(mu.indices, mu.numerators)))


def symmetrize(mu: Distribution) -> Distribution:
    """mu * reflect(mu); its characteristic function is |mu-hat|^2 >= 0."""
    return convolve(mu, reflect(mu))


def char_function(mu: Distribution) -> CharFunction:
    return CharFunction.from_row(mu.group, char_values_list(mu))


def _character_sums(group: FiniteAbelianGroup, terms: Iterable[tuple]) -> list[complex]:
    """sum of c * (x, y) over the (index of x, c) terms, for each element y in order."""
    out = [0j] * group.order
    for i, c in terms:
        out = [acc + c * z for acc, z in zip(out, group._character_row(i))]
    return out


def char_values_list(mu: Distribution) -> list[complex]:
    """Characteristic values in lexicographic element order (no validation)."""
    d = mu.denominator
    # int true division rounds correctly, as float(Fraction(w, d)) does
    out = _character_sums(mu.group, ((i, w / d) for i, w in zip(mu.indices, mu.numerators)))
    # the identity character sums the weights exactly
    out[0] = complex(1.0, 0.0)
    return out


def distribution_from_char(f: CharFunction) -> Distribution:
    """Invert via (1/|X|) * sum_y f(y) * conj((x, y)), snapping to rationals;
    the pairing is symmetric, so that sum conjugates the forward one of conj(f).

    Masses within CHAR_TOL of a rational with denominator at most
    SNAP_DENOMINATOR_CAP are snapped to it; anything else is kept as the
    exact binary fraction of the float (an approximate inversion).  The
    result is renormalized to sum exactly 1.  Raises
    InvalidCharFunctionError when a mass is negative beyond tolerance or
    has a non-real component.
    """
    group, n = f.group, f.group.order
    sums = _character_sums(group, enumerate(v.conjugate() for v in f.row))
    masses: dict[int, Fraction] = {}
    for x, acc in zip(group.elements, sums):
        acc = acc.conjugate() / n
        if abs(acc.imag) > CHAR_TOL:
            raise InvalidCharFunctionError(
                f"inversion produced non-real mass {acc} at {x}"
            )
        val = acc.real
        if val < -CHAR_TOL:
            raise InvalidCharFunctionError(
                f"inversion produced negative mass {val} at {x}"
            )
        if val <= 0:
            continue
        snapped = Fraction(val).limit_denominator(SNAP_DENOMINATOR_CAP)
        masses[x.index] = snapped if abs(float(snapped) - val) <= CHAR_TOL else Fraction(val)
    # from_weights divides by the weights' sum, which renormalizes the masses
    masses, _d, weights = exact_masses(masses)
    if not weights:
        raise InvalidCharFunctionError("inversion produced the zero measure")
    return Distribution.from_weights(group, list(masses), weights)


def one_set(f: CharFunction) -> Subgroup:
    """The set E = {y : f(y) = 1}, which must form a subgroup.

    Membership is decided at tolerance CHAR_TOL; values whose distance from
    1 falls strictly inside (CHAR_TOL, ONE_SET_AMBIGUITY) raise
    AmbiguousCharValueError, and a membership set other than its double
    annihilator, the subgroup it generates, raises InvalidCharFunctionError.
    """
    members = []
    for y, v in zip(f.group.elements, f.row):
        d = abs(v - 1.0)
        if d <= CHAR_TOL:
            members.append(y)
        elif d < ONE_SET_AMBIGUITY:
            raise AmbiguousCharValueError(
                f"value {v} at {y} is ambiguously close to 1 (distance {d})"
            )
    level = Subgroup._closed(f.group, members)  # checked next
    lacking = [y for y in annihilator(annihilator(level)) if y not in level]
    if lacking:
        raise InvalidCharFunctionError(
            f"level set at 1 is not a subgroup: it generates {lacking[0]}, which it lacks"
        )
    return level


def support_within_annihilator(mu: Distribution, e: Subgroup) -> bool:
    """Whether the support lies inside the annihilator of the given
    character subgroup (the support bound associated with the 1-level set)."""
    ann = annihilator(e)
    return all(x in ann for x in mu.support())


@dataclass(frozen=True)
class IdempotentWitness:
    subgroup: Subgroup
    shift: GroupElement


def is_degenerate(mu: Distribution) -> bool:
    return len(mu.indices) == 1


def is_idempotent_shift(mu: Distribution) -> IdempotentWitness | None:
    """Witness (K, x) when mu is the uniform distribution on a coset x + K.

    The shift is the lexicographically smallest support element; returns
    None when the support is not a subgroup coset or the weights are not
    exactly uniform.
    """
    if mu.denominator != len(mu.indices):
        return None
    support = mu.support()
    x = support[0]
    try:
        k = Subgroup(mu.group, [s - x for s in support])
    except ValueError:
        return None
    return IdempotentWitness(k, x)


def is_gaussian(mu: Distribution) -> bool:
    """Gaussian test specialized to finite groups.

    A Gaussian characteristic function is a character times exp(-phi) with
    phi solving the quadratic functional equation; on a finite group every
    such phi vanishes (see funceq.quadratic_vanishing), which forces the
    modulus of the characteristic function to be 1 everywhere, i.e. a point
    mass.  The equivalence with degeneracy is asserted independently in the
    test suite.
    """
    return is_degenerate(mu)


def sample(mu: Distribution, count: int, seed: int) -> list[GroupElement]:
    """Deterministic sampling given the seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    support = mu.support()
    if len(support) == 1:
        return [support[0]] * count
    cum = [acc / mu.denominator for acc in itertools.accumulate(mu.numerators)]
    cum[-1] = 1.0
    return rng.choices(support, cum_weights=cum, k=count)


def total_variation(mu: Distribution, nu: Distribution) -> Fraction:
    if mu.group != nu.group:
        raise ValueError("distributions on different groups")
    keys = set(mu.probs) | set(nu.probs)
    return sum((abs(mu.prob(x) - nu.prob(x)) for x in keys), Fraction(0)) / 2


def empirical_distribution(
    group: FiniteAbelianGroup, draws: Iterable[GroupElement]
) -> Distribution:
    counts = accumulate((x, 1) for x in draws)
    if not counts:
        raise ValueError("no draws")
    if any(x.group != group for x in counts):
        raise ValueError("distribution key outside the group")
    return _law(group, ((x.index, c) for x, c in counts.items()))

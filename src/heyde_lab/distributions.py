"""Exact rational probability distributions on a finite abelian group.

Probabilities are ``fractions.Fraction`` values, so convolution, reflection,
push-forwards and all equality predicates are exact.  Every law that sums
masses by image (convolution, push-forward, empirical law, and the joint
law and marginals in ``predicates``) is built by one accumulator,
:func:`accumulate`, and validated on integer numerators over one common
denominator by :func:`exact_masses`.  Characteristic functions (group
Fourier transforms) are complex doubles, summed from one row of character
values per support point, and carry a tolerance; whenever a question can
be decided in probability space it is decided there.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Hashable, Iterable, Mapping

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


@dataclass
class Distribution:
    """Probability distribution with exact rational weights.

    Zero-weight keys are dropped on construction; the weights must be
    nonnegative and sum to exactly 1.
    """

    group: FiniteAbelianGroup
    probs: dict[GroupElement, Fraction]

    def __post_init__(self):
        group = self.group
        for x in self.probs:
            if x.group is not group and x.group != group:
                raise ValueError("distribution key outside the group")
        masses, d, numerators = exact_masses(self.probs)
        for x, p in masses.items():
            if p.numerator < 0:
                raise ValueError(f"negative probability {p} at {x}")
        if sum(numerators) != d:
            total = Fraction(sum(numerators), d)
            raise ValueError(f"probabilities sum to {total}, expected 1")
        self.probs = masses

    def prob(self, x: GroupElement) -> Fraction:
        return self.probs.get(x, Fraction(0))

    def support(self) -> tuple[GroupElement, ...]:
        return tuple(sorted(self.probs, key=lambda e: e.coords))

    def __repr__(self) -> str:
        items = ", ".join(f"{x!r}: {p}" for x, p in sorted(
            self.probs.items(), key=lambda kv: kv[0].coords))
        return "Distribution({" + items + "})"


@dataclass
class CharFunction:
    """Characteristic function: complex value per character index.

    Validated on construction: value 1 at the identity (within
    CHAR_ONE_TOL), modulus at most 1, and hermitian symmetry
    f(-y) = conj(f(y)) within CHAR_TOL.
    """

    group: FiniteAbelianGroup
    values: dict[GroupElement, complex]

    def __post_init__(self):
        if set(self.values) != set(self.group.elements):
            raise ValueError("characteristic function must be defined everywhere")
        zero_val = self.values[self.group.zero]
        if abs(zero_val - 1.0) > CHAR_ONE_TOL:
            raise ValueError(f"value at 0 is {zero_val}, expected 1")
        for y, v in self.values.items():
            if abs(v) > 1 + CHAR_ONE_TOL:
                raise ValueError(f"modulus exceeds 1 at {y}: {v}")
            if abs(self.values[-y] - v.conjugate()) > CHAR_TOL:
                raise ValueError(f"hermitian symmetry violated at {y}")

    def __call__(self, y: GroupElement) -> complex:
        return self.values[y]


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


def point_mass(group: FiniteAbelianGroup, x: GroupElement) -> Distribution:
    if x.group != group:
        raise ValueError("point outside the group")
    return Distribution(group, {x: Fraction(1)})


def uniform(group: FiniteAbelianGroup) -> Distribution:
    p = Fraction(1, group.order)
    return Distribution(group, {x: p for x in group.elements})


def haar_on(sub: Subgroup) -> Distribution:
    """Uniform distribution on a subgroup."""
    p = Fraction(1, len(sub))
    return Distribution(sub.parent, {x: p for x in sub})


def convolve(mu: Distribution, nu: Distribution) -> Distribution:
    if mu.group != nu.group:
        raise ValueError("cannot convolve distributions on different groups")
    return Distribution(mu.group, accumulate(
        (x + y, p * q) for x, p in mu.probs.items() for y, q in nu.probs.items()
    ))


def reflect(mu: Distribution) -> Distribution:
    """Distribution of -X; its characteristic function is the conjugate."""
    return Distribution(mu.group, {-x: p for x, p in mu.probs.items()})


def shift(mu: Distribution, x: GroupElement) -> Distribution:
    if x.group != mu.group:
        raise ValueError("shift outside the group")
    return Distribution(mu.group, {y + x: p for y, p in mu.probs.items()})


def push_forward(mu: Distribution, alpha: Endomorphism) -> Distribution:
    if alpha.group != mu.group:
        raise ValueError("endomorphism acts on a different group")
    return Distribution(mu.group, accumulate((alpha(x), p) for x, p in mu.probs.items()))


def symmetrize(mu: Distribution) -> Distribution:
    """mu * reflect(mu); its characteristic function is |mu-hat|^2 >= 0."""
    return convolve(mu, reflect(mu))


def char_function(mu: Distribution) -> CharFunction:
    return CharFunction(mu.group, dict(zip(mu.group.elements, char_values_list(mu))))


def char_values_list(mu: Distribution) -> list[complex]:
    """Characteristic values in lexicographic element order (no validation)."""
    group = mu.group
    out = [0j] * group.order
    for x in mu.support():
        w = float(mu.probs[x])
        out = [acc + w * c for acc, c in zip(out, group.character_row(x))]
    # the identity character sums the weights exactly
    out[0] = complex(1.0, 0.0)
    return out


def distribution_from_char(f: CharFunction) -> Distribution:
    """Invert via (1/|X|) * sum_y f(y) * conj((x, y)), snapping to rationals.

    Masses within CHAR_TOL of a rational with denominator at most
    SNAP_DENOMINATOR_CAP are snapped to it; anything else is kept as the
    exact binary fraction of the float (an approximate inversion).  The
    result is renormalized to sum exactly 1.  Raises
    InvalidCharFunctionError when a mass is negative beyond tolerance or
    has a non-real component.
    """
    group = f.group
    n = group.order
    masses: dict[GroupElement, Fraction] = {}
    for x in group.elements:
        acc = 0j
        for y, c in zip(group.elements, group.character_row(x)):
            acc += f.values[y] * c.conjugate()
        acc /= n
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
        masses[x] = snapped if abs(float(snapped) - val) <= CHAR_TOL else Fraction(val)
    total = sum(masses.values(), Fraction(0))
    if total == 0:
        raise InvalidCharFunctionError("inversion produced the zero measure")
    if total != 1:
        masses = {x: p / total for x, p in masses.items()}
    return Distribution(group, masses)


def one_set(f: CharFunction) -> Subgroup:
    """The set E = {y : f(y) = 1}, which must form a subgroup.

    Membership is decided at tolerance CHAR_TOL; values whose distance from
    1 falls strictly inside (CHAR_TOL, ONE_SET_AMBIGUITY) raise
    AmbiguousCharValueError, and a non-closed membership set raises
    InvalidCharFunctionError.
    """
    members = []
    for y, v in f.values.items():
        d = abs(v - 1.0)
        if d <= CHAR_TOL:
            members.append(y)
        elif d < ONE_SET_AMBIGUITY:
            raise AmbiguousCharValueError(
                f"value {v} at {y} is ambiguously close to 1 (distance {d})"
            )
    try:
        return Subgroup(f.group, members)
    except ValueError as exc:
        raise InvalidCharFunctionError(
            f"level set at 1 is not a subgroup: {exc}"
        ) from exc


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
    return len(mu.probs) == 1


def is_idempotent_shift(mu: Distribution) -> IdempotentWitness | None:
    """Witness (K, x) when mu is the uniform distribution on a coset x + K.

    The shift is the lexicographically smallest support element; returns
    None when the support is not a subgroup coset or the weights are not
    exactly uniform.
    """
    support = mu.support()
    x = support[0]
    expected = Fraction(1, len(support))
    if any(p != expected for p in mu.probs.values()):
        return None
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
    cum = []
    acc = Fraction(0)
    for x in support:
        acc += mu.probs[x]
        cum.append(float(acc))
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
    n = sum(counts.values())
    if n == 0:
        raise ValueError("no draws")
    return Distribution(group, {x: Fraction(c, n) for x, c in counts.items()})

"""Decision procedures for pairs of linear forms of two independent
group-valued random variables.

The central objects are instances (group, coefficients, two distributions)
for the forms L1 = a1*x1 + a2*x2 and L2 = b1*x1 + b2*x2.  The canonical
shape has a1 = a2 = b1 = I, so L1 = x1 + x2 and L2 = x1 + alpha*x2.

Conditional symmetry of L2 given L1 and independence of two forms are
decided exactly on the integer numerators of the joint law of (L1, L2);
the characteristic-function equations, evaluated at a tolerance that a
NaN residual or tolerance fails, corroborate them, and any disagreement
between an exact predicate and its characteristic-function counterpart is
a hard error upstream.
:func:`obstruction_kernel` builds Ker(I + alpha) for every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Mapping

from .distributions import (
    CHAR_TOL,
    Distribution,
    _law,
    accumulate,
    char_values_list,
    exact_masses,
    push_forward,
)
from .groups import (
    Endomorphism,
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
    identity_endomorphism,
    neg_identity_endomorphism,
)


class NonCanonicalInstanceError(ValueError):
    """An operation requiring the canonical coefficient shape got a general
    instance; canonicalize first."""


@dataclass
class FormsInstance:
    """Coefficients and input distributions for the two linear forms."""

    group: FiniteAbelianGroup
    alpha1: Endomorphism
    alpha2: Endomorphism
    beta1: Endomorphism
    beta2: Endomorphism
    mu1: Distribution
    mu2: Distribution

    def __post_init__(self):
        parts = [self.alpha1, self.alpha2, self.beta1, self.beta2, self.mu1, self.mu2]
        if any(p.group != self.group for p in parts):
            raise ValueError("all instance components must share one group")

    @property
    def is_canonical(self) -> bool:
        ident = identity_endomorphism(self.group)
        return self.alpha1 == ident and self.alpha2 == ident and self.beta1 == ident


def canonical_instance(
    group: FiniteAbelianGroup,
    alpha: Endomorphism,
    mu1: Distribution,
    mu2: Distribution,
) -> FormsInstance:
    """L1 = x1 + x2, L2 = x1 + alpha*x2."""
    ident = identity_endomorphism(group)
    return FormsInstance(group, ident, ident, ident, alpha, mu1, mu2)


class JointDistribution:
    """Exact joint law of (L1, L2): integer numerators ``cells`` keyed s*n + t by the indices
    of (s, t), in first-seen order, over one ``denominator``; ``probs`` is a read-only view."""

    def __new__(cls, group: FiniteAbelianGroup, probs: Mapping[tuple, Any]):
        if any(x.group is not group and x.group != group for key in probs for x in key):
            raise ValueError("joint law key outside the group")
        masses, d, numerators = exact_masses(probs)
        keys = (s.index * group.order + t.index for s, t in masses)
        return cls.from_cells(group, dict(zip(keys, numerators)), d)

    @classmethod
    def from_cells(cls, group, cells: dict[int, int], denominator: int) -> JointDistribution:
        """The law with mass w / denominator on each cell; the one check of every build."""
        total = sum(cells.values())
        if total != denominator:
            raise ValueError(f"joint probabilities sum to {Fraction(total, denominator)}")
        if any(w < 0 for w in cells.values()):
            raise ValueError("negative joint probability")
        joint = super().__new__(cls)
        joint.group, joint.cells, joint.denominator = group, cells, denominator
        joint._probs = None
        return joint

    @property
    def probs(self) -> Mapping[tuple[GroupElement, GroupElement], Fraction]:
        if self._probs is None:
            elements, n, d = self.group.elements, self.group.order, self.denominator
            self._probs = MappingProxyType({
                (elements[k // n], elements[k % n]): Fraction(w, d) for k, w in self.cells.items()
            })
        return self._probs

    def __reduce__(self):  # the cached view is not picklable; rebuild from integers
        return JointDistribution.from_cells, (self.group, self.cells, self.denominator)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, JointDistribution) and self.group == other.group and {
            k: w * other.denominator for k, w in self.cells.items()
        } == {k: w * self.denominator for k, w in other.cells.items()}

    def prob(self, s: GroupElement, t: GroupElement) -> Fraction:
        n = self.group.order
        w = self.cells.get(s.index * n + t.index, 0) if s.group == t.group == self.group else 0
        return Fraction(w, self.denominator)

    def marginal_first(self) -> Distribution:
        return _law(self.group, ((k // self.group.order, w) for k, w in self.cells.items()))

    def marginal_second(self) -> Distribution:
        return _law(self.group, ((k % self.group.order, w) for k, w in self.cells.items()))

    def factorizes(self) -> bool:
        """Exact test that the joint is the product of its marginals: d * w(s, t)
        is the product of the marginal sums of w, the masses over d."""
        cells, d, n = self.cells, self.denominator, self.group.order
        first = accumulate((k // n, w) for k, w in cells.items())
        second = accumulate((k % n, w) for k, w in cells.items())
        return all(
            d * cells.get(s * n + t, 0) == a * b
            for s, a in first.items() for t, b in second.items()
        )


def joint_of_forms(inst: FormsInstance) -> JointDistribution:
    """The joint law of (L1, L2) over the support product, each coefficient's
    image of a support point read off its index table: a cell, keyed s*n + t
    by element index, sums numerator products over the product of the laws'
    denominators."""
    group, n = inst.group, inst.group.order
    first, second = (
        [(a[i], b[i], w) for i, w in zip(mu.indices, mu.numerators)]
        for mu, a, b in (
            (inst.mu1, inst.alpha1.table, inst.beta1.table),
            (inst.mu2, inst.alpha2.table, inst.beta2.table),
        )
    )
    row_of = group.translation_row
    cells = accumulate(
        (row_u[u] * n + row_v[v], w1 * w2)
        for row_u, row_v, w1 in [(row_of(u), row_of(v), w) for u, v, w in first]
        for u, v, w2 in second
    )
    return JointDistribution.from_cells(group, cells, inst.mu1.denominator * inst.mu2.denominator)


def conditional_symmetry_witness(
    inst: FormsInstance,
) -> tuple[GroupElement, GroupElement] | None:
    """The first pair (s, t) by coordinates with P(L1=s, L2=t) != P(L1=s, L2=-t), or None."""
    cells, elements, n = joint_of_forms(inst).cells, inst.group.elements, inst.group.order
    for k in sorted(cells):
        s, t = divmod(k, n)
        if cells.get(s * n + (-elements[t]).index, 0) != cells[k]:
            return (elements[s], elements[t])
    return None


def is_conditionally_symmetric(inst: FormsInstance) -> bool:
    """Exact symmetry of the conditional law of L2 given L1."""
    return conditional_symmetry_witness(inst) is None


def heyde_equation_check(inst: FormsInstance, tol: float = CHAR_TOL) -> bool:
    """Characteristic-function form of conditional symmetry (canonical
    instances only):

        f1(u+v) * f2(u + a~ v) == f1(u-v) * f2(u - a~ v)   for all u, v,

    where a~ is the adjoint of the coefficient of x2 in L2.  Compared at the
    given tolerance; must agree with :func:`is_conditionally_symmetric`.
    The right side at v is the left side at -v (a~ commutes with negation),
    so one row of left sides per u is compared once per pair {v, -v}.
    """
    if not inst.is_canonical:
        raise NonCanonicalInstanceError(
            "characteristic-function symmetry check requires the canonical "
            "coefficient shape; canonicalize first"
        )
    group = inst.group
    f1 = char_values_list(inst.mu1)
    f2 = char_values_list(inst.mu2)
    adj = inst.beta2.adjoint().table
    pairs = [(v, minus_v) for v, minus_v in enumerate(group.negation_table()) if v <= minus_v]
    for u in range(group.order):
        row = list(group.translation_row(u))  # list subscripts run faster than a memoryview's
        lhs = [f1[s] * f2[row[av]] for s, av in zip(row, adj)]
        for v, minus_v in pairs:
            if not abs(lhs[v] - lhs[minus_v]) <= tol:
                return False
    return True


def derived_forms(
    inst: FormsInstance,
) -> tuple[tuple[Endomorphism, Endomorphism], tuple[Endomorphism, Endomorphism]]:
    """Coefficients of the auxiliary forms

        M1 = (I + alpha) x1 + 2*alpha x2,   M2 = 2 x1 + (I + alpha) x2,

    which are independent whenever the canonical instance is conditionally
    symmetric.  The coefficients are endomorphisms even when I + alpha is
    not invertible.
    """
    if not inst.is_canonical:
        raise NonCanonicalInstanceError("derived forms need a canonical instance")
    group = inst.group
    ident = identity_endomorphism(group)
    alpha = inst.beta2
    i_plus = ident + alpha
    return ((i_plus, 2 * alpha), (2 * ident, i_plus))


def derived_forms_instance(inst: FormsInstance) -> FormsInstance:
    """Instance carrying (M1, M2) with the same input distributions."""
    (m11, m12), (m21, m22) = derived_forms(inst)
    return FormsInstance(inst.group, m11, m12, m21, m22, inst.mu1, inst.mu2)


def are_forms_independent(inst: FormsInstance) -> bool:
    """Exact independence of L1 and L2: the joint factorizes."""
    return joint_of_forms(inst).factorizes()


def independence_equation_check(inst: FormsInstance, tol: float = CHAR_TOL) -> bool:
    """Characteristic-function form of independence:

        f1(a1~ u + b1~ v) f2(a2~ u + b2~ v)
            == f1(a1~ u) f2(a2~ u) f1(b1~ v) f2(b2~ v)   for all u, v.

    Adjoints exist for arbitrary coefficient endomorphisms by the matrix
    compatibility congruence.  Must agree with
    :func:`are_forms_independent`.
    """
    group = inst.group
    f1 = char_values_list(inst.mu1)
    f2 = char_values_list(inst.mu2)
    a1, a2, b1, b2 = (
        coeff.adjoint().table
        for coeff in (inst.alpha1, inst.alpha2, inst.beta1, inst.beta2)
    )
    b_terms = [(v1, v2, f1[v1], f2[v2]) for v1, v2 in zip(b1, b2)]
    for u1, u2 in zip(a1, a2):
        row1, row2 = list(group.translation_row(u1)), list(group.translation_row(u2))
        fu = f1[u1] * f2[u2]
        for v1, v2, g1, g2 in b_terms:
            if not abs(f1[row1[v1]] * f2[row2[v2]] - fu * g1 * g2) <= tol:
                return False
    return True


def symmetry_forces_equal(inst: FormsInstance) -> bool:
    """Checkable consequence for the reflected form L2 = x1 - x2 on groups
    of odd order: a symmetric instance must have mu1 == mu2.

    Preconditions (odd order, canonical shape with alpha = -I, exact
    symmetry) are enforced; the return value should always be True, and a
    False return signals an implementation bug.
    """
    if inst.group.order % 2 == 0:
        raise ValueError("requires a group of odd order")
    if not inst.is_canonical or inst.beta2 != neg_identity_endomorphism(inst.group):
        raise ValueError("requires the canonical instance with alpha = -I")
    if not is_conditionally_symmetric(inst):
        raise ValueError("requires a conditionally symmetric instance")
    return inst.mu1 == inst.mu2


def obstruction_kernel(alpha: Endomorphism) -> Subgroup:
    """Ker(I + alpha), the obstruction subgroup: alpha acts on it as
    negation."""
    return (identity_endomorphism(alpha.group) + alpha).kernel()


@dataclass
class CanonicalizationResult:
    instance: FormsInstance
    kernel: Subgroup


def canonicalize(inst: FormsInstance) -> CanonicalizationResult:
    """Reduce a general instance to an equivalent canonical one.

    With invertible a1, a2, b1, substituting y_j = a_j x_j and rescaling L2
    by a1 * b1^{-1} turns the pair into L1' = y1 + y2, L2' = y1 + alpha' y2
    with alpha' = a1 b1^{-1} b2 a2^{-1}; conditional symmetry is exactly
    preserved.  Also reports Ker(I + alpha'), the obstruction subgroup for
    the characterization, which assumes alpha' to be an automorphism: it is
    one exactly when b2 is, so all four coefficients must be.  A canonical
    instance comes back with alpha' = alpha (its beta2) and equal laws.
    """
    for name in ("alpha1", "alpha2", "beta1", "beta2"):
        if not getattr(inst, name).is_auto:
            raise ValueError(f"canonicalization requires {name} to be an automorphism")
    alpha_prime = (
        inst.alpha1
        @ inst.beta1.inverse()
        @ inst.beta2
        @ inst.alpha2.inverse()
    )
    new1 = push_forward(inst.mu1, inst.alpha1)
    new2 = push_forward(inst.mu2, inst.alpha2)
    canonical = canonical_instance(inst.group, alpha_prime, new1, new2)
    return CanonicalizationResult(canonical, obstruction_kernel(alpha_prime))

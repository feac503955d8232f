import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from heyde_lab import groups
from heyde_lab.distributions import (
    CHAR_TOL,
    Distribution,
    char_values_list,
    convolve,
    haar_on,
    make_distribution,
    point_mass,
    push_forward,
    uniform,
)
from heyde_lab.groups import (
    Endomorphism,
    identity_endomorphism,
    make_endomorphism,
    make_group,
    neg_identity_endomorphism,
    scaling_endomorphism,
    subgroup_generated,
)
from heyde_lab.predicates import (
    FormsInstance,
    JointDistribution,
    NonCanonicalInstanceError,
    are_forms_independent,
    canonical_instance,
    canonicalize,
    conditional_symmetry_witness,
    derived_forms,
    derived_forms_instance,
    heyde_equation_check,
    independence_equation_check,
    is_conditionally_symmetric,
    joint_of_forms,
    obstruction_kernel,
    symmetry_forces_equal,
)
from heyde_lab.search import random_automorphism, random_distribution


def elem(group, *coords):
    return group.element(coords)


def rational(group, items):
    total = sum(w for _x, w in items)
    return make_distribution(
        group, {elem(group, x): Fraction(w, total) for x, w in items}
    )


# ---------------------------------------------------------------------------
# joints
# ---------------------------------------------------------------------------


def test_joint_of_degenerate_pair():
    g7 = make_group([7])
    inst = canonical_instance(
        g7,
        scaling_endomorphism(g7, 3),
        point_mass(g7, elem(g7, 2)),
        point_mass(g7, elem(g7, 4)),
    )
    joint = joint_of_forms(inst)
    assert joint.probs == {(elem(g7, 6), elem(g7, 0)): Fraction(1)}


def test_joint_marginal_is_convolution():
    g9 = make_group([9])
    mu1 = rational(g9, [(1, 2), (4, 1)])
    mu2 = rational(g9, [(0, 1), (3, 1), (7, 2)])
    alpha = scaling_endomorphism(g9, 2)
    inst = canonical_instance(g9, alpha, mu1, mu2)
    joint = joint_of_forms(inst)
    assert joint.marginal_first() == convolve(mu1, mu2)
    assert joint.marginal_second() == convolve(mu1, push_forward(mu2, alpha))
    assert not joint.factorizes()
    assert joint.prob(elem(g9, 1), elem(g9, 1)) == Fraction(2, 12)
    g7 = make_group([7])
    assert joint.prob(elem(g7, 1), elem(g7, 1)) == 0
    assert "probs" not in vars(joint)


def test_joint_brute_force_oracle():
    """Joint recomputed by summing over the whole group squared."""
    g5 = make_group([5])
    mu1 = rational(g5, [(0, 1), (2, 3)])
    mu2 = rational(g5, [(1, 2), (4, 1)])
    alpha = scaling_endomorphism(g5, 3)
    inst = canonical_instance(g5, alpha, mu1, mu2)
    joint = joint_of_forms(inst)
    for s in g5.elements:
        for t in g5.elements:
            expected = sum(
                (
                    mu1.prob(x1) * mu2.prob(x2)
                    for x1 in g5.elements
                    for x2 in g5.elements
                    if x1 + x2 == s and x1 + alpha(x2) == t
                ),
                Fraction(0),
            )
            assert joint.prob(s, t) == expected


def test_joint_applies_each_coefficient_once_per_support_point(monkeypatch):
    """3 x 4 supports: every coefficient image comes from its index table,
    so no coefficient is applied to an element at all."""
    g9 = make_group([9])
    mu1 = rational(g9, [(0, 1), (2, 3), (5, 1)])
    mu2 = rational(g9, [(1, 2), (4, 1), (6, 1), (8, 1)])
    inst = canonical_instance(g9, scaling_endomorphism(g9, 2), mu1, mu2)
    expected = joint_of_forms(inst).probs
    calls = []
    original = Endomorphism.__call__

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(Endomorphism, "__call__", counted)
    assert joint_of_forms(inst).probs == expected
    assert calls == []


def _reference_joint(inst):
    """The joint law summed as one Fraction product per support pair."""
    out = {}
    for x1, p in inst.mu1.probs.items():
        for x2, q in inst.mu2.probs.items():
            key = (inst.alpha1(x1) + inst.alpha2(x2), inst.beta1(x1) + inst.beta2(x2))
            out[key] = out.get(key, 0) + p * q
    return out


def _reference_witness(inst):
    """The first (s, t) in coordinate order whose reference mass differs
    from that of (s, -t), or None."""
    joint = _reference_joint(inst)
    for s, t in sorted(joint, key=lambda key: (key[0].coords, key[1].coords)):
        if joint[s, t] != joint.get((s, -t), 0):
            return (s, t)
    return None


@pytest.mark.parametrize("orders", [[9], [4, 2], [2, 6], [3, 3], [9, 27]])
def test_joint_matches_fraction_product_reference(orders):
    """Same keys, in the same order, with equal values, and the same
    symmetry witness, on canonical and derived-forms instances with random
    laws and on one symmetric iid instance of the reflected form."""
    group = make_group(orders)
    rng = random.Random(sum(orders))
    instances = []
    for _ in range(15):
        mu1 = random_distribution(group, rng, 4, 7)
        mu2 = random_distribution(group, rng, 4, 7)
        instances.append(canonical_instance(group, random_automorphism(group, rng), mu1, mu2))
    mu = random_distribution(group, rng, 4, 7)
    instances.append(canonical_instance(group, neg_identity_endomorphism(group), mu, mu))
    witnesses = []
    for inst in instances:
        for case in (inst, derived_forms_instance(inst)):
            expected = _reference_joint(case)
            got = joint_of_forms(case).probs
            assert list(got) == list(expected)
            assert all(got[k] == v and type(got[k]) is Fraction for k, v in expected.items())
            witnesses.append(conditional_symmetry_witness(case))
            assert witnesses[-1] == _reference_witness(case)
    assert None in witnesses and any(witnesses)


LAWS = {"distribution": Distribution, "joint": JointDistribution}
SUM_MESSAGES = {
    "distribution": "probabilities sum to 5/6, expected 1",
    "joint": "joint probabilities sum to 5/6",
}


def _keyed(kind, group, masses, start=0):
    """Masses on the elements (start + i,), or on the pairs ((start + i,), 0)."""
    points = [group.element([start + i]) for i in range(len(masses))]
    if kind == "distribution":
        return dict(zip(points, masses))
    return {(x, group.zero): p for x, p in zip(points, masses)}


@pytest.mark.parametrize("kind", ["distribution", "joint"])
def test_law_validation(kind):
    law, g7, g5 = LAWS[kind], make_group([7]), make_group([5])
    with pytest.raises(ValueError, match="negative"):
        law(g7, _keyed(kind, g7, [Fraction(3, 2), Fraction(-1, 2)]))
    with pytest.raises(ValueError) as exc:
        law(g7, _keyed(kind, g7, [Fraction(1, 2), Fraction(1, 3)]))
    assert str(exc.value) == SUM_MESSAGES[kind]
    half = Fraction(1, 2)
    for foreign in (_keyed(kind, g5, [half], start=1), _keyed(kind, g5, [0], start=1)):
        with pytest.raises(ValueError, match="outside the group"):
            law(g7, {**_keyed(kind, g7, [half]), **foreign})
    if kind == "joint":
        with pytest.raises(ValueError, match="outside the group"):
            law(g7, {(g7.zero, g5.zero): Fraction(1)})


@pytest.mark.parametrize("kind", ["distribution", "joint"])
def test_law_accepts_int_str_float_and_drops_zeros(kind):
    g7 = make_group([7])
    masses = _keyed(kind, g7, [0, "1/4", 0.5, Fraction(0), 0.25, "0"])
    law = LAWS[kind](g7, masses)
    keys = list(masses)
    assert list(law.probs) == [keys[1], keys[2], keys[4]]
    assert list(law.probs.values()) == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
    assert all(type(p) is Fraction for p in law.probs.values())
    assert list(LAWS[kind](g7, _keyed(kind, g7, [1])).probs.values()) == [Fraction(1)]


# ---------------------------------------------------------------------------
# conditional symmetry
# ---------------------------------------------------------------------------


def test_haar_pair_on_z15():
    g15 = make_group([15])
    mk = haar_on(subgroup_generated(g15, [elem(g15, 3)]))
    inst = canonical_instance(g15, scaling_endomorphism(g15, 7), mk, mk)
    assert is_conditionally_symmetric(inst)
    assert heyde_equation_check(inst)


def test_haar_pair_on_z9_alpha4_fails():
    g9 = make_group([9])
    mk = haar_on(subgroup_generated(g9, [elem(g9, 3)]))
    inst = canonical_instance(g9, scaling_endomorphism(g9, 4), mk, mk)
    assert not is_conditionally_symmetric(inst)
    assert not heyde_equation_check(inst)
    assert conditional_symmetry_witness(inst) is not None


def test_eq42_witness_values_on_z9():
    """Indicator characteristic functions: u=1, v=2 separates the sides."""
    g9 = make_group([9])
    mk = haar_on(subgroup_generated(g9, [elem(g9, 3)]))
    f = char_values_list(mk)
    adj = scaling_endomorphism(g9, 4).adjoint()
    u, v = elem(g9, 1), elem(g9, 2)
    av = adj(v)
    lhs = f[g9.index(u + v)] * f[g9.index(u + av)]
    rhs = f[g9.index(u - v)] * f[g9.index(u - av)]
    assert abs(lhs - 1) < 1e-9
    assert abs(rhs) < 1e-9


def test_degenerate_symmetry_criterion_exhaustive():
    """Point-mass pairs are symmetric exactly when x1 + alpha(x2) = 0, on
    odd-order groups; the equation check agrees (brute force over all v)."""
    g9 = make_group([9])
    alpha = scaling_endomorphism(g9, 2)
    for x1 in g9.elements:
        for x2 in g9.elements:
            inst = canonical_instance(
                g9, alpha, point_mass(g9, x1), point_mass(g9, x2)
            )
            expected = (x1 + alpha(x2)).is_zero
            assert is_conditionally_symmetric(inst) == expected
            assert heyde_equation_check(inst) == expected


def test_eq42_requires_canonical():
    g5 = make_group([5])
    two = scaling_endomorphism(g5, 2)
    inst = FormsInstance(
        g5, two, two, two, two, uniform(g5), uniform(g5)
    )
    with pytest.raises(NonCanonicalInstanceError):
        heyde_equation_check(inst)


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_symmetry_equivalence_randomized(seed):
    """Exact symmetry and the characteristic-function equation agree on
    random instances."""
    rng = random.Random(seed)
    group = make_group(rng.choice([[5], [7], [9], [3, 3]]))
    alpha = random_automorphism(group, rng)
    inst = canonical_instance(
        group,
        alpha,
        random_distribution(group, rng, 4, 9),
        random_distribution(group, rng, 4, 9),
    )
    assert is_conditionally_symmetric(inst) == heyde_equation_check(inst)


# ---------------------------------------------------------------------------
# derived forms and independence
# ---------------------------------------------------------------------------


def test_derived_forms_matrices():
    g5 = make_group([5])
    (m11, m12), (m21, m22) = derived_forms(
        canonical_instance(
            g5, scaling_endomorphism(g5, 2), uniform(g5), uniform(g5)
        )
    )
    assert (m11.matrix, m12.matrix) == (((3,),), ((4,),))
    assert (m21.matrix, m22.matrix) == (((2,),), ((3,),))

    g9 = make_group([9])
    (m11, m12), (m21, m22) = derived_forms(
        canonical_instance(
            g9, scaling_endomorphism(g9, 5), uniform(g9), uniform(g9)
        )
    )
    assert (m11.matrix, m12.matrix) == (((6,),), ((1,),))
    assert (m21.matrix, m22.matrix) == (((2,),), ((6,),))
    assert not m11.is_auto


def test_derived_forms_equal_coefficients_at_identity():
    g5 = make_group([5])
    (m11, m12), (m21, m22) = derived_forms(
        canonical_instance(
            g5, identity_endomorphism(g5), uniform(g5), uniform(g5)
        )
    )
    assert m11.matrix == m12.matrix == m21.matrix == m22.matrix == ((2,),)


def test_degenerate_forms_always_independent():
    g7 = make_group([7])
    inst = FormsInstance(
        g7,
        scaling_endomorphism(g7, 2),
        scaling_endomorphism(g7, 3),
        scaling_endomorphism(g7, 4),
        scaling_endomorphism(g7, 5),
        point_mass(g7, elem(g7, 3)),
        point_mass(g7, elem(g7, 6)),
    )
    assert are_forms_independent(inst)
    assert independence_equation_check(inst)


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_independence_equivalence_randomized(seed):
    """Direct factorization agrees with the characteristic-function
    equation for random endomorphism coefficients."""
    rng = random.Random(seed)
    g7 = make_group([7])
    coeffs = [scaling_endomorphism(g7, rng.randrange(7)) for _ in range(4)]
    inst = FormsInstance(
        g7,
        *coeffs,
        random_distribution(g7, rng, 4, 9),
        random_distribution(g7, rng, 4, 9),
    )
    assert are_forms_independent(inst) == independence_equation_check(inst)


def test_symmetric_implies_m_forms_independent():
    g15 = make_group([15])
    mk = haar_on(subgroup_generated(g15, [elem(g15, 3)]))
    inst = canonical_instance(g15, scaling_endomorphism(g15, 7), mk, mk)
    derived = derived_forms_instance(inst)
    assert are_forms_independent(derived)
    assert independence_equation_check(derived)


# ---------------------------------------------------------------------------
# reflected form: symmetry forces equal distributions
# ---------------------------------------------------------------------------


def test_iid_reflected_pairs_symmetric():
    rng = random.Random(5)
    for orders in ([5], [9], [3, 3], [15]):
        group = make_group(orders)
        mu = random_distribution(group, rng, 4, 9)
        inst = canonical_instance(
            group, neg_identity_endomorphism(group), mu, mu
        )
        assert is_conditionally_symmetric(inst)
        assert symmetry_forces_equal(inst)


def test_reflected_symmetric_pairs_have_equal_laws_on_z5():
    """Exhaustive small search: no symmetric pair with distinct laws."""
    g5 = make_group([5])
    neg = neg_identity_endomorphism(g5)
    candidates = []
    for a in range(5):
        candidates.append(point_mass(g5, elem(g5, a)))
        for b in range(a + 1, 5):
            for w in (1, 2):
                candidates.append(
                    rational(g5, [(a, w), (b, 3 - w)])
                )
    for mu1 in candidates:
        for mu2 in candidates:
            inst = canonical_instance(g5, neg, mu1, mu2)
            if is_conditionally_symmetric(inst):
                assert mu1 == mu2


def test_order2_group_breaks_forced_equality():
    """Negative control: on a 2-torsion group distinct laws can be
    symmetric (the guarded operation refuses even orders)."""
    g2 = make_group([2])
    neg = neg_identity_endomorphism(g2)
    mu1 = rational(g2, [(0, 1), (1, 1)])
    mu2 = point_mass(g2, elem(g2, 0))
    inst = canonical_instance(g2, neg, mu1, mu2)
    assert is_conditionally_symmetric(inst)
    assert mu1 != mu2
    with pytest.raises(ValueError):
        symmetry_forces_equal(inst)


def test_symmetry_forces_equal_preconditions():
    g5 = make_group([5])
    mu = uniform(g5)
    asym = canonical_instance(
        g5,
        scaling_endomorphism(g5, 2),
        point_mass(g5, elem(g5, 1)),
        point_mass(g5, elem(g5, 1)),
    )
    with pytest.raises(ValueError):
        symmetry_forces_equal(asym)  # alpha != -I
    not_symmetric = canonical_instance(
        g5,
        neg_identity_endomorphism(g5),
        point_mass(g5, elem(g5, 1)),
        point_mass(g5, elem(g5, 2)),
    )
    with pytest.raises(ValueError):
        symmetry_forces_equal(not_symmetric)


def test_heyde_check_fails_at_a_nan_tolerance():
    """Z5, alpha = 2, point masses at 0 and 1: L2 = 2 is not -L2.  Every
    residual compared with a NaN tolerance fails, as the exact verdict does."""
    g5 = make_group([5])
    inst = canonical_instance(
        g5, scaling_endomorphism(g5, 2), point_mass(g5, elem(g5, 0)), point_mass(g5, elem(g5, 1))
    )
    assert not is_conditionally_symmetric(inst)
    assert not heyde_equation_check(inst, tol=math.nan)
    assert not heyde_equation_check(inst)


def test_independence_check_fails_at_a_nan_tolerance():
    """Z5 with L1 = L2 = x1 + x2 for iid x on two points: the forms are
    dependent, and a NaN tolerance fails the check as the exact verdict does."""
    g5 = make_group([5])
    mu = rational(g5, [(0, 1), (1, 1)])
    inst = canonical_instance(g5, identity_endomorphism(g5), mu, mu)
    assert not are_forms_independent(inst)
    assert not independence_equation_check(inst, tol=math.nan)
    assert not independence_equation_check(inst)


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def test_canonicalize_identity_on_canonical():
    g5 = make_group([5])
    inst = canonical_instance(
        g5, scaling_endomorphism(g5, 4), uniform(g5), uniform(g5)
    )
    result = canonicalize(inst)
    assert result.instance.beta2 == inst.beta2
    assert result.instance.mu1 == inst.mu1


def test_canonicalize_unit_arithmetic_example():
    g5 = make_group([5])
    inst = FormsInstance(
        g5,
        scaling_endomorphism(g5, 2),
        scaling_endomorphism(g5, 3),
        scaling_endomorphism(g5, 1),
        scaling_endomorphism(g5, 4),
        uniform(g5),
        uniform(g5),
    )
    result = canonicalize(inst)
    # 2 * 1^{-1} * 4 * 3^{-1} = 2 * 4 * 2 = 16 = 1 (mod 5)
    assert result.instance.beta2.matrix == ((1,),)
    assert result.kernel.is_trivial


def test_canonicalize_requires_automorphisms():
    g9 = make_group([9])
    inst = FormsInstance(
        g9,
        scaling_endomorphism(g9, 3),
        identity_endomorphism(g9),
        identity_endomorphism(g9),
        scaling_endomorphism(g9, 2),
        uniform(g9),
        uniform(g9),
    )
    with pytest.raises(ValueError):
        canonicalize(inst)


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_canonicalize_preserves_symmetry_verdict(seed):
    rng = random.Random(seed)
    group = make_group(rng.choice([[7], [9]]))
    coeffs = [random_automorphism(group, rng) for _ in range(4)]
    inst = FormsInstance(
        group,
        *coeffs,
        random_distribution(group, rng, 3, 6),
        random_distribution(group, rng, 3, 6),
    )
    result = canonicalize(inst)
    assert is_conditionally_symmetric(inst) == is_conditionally_symmetric(
        result.instance
    )


# ---------------------------------------------------------------------------
# the Fourier sweeps against the direct loops
# ---------------------------------------------------------------------------


def heyde_residual(inst):
    """Largest |lhs - rhs| of the symmetry equation over every (u, v), each
    side formed as its own product."""
    group = inst.group
    f1, f2 = char_values_list(inst.mu1), char_values_list(inst.mu2)
    neg = group.negation_table()
    adj = inst.beta2.adjoint().table
    terms = [(v, av, neg[v], neg[av]) for v, av in enumerate(adj)]
    return max(
        abs(f1[row[v]] * f2[row[av]] - f1[row[minus_v]] * f2[row[minus_av]])
        for row in map(group.translation_row, range(group.order))
        for v, av, minus_v, minus_av in terms
    )


def independence_residual(inst):
    """Largest |lhs - rhs| of the independence equation over every (u, v),
    each character value looked up where it is used."""
    group = inst.group
    f1, f2 = char_values_list(inst.mu1), char_values_list(inst.mu2)
    a1, a2, b1, b2 = (
        coeff.adjoint().table for coeff in (inst.alpha1, inst.alpha2, inst.beta1, inst.beta2)
    )
    rows = ((u1, u2, group.translation_row(u1), group.translation_row(u2)) for u1, u2 in zip(a1, a2))
    return max(
        abs(f1[row1[v1]] * f2[row2[v2]] - f1[u1] * f2[u2] * f1[v1] * f2[v2])
        for u1, u2, row1, row2 in rows
        for v1, v2 in zip(b1, b2)
    )


def compatible_endomorphism(group, rng):
    """Random matrix with n_j * a_ij = 0 (mod n_i), a nonzero off-diagonal
    entry when the rank allows: a_ij is a multiple of n_i / gcd(n_i, n_j)."""
    orders = group.cyclic_orders
    while True:
        matrix = [
            [n_i // math.gcd(n_i, n_j) * rng.randrange(math.gcd(n_i, n_j)) for n_j in orders]
            for n_i in orders
        ]
        if group.rank == 1 or any(matrix[i][j] for i in range(group.rank) for j in range(i)):
            return make_endomorphism(group, matrix)


SWEEP_TOLS = [0.0, 1e-15, CHAR_TOL, 1e-3]


@pytest.mark.parametrize("orders", [[2, 4], [2, 2, 2], [9, 3], [4, 4], [15]])
def test_sweeps_match_direct_loops(orders):
    """heyde_equation_check and independence_equation_check compare the same
    floats as the direct loops over every (u, v): the verdict at each
    tolerance, 0 included, is whether the loops' largest residual is within
    it.  The left sides at v and -v are one side at v and the other at -v."""
    group = make_group(orders)
    rng = random.Random(str(orders))
    verdicts = {"heyde": set(), "independence": set()}
    for _ in range(8):
        alpha = compatible_endomorphism(group, rng)
        kernel = obstruction_kernel(alpha)
        mu = random_distribution(group, rng, 5, 9)
        on_kernel = Distribution.from_weights(
            group, [x.index for x in kernel], [rng.randint(1, 9) for _ in kernel]
        )
        pairs = [
            (mu, mu),
            (mu, random_distribution(group, rng, 5, 9)),
            (on_kernel, on_kernel),
            (haar_on(kernel), haar_on(kernel)),
        ]
        for mu1, mu2 in pairs:
            canonical = [
                canonical_instance(group, alpha, mu1, mu2),
                canonical_instance(group, neg_identity_endomorphism(group), mu1, mu2),
            ]
            general = [
                FormsInstance(group, *(compatible_endomorphism(group, rng) for _ in range(4)), mu1, mu2),
                *map(derived_forms_instance, canonical),
            ]
            sweeps = [(inst, "heyde", heyde_equation_check, heyde_residual) for inst in canonical]
            sweeps += [
                (inst, "independence", independence_equation_check, independence_residual)
                for inst in general
            ]
            for inst, name, check, residual in sweeps:
                r = residual(inst)
                for tol in SWEEP_TOLS:
                    assert check(inst, tol) == (r <= tol)
                    verdicts[name].add(r <= tol)
                # the largest residual is the same float: the verdict flips exactly there
                assert check(inst, r) and (r == 0 or not check(inst, math.nextafter(r, 0)))
    # on a group of exponent 2 every pair is symmetric
    assert verdicts["heyde"] == ({True} if group.exponent == 2 else {True, False})
    assert verdicts["independence"] == {True, False}


def test_independence_check_builds_each_translation_row_once(monkeypatch):
    """With alpha = -I the derived forms' first coefficient is 0, so its
    adjoint repeats u1 = 0, while u2 takes every index: the group builds each
    distinct row once, also across repeated checks."""
    g9 = make_group([9])
    mu = make_distribution(g9, {g9.element([1]): Fraction(1, 3), g9.element([4]): Fraction(2, 3)})
    derived = derived_forms_instance(
        canonical_instance(g9, neg_identity_endomorphism(g9), mu, mu)
    )
    built = []
    original = groups._build_translation_row
    monkeypatch.setattr(
        groups, "_build_translation_row", lambda group, i: built.append(i) or original(group, i)
    )
    assert independence_equation_check(derived)
    assert independence_equation_check(derived)
    assert sorted(built) == list(range(g9.order))

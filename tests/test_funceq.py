import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from heyde_lab import funceq
from heyde_lab.distributions import (
    haar_on,
    make_distribution,
    point_mass,
    symmetrize,
)
from heyde_lab.funceq import (
    CHAIN_TOL,
    CharDomainError,
    GroupFunction,
    chain_report,
    finite_difference,
    heyde_difference_chain,
    m_forms_difference_chain,
    max_chain_residual,
    max_m_forms_residual,
    max_third_difference,
    neg_log_char,
    quadratic_candidate,
    quadratic_check,
    quadratic_vanishing,
    zero_function,
)
from heyde_lab.groups import (
    Endomorphism,
    GroupElement,
    make_endomorphism,
    make_group,
    scaling_endomorphism,
    subgroup_generated,
)
from heyde_lab.predicates import canonical_instance, is_conditionally_symmetric


def elem(group, *coords):
    return group.element(coords)


def indicator_of_zero(group):
    return GroupFunction(
        group, {y: 1.0 if y.is_zero else 0.0 for y in group.elements}
    )


# ---------------------------------------------------------------------------
# the difference operator
# ---------------------------------------------------------------------------


def test_difference_of_constant_is_zero():
    g5 = make_group([5])
    const = GroupFunction(g5, {y: 3.5 for y in g5.elements})
    assert finite_difference(const, elem(g5, 1)).max_abs() == 0


def test_difference_at_zero_increment():
    g5 = make_group([5])
    f = indicator_of_zero(g5)
    assert finite_difference(f, elem(g5, 0)).max_abs() == 0


def test_difference_of_indicator():
    g5 = make_group([5])
    d = finite_difference(indicator_of_zero(g5), elem(g5, 1))
    assert d(elem(g5, 0)) == -1.0
    assert d(elem(g5, 4)) == 1.0


@pytest.mark.parametrize("orders", [[5], [9], [3, 3], [27], [81]])
def test_difference_operators_commute_exhaustive(orders):
    group = make_group(orders)
    rng = random.Random(7)
    f = GroupFunction(group, {y: rng.uniform(-2, 2) for y in group.elements})
    for h in group.elements:
        dh = finite_difference(f, h)
        for k in group.elements:
            left = finite_difference(dh, k)
            right = finite_difference(finite_difference(f, k), h)
            assert all(
                left.values[y] == right.values[y] for y in group.elements
            )


# ---------------------------------------------------------------------------
# log transforms
# ---------------------------------------------------------------------------


def test_neg_log_char_of_point_mass_at_zero():
    g5 = make_group([5])
    phi = neg_log_char(point_mass(g5, elem(g5, 0)))
    assert phi.max_abs() == 0


def test_neg_log_char_finite_for_nonvanishing():
    g3 = make_group([3])
    mu = make_distribution(
        g3, {elem(g3, 0): Fraction(3, 4), elem(g3, 1): Fraction(1, 4)}
    )
    phi = neg_log_char(symmetrize(mu))
    assert phi(elem(g3, 0)) == 0.0
    assert all(v >= 0 for v in phi.values.values())
    # symmetrized source: phi(-y) == phi(y)
    for y in g3.elements:
        assert phi(-y) == pytest.approx(phi(y), abs=1e-12)


def test_neg_log_char_rejects_vanishing_naming_witness():
    g9 = make_group([9])
    mk = haar_on(subgroup_generated(g9, [elem(g9, 3)]))
    with pytest.raises(CharDomainError, match=r"y=\(1\)"):
        neg_log_char(mk)


# ---------------------------------------------------------------------------
# symmetry chain
# ---------------------------------------------------------------------------


def kernel_instance_z9():
    g9 = make_group([9])
    alpha = scaling_endomorphism(g9, 5)
    mu = make_distribution(
        g9, {elem(g9, 3): Fraction(1, 2), elem(g9, 6): Fraction(1, 2)}
    )
    return canonical_instance(g9, alpha, mu, mu)


def test_chain_vanishes_on_degenerate_symmetric_instance():
    g7 = make_group([7])
    phi = neg_log_char(symmetrize(point_mass(g7, elem(g7, 4))))
    assert phi.max_abs() == 0
    r1, r2 = heyde_difference_chain(
        phi, phi, scaling_endomorphism(g7, 3).adjoint(),
        elem(g7, 1), elem(g7, 2), elem(g7, 3),
    )
    assert r1.max_abs() == 0 and r2.max_abs() == 0


def test_chain_vanishes_on_kernel_construction():
    """Nontrivial log-transform: the iid pair on {3, 6} in the kernel of
    multiplication by 6 is symmetric and its chain residuals vanish for all
    increment triples."""
    inst = kernel_instance_z9()
    assert is_conditionally_symmetric(inst)
    phi = neg_log_char(symmetrize(inst.mu1))
    assert phi.max_abs() > 1  # genuinely nonconstant
    worst, _ = max_chain_residual(phi, phi, inst.beta2.adjoint())
    assert worst <= CHAIN_TOL


def test_chain_explicit_triples_match_scan():
    inst = kernel_instance_z9()
    g9 = inst.group
    phi = neg_log_char(symmetrize(inst.mu1))
    adj = inst.beta2.adjoint()
    for k1, k2, k3 in [(1, 2, 3), (4, 0, 7), (8, 8, 8)]:
        r1, r2 = heyde_difference_chain(
            phi, phi, adj, elem(g9, k1), elem(g9, k2), elem(g9, k3)
        )
        assert r1.max_abs() <= CHAIN_TOL
        assert r2.max_abs() <= CHAIN_TOL


def test_chain_detects_asymmetry():
    """Negative control: a non-symmetric pair yields a residual above 1e-3
    for some increment triple."""
    g5 = make_group([5])
    mu1 = make_distribution(
        g5, {elem(g5, 0): Fraction(2, 3), elem(g5, 1): Fraction(1, 3)}
    )
    mu2 = make_distribution(
        g5, {elem(g5, 0): Fraction(1, 2), elem(g5, 2): Fraction(1, 2)}
    )
    inst = canonical_instance(g5, scaling_endomorphism(g5, 2), mu1, mu2)
    assert not is_conditionally_symmetric(inst)
    phi1 = neg_log_char(symmetrize(mu1))
    phi2 = neg_log_char(symmetrize(mu2))
    worst, _ = max_chain_residual(phi1, phi2, inst.beta2.adjoint())
    assert worst > 1e-3


# ---------------------------------------------------------------------------
# independence chain for the derived forms
# ---------------------------------------------------------------------------


def test_m_chain_zero_for_degenerate_inputs():
    g5 = make_group([5])
    psi = neg_log_char(symmetrize(point_mass(g5, elem(g5, 2))))
    res = m_forms_difference_chain(
        psi, psi, scaling_endomorphism(g5, 2).adjoint(),
        elem(g5, 1), elem(g5, 2), elem(g5, 3), elem(g5, 4),
    )
    assert res.p.max_abs() == 0
    assert res.residual_p.max_abs() == 0 and res.residual_q.max_abs() == 0


def test_m_chain_residuals_vanish_despite_nontrivial_kernel():
    """The two chained residuals need no kernel condition, so they vanish
    even on the kernel construction, where P itself is far from zero."""
    inst = kernel_instance_z9()
    psi = neg_log_char(symmetrize(inst.mu1))
    adj = inst.beta2.adjoint()
    worst, _ = max_m_forms_residual(psi, psi, adj)
    assert worst <= CHAIN_TOL
    p, _q = quadratic_candidate(psi, psi, adj)
    assert p.max_abs() > 1


def test_third_difference_needs_trivial_kernel():
    """With Ker(I + alpha) nontrivial the unrestricted third difference of
    P survives: frozen value 3 * log 4 for the iid kernel pair."""
    inst = kernel_instance_z9()
    psi = neg_log_char(symmetrize(inst.mu1))
    p, _q = quadratic_candidate(psi, psi, inst.beta2.adjoint())
    assert max_third_difference(p) == pytest.approx(3 * math.log(4), abs=1e-9)
    assert not quadratic_check(p, tol=CHAIN_TOL)


def test_trivial_kernel_symmetric_instance_has_vanishing_p():
    g7 = make_group([7])
    alpha = scaling_endomorphism(g7, 3)
    inst = canonical_instance(
        g7, alpha, point_mass(g7, elem(g7, 4)), point_mass(g7, elem(g7, 1))
    )
    assert is_conditionally_symmetric(inst)
    psi1 = neg_log_char(symmetrize(inst.mu1))
    psi2 = neg_log_char(symmetrize(inst.mu2))
    p, q = quadratic_candidate(psi1, psi2, alpha.adjoint())
    assert p.max_abs() <= CHAIN_TOL
    assert q.max_abs() <= CHAIN_TOL
    assert max_third_difference(p) <= CHAIN_TOL
    assert quadratic_check(p, tol=CHAIN_TOL)


def test_chain_scan_randomized_path_on_large_group(monkeypatch):
    """Groups with |Y|^3 above the full-enumeration bound fall back to
    seeded random triples; a degenerate symmetric pair still reports a
    zero residual."""
    monkeypatch.setattr(funceq, "RANDOM_SEED", 3)
    monkeypatch.setattr(funceq, "RANDOM_TRIPLES", 200)
    g47 = make_group([47])
    phi = neg_log_char(symmetrize(point_mass(g47, elem(g47, 11))))
    adj = scaling_endomorphism(g47, 5).adjoint()
    worst, _ = max_chain_residual(phi, phi, adj)
    assert worst == 0.0
    worst, _ = max_m_forms_residual(phi, phi, adj)
    assert worst == 0.0


def test_chain_report_shape():
    import json

    inst = kernel_instance_z9()
    psi = neg_log_char(symmetrize(inst.mu1))
    adj = inst.beta2.adjoint()
    worst, increments = max_m_forms_residual(psi, psi, adj)
    p, _q = quadratic_candidate(psi, psi, adj)
    report = chain_report(worst, increments, quadratic_check(p))
    assert set(report) == {"max_residual", "worst_increments", "quadratic"}
    assert report["quadratic"] is False
    assert json.dumps(report)  # JSON-serializable


# ---------------------------------------------------------------------------
# the quadratic identity
# ---------------------------------------------------------------------------


def test_quadratic_check_zero_function():
    assert quadratic_check(zero_function(make_group([5])))


def test_quadratic_check_indicator_counterexample():
    g5 = make_group([5])
    phi = indicator_of_zero(g5)
    # u = v = 1: phi(2) + phi(0) = 1 while 2*(phi(1) + phi(1)) = 0
    assert not quadratic_check(phi)


def test_quadratic_check_fails_at_a_nan_tolerance():
    """The indicator of 0 is not quadratic, and no residual is within NaN."""
    phi = indicator_of_zero(make_group([5]))
    assert not quadratic_check(phi, tol=math.nan)
    assert not quadratic_check(zero_function(make_group([5])), tol=math.nan)


def test_quadratic_check_true_quadratic_on_reals_fails_mod_n():
    """y -> y^2 mod the residue lift is not a solution: wrap-around breaks
    the identity, as the vanishing record predicts."""
    g5 = make_group([5])
    phi = GroupFunction(g5, {y: float(y.coords[0] ** 2) for y in g5.elements})
    assert not quadratic_check(phi)


@pytest.mark.parametrize("orders", [[3], [5], [9], [3, 3], [15], [27], [81], [4], [2, 3]])
def test_quadratic_vanishing_record(orders):
    record = quadratic_vanishing(make_group(orders))
    assert record.valid
    assert record.steps[0] == (1, 1, 1)
    assert record.steps[1] == (2, 4, 4)
    assert all(c == n * n for n, c, _target in record.steps)
    assert "forces phi == 0" in record.conclusion


@pytest.mark.parametrize("orders", [[3], [5], [7], [9], [3, 3], [2, 3], [4], [27]])
def test_quadratic_nullspace_oracle(orders):
    """Independent oracle: the linear system of the quadratic identity has
    full rank, so the zero function is its only solution."""
    np = pytest.importorskip("numpy", exc_type=ImportError)
    group = make_group(orders)
    n = group.order
    index = group.index
    rows = []
    for u in group.elements:
        for v in group.elements:
            row = np.zeros(n)
            row[index(u + v)] += 1
            row[index(u - v)] += 1
            row[index(u)] -= 2
            row[index(v)] -= 2
            rows.append(row)
    rank = np.linalg.matrix_rank(np.array(rows), tol=1e-9)
    assert rank == n


@settings(max_examples=30)
@given(st.integers(0, 10**6))
def test_random_functions_fail_quadratic(seed):
    rng = random.Random(seed)
    group = make_group([9])
    values = {y: rng.uniform(-1, 1) for y in group.elements}
    values[group.zero] = 0.0
    f = GroupFunction(group, values)
    assert not quadratic_check(f) or f.max_abs() < 1e-9


# ---------------------------------------------------------------------------
# the chain layer against element arithmetic
# ---------------------------------------------------------------------------


def non_diagonal_adjoint(group, rng):
    """Adjoint of a random compatible matrix with a nonzero off-diagonal
    entry: a_ij is a multiple of n_i / gcd(n_i, n_j)."""
    orders = group.cyclic_orders
    steps = [[n_i // math.gcd(n_i, n_j) for n_j in orders] for n_i in orders]
    while True:
        matrix = [
            [step * rng.randrange(n_i // step) for step in row]
            for row, n_i in zip(steps, orders)
        ]
        if any(matrix[i][j] for i in range(group.rank) for j in range(group.rank) if i != j):
            return make_endomorphism(group, matrix).adjoint()


def reference_difference(values, h):
    """D_h f as a dict, from element addition."""
    return {y: values[y + h] - values[y] for y in values}


def reference_climb(values, increments):
    for h in increments:
        values = reference_difference(values, h)
    return values


@pytest.mark.parametrize("orders", [[2, 6], [9, 3], [2, 4, 4]])
def test_chain_layer_matches_element_arithmetic(orders, monkeypatch):
    """finite_difference, both chains and quadratic_candidate equal dict
    references built with element + and Endomorphism.__call__, exactly, and
    make no element operation or endomorphism call of their own."""
    group = make_group(orders)
    rng = random.Random(str(orders))
    calls = []
    spied = [(GroupElement, op) for op in ("__add__", "__sub__", "__neg__", "__rmul__")]
    for cls, name in spied + [(Endomorphism, "__call__")]:
        original = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    for _ in range(4):
        a = non_diagonal_adjoint(group, rng)
        psi1, psi2 = (
            GroupFunction(group, {y: rng.uniform(-2, 2) for y in group.elements})
            for _ in range(2)
        )
        h1, h2, h, k = (rng.choice(group.elements) for _ in range(4))

        calls.clear()
        diff = finite_difference(psi1, h)
        r1, r2 = heyde_difference_chain(psi1, psi2, a, h1, h2, h)
        p, q = quadratic_candidate(psi1, psi2, a)
        m = m_forms_difference_chain(psi1, psi2, a, h1, h2, h, k)
        assert calls == []

        v1, v2 = psi1.values, psi2.values
        assert diff.values == reference_difference(v1, h)
        assert r1.values == reference_climb(v1, [h1 + a(h1), h2 + h2, h - a(h)])
        assert r2.values == reference_climb(v2, [a(h1) + a(h1), h2 + a(h2), a(h) - h])
        ref_p = {y: v1[y + a(y)] + v2[a(y) + a(y)] for y in group.elements}
        ref_q = {y: v1[y + y] + v2[y + a(y)] for y in group.elements}
        assert p.values == m.p.values == ref_p
        assert q.values == m.q.values == ref_q
        assert m.residual_p.values == reference_climb(ref_p, [h1 + a(h1), h2 + h2, h])
        assert m.residual_q.values == reference_climb(
            ref_q, [-(a(h1) + a(h1)), -(h2 + a(h2)), k]
        )


# ---------------------------------------------------------------------------
# reported increments replay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [5, 47])
def test_worst_increments_replay_to_the_reported_residual(order, monkeypatch):
    """Both scans report every increment of their chain, and the chains
    evaluated there reach exactly the reported residual: the exhaustive scan
    on Z5, seeded random triples on Z47."""
    monkeypatch.setattr(funceq, "RANDOM_TRIPLES", 200)
    group = make_group([order])
    mu1 = make_distribution(group, {elem(group, 0): Fraction(2, 3), elem(group, 1): Fraction(1, 3)})
    mu2 = make_distribution(group, {elem(group, 0): Fraction(1, 2), elem(group, 2): Fraction(1, 2)})
    phi1, phi2 = neg_log_char(symmetrize(mu1)), neg_log_char(symmetrize(mu2))
    adj = scaling_endomorphism(group, 2).adjoint()

    worst, increments = max_chain_residual(phi1, phi2, adj)
    assert worst > 1e-3 and len(increments) == 3
    r1, r2 = heyde_difference_chain(phi1, phi2, adj, *increments)
    assert max(r1.max_abs(), r2.max_abs()) == worst

    worst, increments = max_m_forms_residual(phi1, phi2, adj)
    assert worst > 1e-3 and len(increments) == 4
    m = m_forms_difference_chain(phi1, phi2, adj, *increments)
    assert max(m.residual_p.max_abs(), m.residual_q.max_abs()) == worst

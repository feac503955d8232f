"""Randomized property suites tying the exact predicates, the
characteristic-function equations, the difference chains and the scans
together.

Each suite draws seeded random material, checks one family of equivalences
or implications, and reports a pass/fail result with failure descriptions.
The suites back the ``verify`` CLI subcommand; the pytest acceptance module
runs the same criteria independently at their full sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .distributions import (
    Distribution,
    char_values_list,
    haar_on,
    point_mass,
    symmetrize,
    uniform,
)
from .funceq import (
    CHAIN_TOL,
    max_chain_residual,
    max_m_forms_residual,
    max_third_difference,
    neg_log_char,
    quadratic_candidate,
    quadratic_check,
    quadratic_vanishing,
    GroupFunction,
)
from .groups import (
    FiniteAbelianGroup,
    make_group,
    neg_identity_endomorphism,
    scaling_endomorphism,
    subgroup_generated,
)
from .predicates import (
    FormsInstance,
    are_forms_independent,
    canonical_instance,
    canonicalize,
    derived_forms_instance,
    heyde_equation_check,
    independence_equation_check,
    is_conditionally_symmetric,
    obstruction_kernel,
    symmetry_forces_equal,
)
from .search import (
    SearchConfig,
    checked_instance,
    grid_scan,
    padic_scan,
    random_automorphism,
    random_distribution,
)

#: Cyclic-order lists of the groups exercised by the randomized suites.
DEFAULT_GROUP_ORDERS: tuple[tuple[int, ...], ...] = (
    (3,),
    (5,),
    (7,),
    (9,),
    (3, 3),
    (15,),
)

#: (cyclic orders, multiplier) of the cyclic groups where I + alpha is
#: invertible, scanned by the theoremB suite and scripts/scan_invertible_case.py.
THEOREM_B_CASES = (((5,), 2), ((7,), 3), ((9,), 4), ((15,), 7))

#: Support and weight caps of the distributions drawn for the instance pools.
POOL_SUPPORT_CAP = 4
POOL_WEIGHT_CAP = 9


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def random_canonical_instance(
    group: FiniteAbelianGroup, rng: random.Random
) -> FormsInstance:
    alpha = random_automorphism(group, rng)
    mu1 = random_distribution(group, rng, POOL_SUPPORT_CAP, POOL_WEIGHT_CAP)
    mu2 = random_distribution(group, rng, POOL_SUPPORT_CAP, POOL_WEIGHT_CAP)
    return canonical_instance(group, alpha, mu1, mu2)


def engineered_symmetric_instances(seed: int = 0) -> list[FormsInstance]:
    """Deterministic pool of instances that are symmetric by construction:
    iid pairs with the reflected form, iid pairs supported in a nontrivial
    Ker(I + alpha), matched degenerate pairs, and uniform pairs."""
    rng = random.Random(seed)
    pool: list[FormsInstance] = []
    for orders in DEFAULT_GROUP_ORDERS:
        group = make_group(orders)
        neg = neg_identity_endomorphism(group)
        for _ in range(3):
            mu = random_distribution(group, rng, POOL_SUPPORT_CAP, POOL_WEIGHT_CAP)
            pool.append(canonical_instance(group, neg, mu, mu))
        # matched degenerate pair x1 = -alpha(x2) for a random automorphism
        alpha = random_automorphism(group, rng)
        x2 = rng.choice(group.elements)
        pool.append(
            canonical_instance(
                group, alpha, point_mass(group, -alpha(x2)), point_mass(group, x2)
            )
        )
        # uniform iid pair whenever alpha - I is invertible
        if (alpha + neg).is_auto:
            pool.append(canonical_instance(group, alpha, uniform(group), uniform(group)))
        # iid pairs inside a nontrivial kernel of I + alpha, when one exists
        for _ in range(40):
            beta = random_automorphism(group, rng)
            kernel = obstruction_kernel(beta)
            if 2 < len(kernel) < group.order:
                nonzero = [x.index for x in kernel if not x.is_zero]
                mu = Distribution.from_weights(group, nonzero[:2], [1, 2])
                for law in (mu, haar_on(kernel)):
                    pool.append(checked_instance(group, beta, law, law, kernel, "kernel"))
                break
    g15 = make_group([15])
    k5 = subgroup_generated(g15, [g15.element([3])])
    pool.append(
        canonical_instance(g15, scaling_endomorphism(g15, 7), haar_on(k5), haar_on(k5))
    )
    return pool


def instance_pool(seed: int, random_count: int = 1000) -> list[FormsInstance]:
    """random_count random canonical instances round-robined over the
    groups, plus the engineered symmetric pool."""
    rng = random.Random(seed)
    groups = [make_group(o) for o in DEFAULT_GROUP_ORDERS]
    pool = [
        random_canonical_instance(groups[i % len(groups)], rng)
        for i in range(random_count)
    ]
    pool.extend(engineered_symmetric_instances(seed ^ 0xA5A5))
    return pool


def has_positive_symmetrized_char(inst: FormsInstance) -> bool:
    for mu in (inst.mu1, inst.mu2):
        values = char_values_list(symmetrize(mu))
        if any(v.real <= 1e-9 for v in values):
            return False
    return True


class _Tally:
    """A suite's check count and failure lines."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures: list[str] = []

    def check(self, *conditions: tuple[bool, Callable[[], str]], count: int = 1) -> None:
        """Count `count` checks, one by default, and record message() for
        each (ok, message) condition that failed; a passing check formats
        no message."""
        self.checks += count
        for ok, message in conditions:
            if not ok:
                self.failures.append(message())

    def result(self, name: str, **details) -> SuiteResult:
        """The suite's result, keeping its first 20 failure lines."""
        return SuiteResult(name, not self.failures, self.checks, self.failures[:20], details)


def suite_lemma1(seed: int = 0, trials: int = 1000) -> SuiteResult:
    """Exact conditional symmetry agrees with the characteristic-function
    equation on every instance."""
    tally = _Tally()
    symmetric = 0
    for i, inst in enumerate(instance_pool(seed, random_count=trials)):
        exact = is_conditionally_symmetric(inst)
        fourier = heyde_equation_check(inst)
        symmetric += exact
        tally.check((exact == fourier, lambda: f"instance {i}: exact={exact} fourier={fourier}"))
    return tally.result("lemma1", symmetric_instances=symmetric)


def suite_lemma5(seed: int = 0, trials: int = 300) -> SuiteResult:
    """Symmetric instances have independent derived forms."""
    tally = _Tally()
    pool = [inst for inst in instance_pool(seed, random_count=trials)
            if is_conditionally_symmetric(inst)]
    for i, inst in enumerate(pool):
        tally.check((are_forms_independent(derived_forms_instance(inst)),
                     lambda: f"symmetric instance {i}: derived forms dependent"))
    return tally.result("lemma5", symmetric_instances=len(pool))


def suite_lemma8(seed: int = 0, trials: int = 500) -> SuiteResult:
    """Exact independence of two forms agrees with its characteristic-
    function equation, on random coefficient endomorphisms."""
    rng = random.Random(seed)
    group = make_group([7])
    tally = _Tally()
    for i in range(trials):
        coeffs = [
            scaling_endomorphism(group, rng.randrange(7)) for _ in range(4)
        ]
        inst = FormsInstance(
            group,
            *coeffs,
            random_distribution(group, rng, 4, 9),
            random_distribution(group, rng, 4, 9),
        )
        tally.check((are_forms_independent(inst) == independence_equation_check(inst),
                     lambda: f"trial {i}: direct and equation checks disagree"))
    for i, inst in enumerate(engineered_symmetric_instances(seed)):
        derived = derived_forms_instance(inst)
        tally.check((are_forms_independent(derived) and independence_equation_check(derived),
                     lambda: f"engineered {i}: derived forms not independent"))
    return tally.result("lemma8")


def suite_corollary1(seed: int = 0, trials: int = 100) -> SuiteResult:
    """iid pairs with the reflected form are symmetric; on odd-order
    groups, symmetric reflected-form pairs have equal distributions."""
    rng = random.Random(seed)
    tally = _Tally()
    groups = [make_group(o) for o in DEFAULT_GROUP_ORDERS]
    for i in range(trials):
        group = groups[i % len(groups)]
        mu = random_distribution(group, rng, 4, 9)
        inst = canonical_instance(group, neg_identity_endomorphism(group), mu, mu)
        tally.check((is_conditionally_symmetric(inst), lambda: f"iid trial {i}: not symmetric"))
    for orders in ((5,), (7,)):
        group = make_group(orders)
        scan = grid_scan(
            group,
            neg_identity_endomorphism(group),
            SearchConfig(
                support_size_cap=2, denominator_cap=6, random_trials=200, seed=seed
            ),
        )
        for r in scan.hits:
            inst = canonical_instance(group, r.alpha, r.mu1, r.mu2)
            tally.check((r.mu1 == r.mu2 and symmetry_forces_equal(inst),
                         lambda: f"{group}: symmetric hit with mu1 != mu2"))
    return tally.result("corollary1")


def suite_corollary3(seed: int = 0, trials: int = 200) -> SuiteResult:
    """Canonicalization preserves the exact symmetry verdict and reports
    the kernel of I + alpha'."""
    rng = random.Random(seed)
    tally = _Tally()
    groups = [make_group([9]), make_group([7])]
    for i in range(trials):
        group = groups[i % 2]
        coeffs = [random_automorphism(group, rng) for _ in range(4)]
        inst = FormsInstance(
            group,
            *coeffs,
            random_distribution(group, rng, 3, 6),
            random_distribution(group, rng, 3, 6),
        )
        result = canonicalize(inst)
        alpha_prime = result.instance.beta2
        direct = {x for x in group.elements if (x + alpha_prime(x)).is_zero}
        tally.check(
            (is_conditionally_symmetric(inst) == is_conditionally_symmetric(result.instance),
             lambda: f"trial {i}: verdict changed by canonicalization"),
            (direct == set(result.kernel.elements),
             lambda: f"trial {i}: reported kernel mismatch"),
        )
    return tally.result("corollary3")


def _chain_instances(seed: int) -> list[FormsInstance]:
    return [
        inst
        for inst in engineered_symmetric_instances(seed)
        if inst.group.order <= 15 and has_positive_symmetrized_char(inst)
    ]


def suite_chain16(seed: int = 0) -> SuiteResult:
    """Triple-difference residuals of the symmetry equation vanish on
    symmetric instances with strictly positive symmetrized transforms."""
    tally = _Tally()
    worst_overall = 0.0
    for i, inst in enumerate(_chain_instances(seed)):
        phi1 = neg_log_char(symmetrize(inst.mu1))
        phi2 = neg_log_char(symmetrize(inst.mu2))
        worst, _ = max_chain_residual(phi1, phi2, inst.beta2.adjoint())
        worst_overall = max(worst_overall, worst)
        tally.check((worst <= CHAIN_TOL, lambda: f"instance {i}: residual {worst}"))
    return tally.result("chain16", max_residual=worst_overall)


def suite_chain10(seed: int = 0) -> SuiteResult:
    """Independence-chain residuals vanish; with trivial Ker(I + alpha) the
    diagonal P has vanishing third differences, satisfies the quadratic
    identity, and is identically zero."""
    tally = _Tally()
    for i, inst in enumerate(_chain_instances(seed)):
        psi1 = neg_log_char(symmetrize(inst.mu1))
        psi2 = neg_log_char(symmetrize(inst.mu2))
        adj = inst.beta2.adjoint()
        worst, _ = max_m_forms_residual(psi1, psi2, adj)
        tally.check((worst <= CHAIN_TOL, lambda: f"instance {i}: chain residual {worst}"))
        if obstruction_kernel(inst.beta2).is_trivial and inst.group.order % 2 == 1:
            p, _q = quadratic_candidate(psi1, psi2, adj)
            tally.check(
                (max_third_difference(p) <= CHAIN_TOL,
                 lambda: f"instance {i}: third difference of P nonzero"),
                (quadratic_check(p, tol=CHAIN_TOL),
                 lambda: f"instance {i}: P fails the quadratic identity"),
                (p.max_abs() <= CHAIN_TOL, lambda: f"instance {i}: P does not vanish"),
            )
    return tally.result("chain10")


def suite_quadratic(seed: int = 0, trials: int = 200) -> SuiteResult:
    """Quadratic-identity solutions vanish: the scaling records are valid
    and random nonzero functions fail the identity."""
    rng = random.Random(seed)
    tally = _Tally()
    for orders in DEFAULT_GROUP_ORDERS + ((27,), (81,), (2, 3), (4,)):
        group = make_group(orders)
        tally.check((quadratic_vanishing(group).valid, lambda: f"{group}: scaling record invalid"))
    group = make_group([9])
    for i in range(trials):
        values = [0.0] + [rng.uniform(-1, 1) for _ in range(group.order - 1)]
        f = GroupFunction.from_row(group, values)
        tally.check((not quadratic_check(f) or f.max_abs() <= 1e-9,
                     lambda: f"trial {i}: nonzero quadratic solution found"))
    return tally.result("quadratic")


def suite_theorem_b(seed: int = 0, trials: int = 1000) -> SuiteResult:
    """Scans over groups with I + alpha invertible find no symmetric
    non-idempotent pair."""
    tally = _Tally()
    config = SearchConfig(
        support_size_cap=2, denominator_cap=4, random_trials=trials, seed=seed
    )
    for orders, a in THEOREM_B_CASES:
        group = make_group(orders)
        scan = grid_scan(group, scaling_endomorphism(group, a), config)
        bad = sum(not r.pair_idempotent for r in scan.hits)
        tally.check((not bad, lambda: f"{group}, alpha={a}: {bad} non-idempotent hits"),
                    count=scan.summary["counts"]["symmetric"])
    return tally.result("theoremB")


def suite_theorem_c_finite(seed: int = 0, trials: int = 500) -> SuiteResult:
    """Finite-level p-power scans land on the expected side of the digit
    case split."""
    tally = _Tally()
    config = SearchConfig(
        support_size_cap=2, denominator_cap=4, random_trials=trials, seed=seed
    )
    unit = padic_scan(3, 3, 4, config)
    tally.check((unit.consistent is True, lambda: "scan (3,3,4): expected all-idempotent hits"))
    kernel = padic_scan(3, 3, 5, config)
    tally.check((kernel.consistent is True, lambda: "scan (3,3,5): expected a non-idempotent hit"))
    two = padic_scan(2, 3, 3, config)
    tally.check((two.consistent is None and two.tag == "exploratory p=2",
                 lambda: "scan (2,3,3): expected the exploratory tag"))
    return tally.result("theoremC-finite")


SUITES = {
    "lemma1": suite_lemma1,
    "lemma5": suite_lemma5,
    "lemma8": suite_lemma8,
    "corollary1": suite_corollary1,
    "corollary3": suite_corollary3,
    "chain16": suite_chain16,
    "chain10": suite_chain10,
    "quadratic": suite_quadratic,
    "theoremB": suite_theorem_b,
    "theoremC-finite": suite_theorem_c_finite,
}


#: Suites that check a fixed instance pool drawn from the seed and take no
#: trial count.
UNTRIALED_SUITES = ("chain16", "chain10")

#: Largest trial count a suite accepts, refused before any trial runs; the
#: slowest suites, corollary3 and lemma8, take about 22 and 20 s at it
#: (Python 3.11, one core).
MAX_VERIFY_TRIALS = 10**5


def run_suite(name: str, *, seed: int = 0, trials: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    func = SUITES[name]
    if trials is None:
        return func(seed=seed)
    if not 0 <= trials <= MAX_VERIFY_TRIALS:
        raise ValueError(f"trials must be in 0..{MAX_VERIFY_TRIALS}, got {trials}")
    if name in UNTRIALED_SUITES:
        raise ValueError(
            f"suite {name} takes no trial count: it checks a fixed instance "
            "pool drawn from the seed"
        )
    return func(seed=seed, trials=trials)

"""Evaluate the finite-difference chains on a symmetric instance supported
inside a nontrivial Ker(I + alpha), and contrast with a non-symmetric pair.

Prints the JSON chain reports: maximal residual over all increment
choices, the worst increments (k1, k2, k3) of the symmetry chain and
(h1, h2, h, k) of the independence chain, on which the chains replay to
that residual, and whether the diagonal function P of the independence
chain satisfies the quadratic identity.

    python scripts/chain_residuals.py
"""

import json
import sys
from fractions import Fraction

from heyde_lab.distributions import make_distribution, symmetrize
from heyde_lab.funceq import (
    chain_report,
    max_chain_residual,
    max_m_forms_residual,
    max_third_difference,
    neg_log_char,
    quadratic_candidate,
    quadratic_check,
)
from heyde_lab.groups import make_group, scaling_endomorphism
from heyde_lab.predicates import canonical_instance, is_conditionally_symmetric
from heyde_lab.search import kernel_construction


def report_for(inst, label):
    print(f"--- {label} (symmetric={is_conditionally_symmetric(inst)})")
    phi1 = neg_log_char(symmetrize(inst.mu1))
    phi2 = neg_log_char(symmetrize(inst.mu2))
    adj = inst.beta2.adjoint()
    worst, increments = max_chain_residual(phi1, phi2, adj)
    print("symmetry chain:", json.dumps(chain_report(worst, increments, None)))
    worst, increments = max_m_forms_residual(phi1, phi2, adj)
    p, _q = quadratic_candidate(phi1, phi2, adj)
    print(
        "independence chain:",
        json.dumps(chain_report(worst, increments, quadratic_check(p))),
    )
    print(f"max |D_h^3 P| over all h: {max_third_difference(p):.6f}")


def main() -> int:
    g9 = make_group([9])
    alpha = scaling_endomorphism(g9, 5)
    mu = make_distribution(
        g9, {g9.element([3]): Fraction(1, 2), g9.element([6]): Fraction(1, 2)}
    )
    report_for(kernel_construction(g9, alpha, mu), "iid pair on Ker(mult-by-6), Z9")

    g5 = make_group([5])
    mu1 = make_distribution(
        g5, {g5.element([0]): Fraction(2, 3), g5.element([1]): Fraction(1, 3)}
    )
    mu2 = make_distribution(
        g5, {g5.element([0]): Fraction(1, 2), g5.element([2]): Fraction(1, 2)}
    )
    report_for(
        canonical_instance(g5, scaling_endomorphism(g5, 2), mu1, mu2),
        "non-symmetric pair, Z5",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every property suite fails on a planted defect.

Each case plants a plausible defect in the code a suite checks, never in the
suite itself, and asserts the suite's verdict, check count and failure lines,
both from ``run_suite`` and from ``verify --suite NAME``.  Together the cases
reach all nineteen failure conditions of the ten suites.
"""

import dataclasses
import io
import re

import pytest

from heyde_lab import funceq, predicates, search, verify
from heyde_lab.cli import run
from heyde_lab.funceq import GroupFunction, QuadraticVanishingRecord
from heyde_lab.groups import identity_endomorphism


def opposite(predicate):
    return lambda inst: not predicate(inst)


def moved_char_value(mu):
    """neg_log_char with its value at the second character moved by 1e-6."""
    phi = funceq.neg_log_char(mu)
    row = list(phi.row)
    row[1] += 1e-6
    return GroupFunction.from_row(phi.group, row)


def derived_forms_without_the_two(inst):
    """(M1, M2) with M1 = (I + alpha) x1 + alpha x2: the factor 2 dropped."""
    ident, alpha = identity_endomorphism(inst.group), inst.beta2
    return predicates.FormsInstance(
        inst.group, ident + alpha, alpha, 2 * ident, ident + alpha, inst.mu1, inst.mu2
    )


def canonicalize_leaving_mu2(inst):
    """Canonicalization that does not push mu2 forward by alpha2."""
    result = predicates.canonicalize(inst)
    alpha_prime, new1 = result.instance.beta2, result.instance.mu1
    return predicates.CanonicalizationResult(
        predicates.canonical_instance(inst.group, alpha_prime, new1, inst.mu2), result.kernel
    )


def canonicalize_reporting_i_minus(inst):
    """Canonicalization that reports Ker(I - alpha') as Ker(I + alpha')."""
    result = predicates.canonicalize(inst)
    ident = identity_endomorphism(inst.group)
    return dataclasses.replace(result, kernel=(ident - result.instance.beta2).kernel())


def vanishing_adding_one(group):
    """quadratic_vanishing whose recurrence adds 1 where it should add 2."""
    steps, c_prev, c_cur = [(1, 1, 1)], 0, 1
    for n in range(2, group.order + 1):
        c_prev, c_cur = c_cur, 2 * c_cur + 1 - c_prev
        steps.append((n, c_cur, n * n))
    return QuadraticVanishingRecord(group, tuple(steps), all(c == t for _, c, t in steps))


def loose_quadratic_check(phi, tol=1e-9):
    return funceq.quadratic_check(phi, tol=10.0)


def negated_consistency(*args):
    report = search.padic_scan(*args)
    return dataclasses.replace(report, consistent=not report.consistent)


#: (suite, trials, (module, name, defect), checks, failure lines as regexes);
#: a regex must match one whole failure line.
PLANTED = {
    "heyde-check-opposite": (
        "lemma1", 5, (verify, "heyde_equation_check", opposite(predicates.heyde_equation_check)),
        39, [r"instance 0: exact=False fourier=True", r"instance 5: exact=True fourier=False"],
    ),
    "derived-forms-without-2": (
        "lemma5", 30, (verify, "derived_forms_instance", derived_forms_without_the_two),
        34, [r"symmetric instance 33: derived forms dependent"],
    ),
    "independence-check-opposite": (
        "lemma8", 2,
        (verify, "independence_equation_check", opposite(predicates.independence_equation_check)),
        36, [r"trial 0: direct and equation checks disagree",
             r"engineered 0: derived forms not independent"],
    ),
    "symmetry-check-opposite": (
        "corollary1", 3, (verify, "is_conditionally_symmetric",
                          opposite(predicates.is_conditionally_symmetric)),
        376, [r"iid trial 0: not symmetric"],
    ),
    "forces-equal-opposite": (
        "corollary1", 3, (verify, "symmetry_forces_equal", opposite(predicates.symmetry_forces_equal)),
        376, [r"Z5: symmetric hit with mu1 != mu2"],
    ),
    "canonicalize-leaves-mu2": (
        "corollary3", 20, (verify, "canonicalize", canonicalize_leaving_mu2),
        20, [r"trial 19: verdict changed by canonicalization"],
    ),
    "canonicalize-kernel-i-minus": (
        "corollary3", 20, (verify, "canonicalize", canonicalize_reporting_i_minus),
        20, [r"trial 0: reported kernel mismatch"],
    ),
    "char-value-moved-chain16": (
        "chain16", None, (verify, "neg_log_char", moved_char_value),
        27, [r"instance 11: residual \S+"],
    ),
    "char-value-moved-chain10": (
        "chain10", None, (verify, "neg_log_char", moved_char_value),
        29, [r"instance 11: chain residual \S+", r"instance 11: third difference of P nonzero",
             r"instance 11: P fails the quadratic identity", r"instance 11: P does not vanish"],
    ),
    "vanishing-recurrence-adds-1": (
        "quadratic", 3, (verify, "quadratic_vanishing", vanishing_adding_one),
        13, [r"Z3: scaling record invalid", r"Z2xZ3: scaling record invalid"],
    ),
    "quadratic-check-loose": (
        "quadratic", 3, (verify, "quadratic_check", loose_quadratic_check),
        13, [r"trial 0: nonzero quadratic solution found"],
    ),
    # grid_scan classifies each hit law through search's own name
    "idempotent-shift-missed": (
        "theoremB", 10, (search, "is_idempotent_shift", lambda mu: None),
        43, [r"Z5, alpha=2: 1 non-idempotent hits", r"Z15, alpha=7: 3 non-idempotent hits"],
    ),
    "padic-consistency-negated": (
        "theoremC-finite", 10, (verify, "padic_scan", negated_consistency),
        3, [r"scan \(3,3,4\): expected all-idempotent hits",
            r"scan \(3,3,5\): expected a non-idempotent hit",
            r"scan \(2,3,3\): expected the exploratory tag"],
    ),
}


def test_planted_defects_reach_every_suite():
    assert {case[0] for case in PLANTED.values()} == set(verify.SUITES)


@pytest.mark.parametrize("defect", PLANTED)
def test_suite_fails_on_planted_defect(defect, monkeypatch):
    suite, trials, (module, name, planted), checks, lines = PLANTED[defect]
    monkeypatch.setattr(module, name, planted)
    result = verify.run_suite(suite, seed=0, trials=trials)
    assert result.name == suite
    assert result.passed is False
    assert result.checks == checks
    assert 0 < len(result.failures) <= 20
    for line in lines:
        assert any(re.fullmatch(line, failure) for failure in result.failures), line


@pytest.mark.parametrize("defect", PLANTED)
def test_verify_cli_prints_planted_failures(defect, monkeypatch):
    suite, trials, (module, name, planted), checks, lines = PLANTED[defect]
    monkeypatch.setattr(module, name, planted)
    argv = ["verify", "--suite", suite, "--seed", "0"]
    if trials is not None:
        argv += ["--trials", str(trials)]
    out = io.StringIO()
    assert run(argv, out=out) == 1
    header, *rest = out.getvalue().splitlines()
    assert header == f"{suite}: FAIL ({checks} checks)"
    assert rest and all(line.startswith("  ") for line in rest)
    for line in lines:
        assert any(re.fullmatch("  " + line, printed) for printed in rest), line

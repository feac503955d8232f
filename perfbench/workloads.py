"""Workload generator and correctness gate for the heyde_lab benchmark.

``generate(workload, seed, directory)`` writes the JSON input files of one
workload into ``directory`` and returns its operations; an operation is one
argv for ``heyde_lab.cli.run``, with file arguments named relative to
``directory``.  The generator never imports heyde_lab: the expected outcome
of every operation comes from how its input was constructed, and
``check_output`` compares the program's output against it.  The exact
symmetry oracle below recomputes the joint law of (x1 + x2, x1 + alpha x2)
with plain integers and fractions, independently of the program.

Workloads:
    scan    two grid scans (caps 3/6, 10k random trials): Z15 with alpha = 7,
            where I + alpha is invertible (filter- and random-phase-heavy),
            and Z9 with alpha = 8 = -I (hit-heavy).
    check   five `check` runs at order 243 on instances that are symmetric
            by construction: iid pairs with alpha = -I on Z243, Z3^5 and
            Z9 x Z27, an iid pair inside a proper Ker(I + alpha), and a
            uniform iid pair on a subgroup.
    verify  `verify --suite <name>` for every property suite, each on
            VERIFY_SEEDS seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

WORKLOADS = ("scan", "check", "verify")

VERIFY_SUITES = (
    "lemma1",
    "lemma5",
    "lemma8",
    "corollary1",
    "corollary3",
    "chain16",
    "chain10",
    "quadratic",
    "theoremB",
    "theoremC-finite",
)

#: Support size of the random iid pairs in the check workload; fixed so that
#: the cost of an operation does not depend on the seed.
CHECK_SUPPORT = 6

#: Seeds each verify suite runs on.  A suite's work depends on the instance
#: pool its seed draws (chain10 varies by almost 2x between seeds), and
#: three seeds average that down to a steady total.
VERIFY_SEEDS = 3


@dataclass(frozen=True)
class Operation:
    label: str
    argv: tuple[str, ...]
    #: ground truth from the construction, read by check_output
    expect: dict = field(default_factory=dict)
    #: report file the operation writes next to its inputs, if any
    out_file: str | None = None


# --- exact arithmetic on residue vectors, independent of heyde_lab ---------


def elements(orders):
    return list(product(*(range(n) for n in orders)))


def apply(matrix, orders, x):
    return tuple(
        sum(a * c for a, c in zip(row, x)) % n for row, n in zip(matrix, orders)
    )


def add(orders, x, y):
    return tuple((a + b) % n for a, b, n in zip(x, y, orders))


def negate(orders, x):
    return tuple(-a % n for a, n in zip(x, orders))


def kernel_of_i_plus(orders, matrix):
    """Sorted elements x with x + alpha x = 0."""
    zero = (0,) * len(orders)
    return [x for x in elements(orders) if add(orders, x, apply(matrix, orders, x)) == zero]


def is_symmetric(orders, matrix, mu1, mu2):
    """Whether the law of x1 + alpha x2 given x1 + x2 is symmetric, for
    independent x1 ~ mu1, x2 ~ mu2 (dicts coords -> Fraction)."""
    joint: dict = {}
    for x1, p in mu1.items():
        for x2, q in mu2.items():
            key = (add(orders, x1, x2), add(orders, x1, apply(matrix, orders, x2)))
            joint[key] = joint.get(key, 0) + p * q
    return all(joint.get((s, negate(orders, t)), 0) == p for (s, t), p in joint.items())


def parse_distribution(obj):
    return {
        tuple(int(c) for c in key.split(",")): Fraction(value)
        for key, value in obj["probs"].items()
    }


# --- generation -------------------------------------------------------------


def _write(directory: Path, name: str, obj) -> str:
    (directory / name).write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return name


def _distribution_json(weights: dict) -> dict:
    total = sum(weights.values())
    return {
        "probs": {
            ",".join(map(str, x)): f"{w}/{total}" for x, w in sorted(weights.items())
        }
    }


def _diagonal(values):
    k = len(values)
    return [[values[i] if i == j else 0 for j in range(k)] for i in range(k)]


def _scan(rng: random.Random, directory: Path) -> list[Operation]:
    ops = []
    for order, a in ((15, 7), (9, 8)):
        group = _write(directory, f"z{order}.json", {"cyclic_orders": [order]})
        alpha = _write(directory, f"alpha{a}_z{order}.json", {"matrix": [[a]]})
        argv = (
            "search", group, alpha,
            "--seed", str(rng.randrange(10**6)),
            "--support-cap", "3", "--denominator-cap", "6", "--trials", "10000",
        )
        ops.append(
            Operation(
                f"search Z{order} alpha={a}",
                argv,
                {"i_plus_alpha_auto": len(kernel_of_i_plus([order], [[a]])) == 1},
            )
        )
    return ops


def _check_instance(rng, orders, matrix, support_pool, uniform=False):
    """Canonical iid instance on points drawn from support_pool."""
    points = support_pool if uniform else rng.sample(support_pool, CHECK_SUPPORT)
    weights = {x: 1 if uniform else rng.randint(1, 9) for x in points}
    mu = _distribution_json(weights)
    return {
        "group": {"cyclic_orders": list(orders)},
        "alpha": {"matrix": matrix},
        "mu1": mu,
        "mu2": mu,
    }


def _check(rng: random.Random, directory: Path) -> list[Operation]:
    instances = []
    # iid pairs with the reflected form L2 = x1 - x2: swapping x1 and x2
    # flips the sign of L2 and keeps L1, so every iid pair is symmetric
    for orders in ((243,), (3, 3, 3, 3, 3), (9, 27)):
        neg = _diagonal([n - 1 for n in orders])
        instances.append(
            (f"iid alpha=-I on {orders}", orders, neg,
             _check_instance(rng, orders, neg, elements(orders)))
        )
    # iid pair inside Ker(I + alpha) = 3Z9 x 3Z27, where alpha acts as -I
    orders = (9, 27)
    alpha = _diagonal([rng.choice((2, 5)), rng.choice((8, 17))])
    kernel = kernel_of_i_plus(orders, alpha)
    instances.append(
        (f"iid in Ker(I+alpha) of order {len(kernel)}", orders, alpha,
         _check_instance(rng, orders, alpha, kernel))
    )
    # uniform iid pair on the subgroup spanned by two coordinates of Z3^5,
    # which is Ker(I + alpha) for alpha = -1 there and 1 elsewhere
    orders = (3, 3, 3, 3, 3)
    flipped = set(rng.sample(range(5), 2))
    alpha = _diagonal([2 if i in flipped else 1 for i in range(5)])
    kernel = kernel_of_i_plus(orders, alpha)
    instances.append(
        (f"uniform on Ker(I+alpha) of order {len(kernel)}", orders, alpha,
         _check_instance(rng, orders, alpha, kernel, uniform=True))
    )

    ops = []
    for i, (label, orders, alpha, instance) in enumerate(instances):
        name = _write(directory, f"instance{i}.json", instance)
        expect = {"kernel": [list(x) for x in kernel_of_i_plus(orders, alpha)]}
        ops.append(Operation(f"check {label}", ("check", name), expect))
    return ops


def _verify(rng: random.Random, directory: Path) -> list[Operation]:
    seeds = [str(seed) for seed in rng.sample(range(10**6), VERIFY_SEEDS)]
    return [
        Operation(
            f"verify {suite} seed {seed}",
            ("verify", "--suite", suite, "--seed", seed, "--out", f"{suite}-{seed}.json"),
            {"suite": suite},
            out_file=f"{suite}-{seed}.json",
        )
        for suite in VERIFY_SUITES
        for seed in seeds
    ]


def generate(workload: str, seed: int, directory: Path) -> list[Operation]:
    """Write the inputs of one workload into directory; the same seed gives
    the same files and operations."""
    makers = {"scan": _scan, "check": _check, "verify": _verify}
    # a string seed hashes the same way in every process
    return makers[workload](random.Random(f"{workload}:{seed}"), Path(directory))


# --- correctness gate -------------------------------------------------------


def check_output(op: Operation, code, text: str, out_text: str | None, deep: bool) -> str | None:
    """Why the operation's result is wrong, or None when it is right.

    ``deep`` also re-decides every reported scan hit with the exact oracle;
    repeated runs of one operation are compared byte for byte instead.
    """
    if code == 3:
        return "exit 3: exact predicate and its cross-check disagree"
    if code != 0:  # every operation here is expected to succeed
        return f"exit {code}, expected 0"
    command = op.argv[0]
    if command == "search":
        lines = text.splitlines()
        summary = json.loads(lines[-1])["summary"]
        if summary["red_alert"]:
            return "red alert: non-idempotent hit with I + alpha invertible"
        if summary["i_plus_alpha_automorphism"] != op.expect["i_plus_alpha_auto"]:
            return "wrong invertibility of I + alpha"
        if len(lines) < 2:
            return "no symmetric hit reported"
        if deep:
            for line in lines[:-1]:
                hit = json.loads(line)
                orders = hit["group"]["cyclic_orders"]
                mu1 = parse_distribution(hit["mu1"])
                mu2 = parse_distribution(hit["mu2"])
                if not is_symmetric(orders, hit["alpha"]["matrix"], mu1, mu2):
                    return f"reported hit is not symmetric: {line[:200]}"
        return None
    if command == "check":
        report = json.loads(text)
        if not (report["symmetric"] and report["eq42"] and report["m_forms_independent"]):
            return "symmetric-by-construction instance not reported symmetric"
        if not all(report["agreement"].values()):
            return "agreement flags not all true"
        if report["kernel"] != op.expect["kernel"]:
            return "wrong Ker(I + alpha)"
        return None
    suite = op.expect["suite"]
    if not text.startswith(f"{suite}: PASS ("):
        return f"suite did not pass: {text.strip()[:200]}"
    if not json.loads(out_text)["suites"][0]["passed"]:
        return "report file says the suite failed"
    return None

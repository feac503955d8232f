"""Command-line front end.

Subcommands:
    check   decide conditional symmetry for one instance file
    search  grid scan over distribution pairs for a (group, alpha) pair
    padic   finite-level scan of Z_{p^k} with alpha = multiplication by c
    verify  run the randomized property suites

Every emitted report embeds its run manifest (command, inputs, config,
version, timestamp); report content is a pure function of the manifest, so
identical manifests produce byte-identical reports.  Set
HEYDE_LAB_TIMESTAMP to pin the manifest timestamp for reproducible output.

Exit codes: 0 verdict-true/pass, 1 verdict-false/fail, 2 usage or schema
error (an alpha that is not an automorphism included), 3 internal
disagreement between an exact predicate and its tolerance-based
counterpart.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Iterator, Sequence, TextIO

from . import __version__
from .distributions import CHAR_TOL
from .predicates import (
    are_forms_independent,
    canonicalize,
    conditional_symmetry_witness,
    derived_forms_instance,
    heyde_equation_check,
    independence_equation_check,
)
from .search import (
    MAX_CANDIDATES,
    ScanResult,
    SearchConfig,
    SearchSpaceError,
    classify_distribution,
    grid_scan,
    padic_scan,
    verdict_tags,
)
from .serialization import (
    SchemaError,
    distribution_to_json,
    element_key,
    endomorphism_to_json,
    group_from_json,
    endomorphism_from_json,
    instance_from_json,
)
from .verify import SUITES, UNTRIALED_SUITES, run_suite

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_SCHEMA = 2
EXIT_DISAGREEMENT = 3

#: json.dumps(obj, sort_keys=True) with one encoder, not a new one per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def _timestamp() -> str:
    pinned = os.environ.get("HEYDE_LAB_TIMESTAMP")
    if pinned:
        return pinned
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def build_manifest(command: str, inputs: Sequence[str], config: dict) -> dict:
    return {
        "command": command,
        "inputs": list(inputs),
        "config": config,
        "version": __version__,
        "timestamp": _timestamp(),
    }


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _emit(report: dict, out: TextIO) -> None:
    json.dump(report, out, sort_keys=True, indent=2)
    out.write("\n")


def _search_config(args: argparse.Namespace) -> SearchConfig:
    return SearchConfig(
        support_size_cap=args.support_cap,
        denominator_cap=args.denominator_cap,
        random_trials=args.trials,
        seed=args.seed,
    )


def cmd_check(args: argparse.Namespace, out: TextIO) -> int:
    if not math.isfinite(args.tolerance) or args.tolerance < 0:
        raise ValueError(
            f"--tolerance must be finite and >= 0, got {args.tolerance}"
        )
    manifest = build_manifest(
        "check", [args.instance], {"tolerance": args.tolerance}
    )
    payload = _load_json(args.instance)
    # the cross-checks compare |X|^2 pairs, so refuse before any element table is built
    if isinstance(payload, dict) and "group" in payload:
        n = group_from_json(payload["group"]).order
        if n * n > MAX_CANDIDATES:
            raise SearchSpaceError(
                f"group order {n} exceeds check bound: {n}^2 pairs exceed {MAX_CANDIDATES}")
    instance = instance_from_json(payload)
    result = canonicalize(instance)
    canonical, kernel = result.instance, result.kernel

    witness = conditional_symmetry_witness(canonical)
    symmetric = witness is None
    eq42 = heyde_equation_check(canonical, tol=args.tolerance)
    derived = derived_forms_instance(canonical)
    independent = are_forms_independent(derived)
    eq4 = independence_equation_check(derived, tol=args.tolerance)

    class1 = classify_distribution(instance.mu1)
    class2 = classify_distribution(instance.mu2)
    tags = list(verdict_tags(class1, class2, kernel)) if symmetric else []

    agreement = {
        "symmetric_vs_eq42": symmetric == eq42,
        "independence_vs_eq4": independent == eq4,
        "symmetry_implies_independence": (not symmetric) or independent,
    }
    report = {
        "manifest": manifest,
        "symmetric": symmetric,
        "eq42": eq42,
        "witness": (
            None
            if witness is None
            else {"s": element_key(witness[0]), "t": element_key(witness[1])}
        ),
        "m_forms_independent": independent,
        "eq4": eq4,
        "classifications": {"mu1": class1, "mu2": class2},
        "kernel": [list(e.coords) for e in kernel],
        "canonicalized": not instance.is_canonical,
        "alpha_prime": endomorphism_to_json(canonical.beta2),
        "tags": tags,
        "agreement": agreement,
    }
    _emit(report, out)
    if not all(agreement.values()):
        return EXIT_DISAGREEMENT
    return EXIT_TRUE if symmetric else EXIT_FALSE


def cmd_search(args: argparse.Namespace, out: TextIO) -> int:
    config = _search_config(args)
    manifest = build_manifest(
        "search", [args.group, args.alpha], asdict(config)
    )
    group = group_from_json(_load_json(args.group))
    alpha = endomorphism_from_json(group, _load_json(args.alpha))
    result = grid_scan(group, alpha, config)
    for line in _hit_lines(manifest, result):
        out.write(line)
        out.write("\n")
    summary = {"manifest": manifest, "summary": result.summary}
    out.write(_encode(summary))
    out.write("\n")
    return EXIT_FALSE if result.red_alert else EXIT_TRUE


def _hit_lines(manifest: dict, result: ScanResult) -> Iterator[str]:
    """json.dumps({"manifest": manifest, **hit.to_json()}, sort_keys=True) per
    hit, spliced in key order from parts each encoded once: the scan's constant
    prefix, each shared law object, each distinct classification and each
    distinct (source, tags) tail."""
    constant = {key: result.summary[key] for key in ("alpha", "group", "kernel")}
    head = _encode({**constant, "manifest": manifest})[:-1]
    laws: dict[int, tuple[str, str]] = {}  # hits keep their laws alive, so ids stay unique
    classes: dict[tuple, str] = {}
    tails: dict[tuple, str] = {}
    for r in result.hits:
        for mu, cls in ((r.mu1, r.mu1_class), (r.mu2, r.mu2_class)):
            if id(mu) not in laws:
                key = (cls["kind"], str(cls["subgroup"]), str(cls["shift"]))
                if key not in classes:
                    classes[key] = _encode(cls)
                laws[id(mu)] = (_encode(distribution_to_json(mu)), classes[key])
        (d1, c1), (d2, c2) = laws[id(r.mu1)], laws[id(r.mu2)]
        if (key := (r.source, r.tags)) not in tails:
            tails[key] = json.dumps({"source": r.source, "symmetric": True, "tags": list(r.tags)})[1:]
        yield f'{head}, "mu1": {d1}, "mu1_class": {c1}, "mu2": {d2}, "mu2_class": {c2}, {tails[key]}'


def cmd_padic(args: argparse.Namespace, out: TextIO) -> int:
    config = _search_config(args)
    manifest = build_manifest(
        "padic",
        [],
        {"p": args.p, "k": args.k, "c": args.c, **asdict(config)},
    )
    report = padic_scan(args.p, args.k, args.c, config)
    payload = {"manifest": manifest, **report.to_json()}
    payload["hits"] = [r.to_json() for r in report.scan.hits]
    _emit(payload, out)
    return EXIT_TRUE if report.consistent in (True, None) else EXIT_FALSE


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    manifest = build_manifest(
        "verify", [], {"suite": args.suite, "seed": args.seed, "trials": args.trials}
    )
    results = []
    for name in names:
        trials = args.trials
        if args.suite == "all" and name in UNTRIALED_SUITES:
            trials = None
        result = run_suite(name, seed=args.seed, trials=trials)
        results.append(result)
        out.write(
            f"{name}: {'PASS' if result.passed else 'FAIL'} "
            f"({result.checks} checks)\n"
        )
        for failure in result.failures:
            out.write(f"  {failure}\n")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            _emit(
                {"manifest": manifest, "suites": [asdict(r) for r in results]},
                fh,
            )
    return EXIT_TRUE if all(r.passed for r in results) else EXIT_FALSE


def _add_search_flags(parser: argparse.ArgumentParser, default_trials: int) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--support-cap", type=int, default=3)
    parser.add_argument("--denominator-cap", type=int, default=6)
    parser.add_argument("--trials", type=int, default=default_trials)
    parser.add_argument("--out", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heyde-lab",
        description=(
            "Exact-arithmetic checks of conditional-symmetry "
            "characterizations on finite abelian groups"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide one instance file")
    check.add_argument("instance", help="instance JSON file")
    check.add_argument("--tolerance", type=float, default=CHAR_TOL)
    check.add_argument("--out", type=str, default=None)
    check.set_defaults(handler=cmd_check)

    search = sub.add_parser("search", help="grid scan over distribution pairs")
    search.add_argument("group", help="group JSON file")
    search.add_argument("alpha", help="endomorphism JSON file")
    _add_search_flags(search, default_trials=10_000)
    search.set_defaults(handler=cmd_search)

    padic = sub.add_parser("padic", help="finite-level p-power scan")
    padic.add_argument("--p", type=int, required=True)
    padic.add_argument("--k", type=int, required=True)
    padic.add_argument("--c", type=int, required=True)
    _add_search_flags(padic, default_trials=2000)
    padic.set_defaults(handler=cmd_padic, support_cap=2, denominator_cap=4)

    verify = sub.add_parser("verify", help="run property suites")
    verify.add_argument(
        "--suite", choices=[*SUITES, "all"], default="all"
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--trials",
        type=int,
        default=None,
        help=(
            "trial count of the randomized suites; chain16 and chain10 check "
            "a fixed pool drawn from the seed and refuse it, and --suite all "
            "runs them without it"
        ),
    )
    # a side report, not the stdout report --out replaces for the other commands
    verify.add_argument("--out", dest="report", metavar="OUT", type=str, default=None)
    verify.set_defaults(handler=cmd_verify)
    return parser


def run(argv: Sequence[str] | None = None, out: TextIO | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the schema exit code
        return int(exc.code or 0)
    out_path = getattr(args, "out", None)
    try:
        if out is not None:
            return args.handler(args, out)
        if out_path:
            # the report replaces --out only once whole, so a refusal leaves it as it was
            with open(partial := out_path + ".partial", "w", encoding="utf-8") as fh:
                try:
                    code = args.handler(args, fh)
                except BaseException:
                    os.remove(partial)
                    raise
            os.replace(partial, out_path)
            return code
        return args.handler(args, sys.stdout)
    except (SchemaError, SearchSpaceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

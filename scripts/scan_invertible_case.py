"""Scan cyclic groups where I + alpha is an automorphism and tabulate the
classification of every symmetric hit.

Expected outcome: every hit is an idempotent shift (degenerate hits are the
special case with trivial subgroup).  A non-idempotent hit would be a
red-alert finding and exits nonzero.

    python scripts/scan_invertible_case.py --trials 10000
"""

import argparse
import sys

from heyde_lab.groups import make_group, scaling_endomorphism
from heyde_lab.search import SearchConfig, grid_scan
from heyde_lab.verify import THEOREM_B_CASES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--support-cap", type=int, default=3)
    parser.add_argument("--denominator-cap", type=int, default=6)
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = SearchConfig(
        support_size_cap=args.support_cap,
        denominator_cap=args.denominator_cap,
        random_trials=args.trials,
        seed=args.seed,
    )
    any_red = False
    for orders, a in THEOREM_B_CASES:
        group = make_group(orders)
        result = grid_scan(group, scaling_endomorphism(group, a), config)
        counts = result.summary["counts"]
        print(
            f"{group} alpha={a}: candidates={result.summary['grid_candidates']} "
            f"symmetric={counts['symmetric']} degenerate={counts['degenerate']} "
            f"idempotent={counts['idempotent']} other={counts['other']}"
        )
        if result.red_alert:
            any_red = True
            for r in result.hits:
                if not r.pair_idempotent:
                    print(f"  RED ALERT: {r.to_json()}")
    if any_red:
        print("non-idempotent symmetric pair found under an invertible I + alpha")
        return 1
    print("all symmetric hits are idempotent shifts")
    return 0


if __name__ == "__main__":
    sys.exit(main())

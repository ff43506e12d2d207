#!/usr/bin/env python3
"""Reproduce the classification counts of finite Krasner hyperfields.

Enumerates every order up to --max-order (default: the largest the
enumeration supports, 6) and prints one row per order: the number of
isomorphism classes and the wall-clock time.
Expected table: 2 -> 2, 3 -> 5, 4 -> 7, 5 -> 27, 6 -> 16.
"""

import argparse
import time

from hyperfields import BudgetExceededError, DomainError, SearchOptions, enumerate_hyperfields
from hyperfields.enumeration import MAX_ENUM_ORDER


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=MAX_ENUM_ORDER,
                    choices=range(2, MAX_ENUM_ORDER + 1))
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--budget", type=float, default=3600.0,
                    help="wall-clock budget in seconds per order")
    args = ap.parse_args()

    print("order  classes  seconds")
    for n in range(2, args.max_order + 1):
        options = SearchOptions(jobs=args.jobs, budget_seconds=args.budget)
        t0 = time.perf_counter()
        try:
            classes = enumerate_hyperfields(n, options)
        except BudgetExceededError as exc:
            print(f"{n:>5}  budget exceeded after {exc.scanned} candidates")
            break
        except DomainError as exc:
            ap.error(str(exc))
        print(f"{n:>5}  {len(classes):>7}  {time.perf_counter() - t0:>7.2f}")


if __name__ == "__main__":
    main()

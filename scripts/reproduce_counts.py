#!/usr/bin/env python3
"""Reproduce the classification counts of finite Krasner hyperfields.

Enumerates every order up to --max-order (default: the largest the
enumeration supports, 6) in this process and prints one row per order:
the number of isomorphism classes and the wall-clock time.
Expected table: 2 -> 2, 3 -> 5, 4 -> 7, 5 -> 27, 6 -> 16.

    PYTHONPATH=src python3 scripts/reproduce_counts.py [--max-order 6]
"""

import argparse
import time

from hyperfields import enumerate_hyperfields
from hyperfields.enumeration import MAX_ENUM_ORDER


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--max-order", type=int, default=MAX_ENUM_ORDER,
                    choices=range(2, MAX_ENUM_ORDER + 1))
    args = ap.parse_args()

    print("order  classes  seconds")
    for n in range(2, args.max_order + 1):
        t0 = time.perf_counter()
        classes = enumerate_hyperfields(n)
        print(f"{n:>5}  {len(classes):>7}  {time.perf_counter() - t0:>7.2f}")


if __name__ == "__main__":
    main()

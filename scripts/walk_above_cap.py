#!/usr/bin/env python3
"""Time the enumeration walk at orders above the enumeration cap.

For each order (default 7, 8 and 9; at most 10) it raises
enumeration.MAX_ENUM_ORDER, the one enumeration cap, to that order in this
process, and runs enumerate_hyperfields once in one process, with
enumeration._run_shard wrapped to count and time the shards it walks.  It
prints one row per order: the maps the walk decides, its survivors, the
walk seconds (spent in _run_shard), the classes and the seconds of the
whole enumeration, so total_s - walk_s is shard set-up plus survivor
verification.  Every survivor is the least map of its orbit, so survivors
and classes agree.  Orders 7-9 take about 1.1 s in all and 28 MB, and
order 10 8.6-9.7 s (walk 6.4-7.3 s) and about 90 MB, on a 2-core Xeon VM
under CPython 3.11; total_s - walk_s reads 0.24 s at order 9 and 2.2-2.4 s
at order 10.

    PYTHONPATH=src python3 scripts/walk_above_cap.py [--orders 7 8 9]
"""

import argparse
import time

from hyperfields import enumerate_hyperfields, enumeration


def enumerate_timed(n):
    """(maps decided, survivors, walk seconds, classes, total seconds) of
    one order-n enumeration, the first three summed over its shards."""
    run = enumeration._run_shard
    walked = [0, 0, 0.0]

    def timed(args):
        t0 = time.perf_counter()
        scanned, found, _ = result = run(args)
        walked[2] += time.perf_counter() - t0
        walked[0] += scanned
        walked[1] += len(found)
        return result

    enumeration._run_shard = timed
    try:
        t0 = time.perf_counter()
        classes = len(enumerate_hyperfields(n))
        total_s = time.perf_counter() - t0
    finally:
        enumeration._run_shard = run
    return (*walked, classes, total_s)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--orders", type=int, nargs="+", default=[7, 8, 9], choices=range(2, 11))
    args = ap.parse_args()
    print("order             maps  survivors   walk_s  classes  total_s")
    cap = enumeration.MAX_ENUM_ORDER
    for n in args.orders:
        enumeration.MAX_ENUM_ORDER = max(cap, n)
        try:
            maps, survivors, walk_s, classes, total_s = enumerate_timed(n)
        finally:
            enumeration.MAX_ENUM_ORDER = cap
        print(f"{n:>5}  {maps:>15,}  {survivors:>9,}  {walk_s:>7.2f}  {classes:>7,}  {total_s:>7.2f}")


if __name__ == "__main__":
    main()

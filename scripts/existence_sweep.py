#!/usr/bin/env python3
"""Build and verify a Krasner hyperfield of every order from 2 up to the
synthesis bound.

The executable form of the existence theorem over the synthesis range: for
each n = 2..MAX_SYNTH_ORDER it calls hyperfield_of_order(n), which returns
only a verified hyperfield, and prints one row with n, the construction used
and the seconds taken.  Prime-power orders use the triple-sum (Massouros)
hyperfield of GF(n), every other order the pair hyperfield.  The script takes
no arguments; exit status 2 means it was given some.
"""

import argparse
import time

from hyperfields import hyperfield_of_order
from hyperfields.construct import MAX_SYNTH_ORDER, construction_of_order


def sweep():
    """Yield (n, method, hyperfield, seconds) for n = 2..MAX_SYNTH_ORDER."""
    for n in range(2, MAX_SYNTH_ORDER + 1):
        t0 = time.perf_counter()
        h = hyperfield_of_order(n)
        yield n, construction_of_order(n), h, time.perf_counter() - t0


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    print("order  method     seconds")
    for n, method, _, seconds in sweep():
        print(f"{n:>5}  {method:<9}  {seconds:>7.3f}")


if __name__ == "__main__":
    main()

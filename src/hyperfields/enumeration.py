"""Exhaustive enumeration of Krasner hyperfields of order n up to isomorphism.

The multiplicative part of a hyperfield of order n is an abelian group on
the n-1 nonzero elements, so the search scaffolds over the isomorphism
classes of those groups.  Distributivity then forces the whole
hyperaddition from the single row v(z) = 1(+)z by the scaling identity
x (+) y = x . v(x^-1 y) (see core), so instead of all n*n tables it is
enough to search the maps v, with three prunes applied while rows are
chosen:

  (a) exactly one nonzero z may have 0 in v(z) (that z is the opposite of
      1, and it must satisfy z*z = 1, since opposites are x' = x.1' and
      taking opposites twice is the identity);
  (b) commutativity pins partners: v(z) = z . v(z^-1), so only one row per
      inverse pair {z, z^-1} is free, and rows of self-inverse z must be
      unions of orbits of multiplication by z;
  (c) on each expanded table, reversibility (CH5) and associativity (CH1)
      are checked at x = 1 only, with early exit -- the expansion builds in
      the scaling identity, so a violation at x != 0 scales by x^-1 to one
      at x = 1 (the reduction verify() uses), and every other axiom already
      holds by construction of the expansion.

Survivors are verified in full and deduplicated by iso.fingerprint, a
complete canonical form; classes sort by it, so the result is byte-identical
across runs and worker counts.  The budget is checked during the scan and
again before verification and before deduplication.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Optional

from .core import (  # bench/spans.py wraps _expand, ch5_violation and ch1_violation here
    Hyperfield,
    HyperfieldCandidate,
    _ch1_scan as ch1_violation,
    _ch5_scan as ch5_violation,
    _expand,
    inverses,
    verified,
)
from .errors import BudgetExceededError, CapacityError, DomainError
from .galois import abelian_group_tables
from .iso import are_isomorphic, fingerprint  # bench/spans.py wraps are_isomorphic here

MAX_ENUM_ORDER = 6
MAX_GROUP_ORDER = 8
_BUDGET_STRIDE = 256


@dataclass(frozen=True)
class SearchOptions:
    jobs: int = 1
    progress_interval: int = 0
    budget_seconds: Optional[float] = None


def abelian_groups(m: int) -> list[tuple[tuple[int, ...], ...]]:
    """galois.abelian_group_tables(m), as a new list, for the group orders
    enumeration supports."""
    if not 1 <= m <= MAX_GROUP_ORDER:
        raise CapacityError(f"group order must be in 1..{MAX_GROUP_ORDER}")
    return list(abelian_group_tables(m))


def _scalar_tables(n, mul):
    # smul[x][mask] = image of the subset `mask` under multiplication by x,
    # for all 2^n masks: built once per shard, it serves every row choice.
    smul = [None] * n
    for x in range(1, n):
        row = mul[x]
        arr = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            arr[m] = arr[m ^ low] | (1 << row[low.bit_length() - 1])
        smul[x] = arr
    return smul


def _orbit_unions(n, mul, z, with_zero):
    # Unions of orbits of w -> z.w on the nonzero carrier; z must be
    # self-inverse so orbits have size one or two.
    seen = 0
    orbit_masks = []
    for w in range(1, n):
        if not seen >> w & 1:
            o = (1 << w) | (1 << mul[z][w])
            seen |= o
            orbit_masks.append(o)
    unions = []
    for sel in range(1 << len(orbit_masks)):
        u = 0
        for i, om in enumerate(orbit_masks):
            if sel >> i & 1:
                u |= om
        unions.append(u)
    if with_zero:
        return tuple(sorted(1 | u for u in unions))
    return tuple(sorted(u for u in unions if u))


def _slots(n, mul, inv, zstar):
    """Free row choices, ascending z; rows of z > z^-1 are derived later."""
    slots = []
    for z in range(1, n):
        if inv[z] == z:
            slots.append((z, _orbit_unions(n, mul, z, with_zero=z == zstar)))
        elif z < inv[z]:
            slots.append((z, tuple(s << 1 for s in range(1, 1 << (n - 1)))))
    return slots


def _run_shard(args):
    """Search one shard: a fixed group, opposite-of-1 choice, and first row.

    Returns (scanned, survivors, timed_out); survivors are (hyperadd, mul)
    table pairs that passed CH5 and CH1 at x = 1.
    """
    n, mul, zstar, first_idx, deadline = args
    if deadline is not None and time.monotonic() > deadline:
        return 0, [], True
    inv = inverses(n, mul)
    smul = _scalar_tables(n, mul)
    slots = _slots(n, mul, inv, zstar)
    first_z, first_choices = slots[0]
    rest = slots[1:]
    derived = [z for z in range(1, n) if inv[z] < z]

    masks = [0] * n
    masks[0] = 1 << 1
    masks[first_z] = first_choices[first_idx]

    survivors = []
    scanned = 0
    for combo in iproduct(*(choices for _, choices in rest)):
        scanned += 1
        if deadline is not None and scanned % _BUDGET_STRIDE == 0:
            if time.monotonic() > deadline:
                return scanned, survivors, True
        for (z, _), m in zip(rest, combo):
            masks[z] = m
        for z in derived:
            masks[z] = smul[z][masks[inv[z]]]
        hyperadd = _expand(n, mul, inv, smul, masks)
        if ch5_violation(n, hyperadd, (1,)) is not None:
            continue
        if ch1_violation(n, hyperadd, (1,)) is not None:
            continue
        survivors.append((tuple(map(tuple, hyperadd)), mul))
    return scanned, survivors, False


def _shards(n, groups, deadline):
    shards = []
    for mul in groups:
        inv = inverses(n, mul)
        involutions = [z for z in range(1, n) if mul[z][z] == 1]
        for zstar in involutions:
            first_choices = _slots(n, mul, inv, zstar)[0][1]
            for ci in range(len(first_choices)):
                shards.append((n, mul, zstar, ci, deadline))
    return shards


def _dedup(wrapped: list[Hyperfield]) -> list[Hyperfield]:
    classes: dict[tuple, Hyperfield] = {}
    for h in wrapped:
        classes.setdefault(fingerprint(h), h)
    return [classes[key] for key in sorted(classes)]


def enumerate_hyperfields(n: int, options: Optional[SearchOptions] = None) -> list[Hyperfield]:
    """All Krasner hyperfields of order n, one per isomorphism class.

    Deterministic: shard order and merge order are fixed, each class keeps
    its first survivor, and classes sort by fingerprint, so the output does
    not depend on the worker count.
    """
    if not 2 <= n <= MAX_ENUM_ORDER:
        raise CapacityError(f"enumeration supports orders 2..{MAX_ENUM_ORDER}")
    options = options or SearchOptions()
    if options.jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {options.jobs}")
    if options.progress_interval < 0:
        raise DomainError(
            f"progress interval must be at least 0, got {options.progress_interval}")
    budget = options.budget_seconds
    if budget is not None and not 0 < budget < math.inf:
        raise DomainError(f"budget must be a positive finite number of seconds, got {budget}")
    deadline = time.monotonic() + budget if budget is not None else None
    shards = _shards(n, abelian_groups(n - 1), deadline)

    scanned = 0
    survivors = []
    timed_out = False
    last_report = 0
    # The pool forks every worker at the first submit, so it never gets
    # more workers than there are shards.
    workers = min(options.jobs, len(shards))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_shard, shards))
    else:
        results = map(_run_shard, shards)
    for got, found, late in results:
        scanned += got
        survivors.extend(found)
        timed_out = timed_out or late
        if options.progress_interval and scanned - last_report >= options.progress_interval:
            print(f"order={n} scanned={scanned} survivors={len(survivors)}",
                  file=sys.stderr)
            last_report = scanned
        if timed_out:
            break

    def check_budget():
        if timed_out or deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError(
                f"order-{n} enumeration exceeded its budget",
                scanned=scanned, survivors=len(survivors))

    check_budget()
    wrapped = [verified(HyperfieldCandidate(n, hyperadd, mul))
               for hyperadd, mul in survivors]
    check_budget()
    return _dedup(wrapped)

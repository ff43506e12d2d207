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
  (c) the free rows are assigned depth-first, and reversibility (CH5) at
      x = 1 is tested between pairs of rows as soon as both are set.  On
      the expanded table the opposite of x is x.z* for the opposite z* of
      1, so for y, z != 0 with z in v(y) CH5 at x = 1 asks y in z*(+)z,
      the bit test z*.y in v(z*.z), and 1 in z(+)y', the bit test z^-1 in
      v(z^-1.y.z*); y = 0 and z = 0 always pass.  Under (b) the second
      test is the first one made for the pair (y^-1, y^-1.z) and read
      through v(b) = b.v(b^-1) at b = z*.y^-1.z, and that pair's rows are
      set at the same depths as those of y and b^-1, so only the first
      test is made.  A failure prunes every map below the current row.
      So every leaf passes CH5: at x = 1 by these tests, at x = 0 as
      0 (+) y = {y}, and at x != 0 by the scaling built into the expansion.
      Leaves are tested for CH1 by core's symmetry theorem, whose premises
      the expansion and (b) supply; all other axioms hold by construction.

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
from functools import lru_cache
from typing import Optional

from .core import (  # bench/spans.py wraps _expand, ch5_violation and ch1_violation here
    Hyperfield,
    HyperfieldCandidate,
    _ch1_symmetry as ch1_violation,
    _ch5_scan as ch5_violation,  # unused here: bound for bench/spans.py alone
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


@lru_cache(maxsize=1)
def _scalar_tables(n, mul):
    # smul[x][mask] = image of the subset `mask` under multiplication by x,
    # for all 2^n masks.  It serves every row choice of every shard of the
    # group; shards come group by group, so one entry builds it once per
    # group in each process.  Read only: every caller shares the result.
    smul = [None] * n
    for x in range(1, n):
        row = mul[x]
        arr = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            arr[m] = arr[m ^ low] | (1 << row[low.bit_length() - 1])
        smul[x] = tuple(arr)
    return tuple(smul)


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
    """Free row choices, ascending z; rows of z > z^-1 follow from their
    partner's."""
    slots = []
    for z in range(1, n):
        if inv[z] == z:
            slots.append((z, _orbit_unions(n, mul, z, with_zero=z == zstar)))
        elif z < inv[z]:
            slots.append((z, tuple(s << 1 for s in range(1, 1 << (n - 1)))))
    return slots


def _pair_checks(n, mul, inv, zstar, slots):
    """CH5 at x = 1 as tests between two rows, listed under the slot depth
    at which both rows are set: (y, z, w, t) fails when z is in v(y) and t
    is not in v(w)."""
    depth = [-1] * n  # row 0 is fixed
    for d, (z, _) in enumerate(slots):
        depth[z] = depth[inv[z]] = d
    checks = [[] for _ in slots]
    for y in range(1, n):
        for z in range(1, n):
            w = mul[zstar][z]  # y in z*(+)z = z*.v(z*.z)
            checks[max(depth[y], depth[w])].append((y, 1 << z, w, 1 << mul[zstar][y]))
    return checks


def _run_shard(args):
    """Search one shard: a fixed group, opposite-of-1 choice, and first row.

    Rows are assigned depth-first in slot order, each slot's choices in
    turn, so leaves come in the order of the product of the slots.  Returns
    (scanned, survivors, timed_out): scanned counts the maps decided, a
    pruned subtree counting every map below it; survivors are (hyperadd,
    mul) table pairs that passed the CH1 symmetry test.
    """
    n, mul, zstar, first_idx, deadline = args
    if deadline is not None and time.monotonic() > deadline:
        return 0, [], True
    inv = inverses(n, mul)
    smul = _scalar_tables(n, mul)
    slots = _slots(n, mul, inv, zstar)
    slots[0] = (slots[0][0], slots[0][1][first_idx:first_idx + 1])
    checks = _pair_checks(n, mul, inv, zstar, slots)
    below = [math.prod(len(choices) for _, choices in slots[d + 1:])
             for d in range(len(slots))]
    last = len(slots) - 1

    masks = [0] * n
    masks[0] = 1 << 1
    survivors = []
    scanned = nodes = 0

    def walk(d):
        # True when the deadline passed inside this subtree.
        nonlocal scanned, nodes
        z, choices = slots[d]
        zi = inv[z]
        scale = smul[zi]
        for m in choices:
            nodes += 1
            if deadline is not None and nodes % _BUDGET_STRIDE == 0:
                if time.monotonic() > deadline:
                    return True
            masks[z] = m
            masks[zi] = scale[m]  # v(z^-1) = z^-1 . v(z); unchanged when z = z^-1
            if any(masks[y] & zb and not masks[w] & tb for y, zb, w, tb in checks[d]):
                scanned += below[d]
            elif d < last:
                if walk(d + 1):
                    return True
            else:
                scanned += 1
                hyperadd = _expand(n, mul, inv, smul, masks)
                if ch1_violation(hyperadd) is None:
                    survivors.append((tuple(map(tuple, hyperadd)), mul))
        return False

    timed_out = walk(0)
    return scanned, survivors, timed_out


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
    for done, (got, found, late) in enumerate(results, 1):
        scanned += got
        survivors.extend(found)
        timed_out = timed_out or late
        if options.progress_interval and scanned - last_report >= options.progress_interval:
            print(f"order={n} shards={done}/{len(shards)} scanned={scanned} "
                  f"survivors={len(survivors)}", file=sys.stderr)
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

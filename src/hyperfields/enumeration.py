"""Exhaustive enumeration of Krasner hyperfields of order n up to isomorphism.

The multiplicative part of a hyperfield of order n is an abelian group on
the n-1 nonzero elements, so the search scaffolds over the isomorphism
classes of those groups.  Distributivity then forces the whole
hyperaddition from the single row v(z) = 1(+)z by the scaling identity
x (+) y = x . v(x^-1 y) (see core), so instead of all n*n tables it is
enough to search the maps v, with four prunes applied while rows are
chosen:

  (a) exactly one nonzero z may have 0 in v(z) (that z is the opposite of
      1, and it must satisfy z*z = 1, since opposites are x' = x.1' and
      taking opposites twice is the identity);
  (b) commutativity pins partners: v(z) = z . v(z^-1), so only one row per
      inverse pair {z, z^-1} is free, and rows of a self-inverse z are
      fixed by z;
  (c) the free rows are assigned depth-first under reversibility (CH5) at
      x = 1.  The opposite of x is x.z* for the opposite z* of 1, so for
      y, z != 0 with z in v(y) CH5 at x = 1 asks y in z*(+)z, the bit test
      z*.y in v(z*.z), and 1 in z(+)y', the bit test z^-1 in v(z^-1.y.z*),
      which under (b) is the first test for the pair (y^-1, y^-1.z) read
      through v(b) = b.v(b^-1) at b = z*.y^-1.z; y = 0 and z = 0 always
      pass.  The tests are checked forward: those between rows of one depth
      filter its choices once, and each other one, once its earlier row is
      set, is a bit that the later row must or must not hold.  So the walk
      visits only choices that pass, and every leaf passes CH5 (at x = 0 as
      0 (+) y = {y}, at x != 0 by the scaling of the expansion).  Leaves are
      tested for CH1 by core's symmetry theorem, whose premises the
      expansion and (b) supply, on the map itself: M[a][u] = v(a) (+) u =
      u.(1 (+) u^-1.v(a)) is read from the masks, and only the leaves that
      pass are expanded.  All other axioms hold by construction;
  (d) each class is searched once.  Hyperfields over one group G are
      isomorphic exactly when an automorphism sigma of G carries one row
      onto the other, sigma.v.sigma^-1 = v', and sigma.v has the opposite
      sigma(z*).  Maps are ordered as the walk meets them: by z*, then by
      the masks of the free rows in slot order.  Only the least map of each
      orbit is kept: z* is least in its orbit under Aut(G), the first row
      m (of z = 1, which every sigma fixes) has sigma(m) >= m for every
      sigma fixing z*, and a leaf is no larger than its image under any
      such sigma, which is tested before the leaf's CH1 test, as every map
      of an orbit passes CH1 or none does.

So each survivor is its own class and the least map of its orbit, which
is the key of iso.fingerprint: survivors need no isomorphism search, only
verification.  The parent marks each as the expansion of its own row 1,
which it is, so verify() builds no E; it derives a group's multiplication
facts once for all its survivors and passes each on its suspect rows alone
with no axiom scan.  They come in key order within the fingerprint's order
of the groups, so the result is byte-identical across runs and worker counts.
The budget is checked during the scan and again before and after
verification.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from .core import (  # bench/spans.py wraps _expand and ch5_violation here, and ch1_violation
    Hyperfield,
    _Bits,
    _ch5_scan as ch5_violation,  # unused here: bound for bench/spans.py alone
    _expand,
    _expansion_candidate,
    group_isomorphisms,
    inverses,
    slot_keys,
    verified,
)
from .errors import BudgetExceededError, CapacityError, DomainError
from .galois import abelian_group_orders, abelian_group_tables
from .iso import are_isomorphic, fingerprint  # unused here: bound for bench/spans.py alone

MAX_ENUM_ORDER = 6
_BUDGET_STRIDE = 256


@dataclass(frozen=True)
class SearchOptions:
    jobs: int = 1
    progress_interval: int = 0
    budget_seconds: Optional[float] = None


def abelian_groups(m: int) -> list[tuple[tuple[int, ...], ...]]:
    """galois.abelian_group_tables(m), as a new list, for any m >= 1: one
    (m+1) x (m+1) table per group, built once per m."""
    if type(m) is not int or m < 1:
        raise CapacityError(f"group order must be at least 1, got {m}")
    return list(abelian_group_tables(m))


def _carry(n, images):
    """table[m] = the union of images[w] over the members w of m, for all
    2^n masks, each built from the mask without its lowest bit."""
    table = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        table[m] = table[m ^ low] | images[low.bit_length() - 1]
    return tuple(table)


@lru_cache(maxsize=1)
def _scalar_tables(n, mul):
    # smul[x][mask] = x . mask for all 2^n masks, shared read-only by the set-ups
    # and shards of one group, which _shards() builds before the next group's.
    return (None, *(_carry(n, [1 << w for w in row]) for row in mul[1:]))


def _slots(n, mul, inv, zstar):
    """Free row choices, ascending z; rows of z > z^-1 follow from their
    partner's.  The row of a self-inverse z is a mask fixed by z, odd (0 a
    member) exactly where z = z*; that of z < z^-1 any nonzero even mask."""
    smul = _scalar_tables(n, mul)
    slots = []
    for z in slot_keys(inv):
        masks = range(1 if z == zstar else 2, 1 << n, 2)
        slots.append((z, tuple(m for m in masks if inv[z] != z or smul[z][m] == m)))
    return slots


def _pair_checks(n, mul, inv, zstar, slots):
    """CH5 at x = 1, planned forward.  A test fails where bit a of the
    choice m_e of one row's depth is set and bit b of the other's, m_d, is
    not.  Returns the choices that pass the tests within their depth, and
    bounds[d] = [(key r of an earlier depth, 1 << a, on, off)]: m_d is bound
    by on where a is in v(r), else by off, a bound being the bits m_d must
    hold | those it must not hold << n."""
    at = [None] * n  # at[r][c] = (d, b): c is in v(r) exactly when b is in m_d
    for d, (z, _) in enumerate(slots):
        at[inv[z]] = [(d, mul[z][c]) for c in range(n)]  # v(z^-1) = z^-1 . v(z)
        at[z] = [(d, c) for c in range(n)]
    within = [[0] * n for _ in slots]  # within[d][a] = the bits m_d holds where it holds a
    rules = [{} for _ in slots]  # rules[d][r, 1 << a] = [on, off] of bounds[d]
    for y in range(1, n):
        for z in range(1, n):  # y in z*(+)z = z*.v(z*.z)
            (e, a), (d, b) = at[y][z], at[mul[zstar][z]][mul[zstar][y]]
            if e == d:
                within[d][a] |= 1 << b
            elif e < d:
                rules[d].setdefault((slots[e][0], 1 << a), [0, 0])[0] |= 1 << b
            else:
                rules[e].setdefault((slots[d][0], 1 << b), [0, 0])[1] |= 1 << a << n
    choices = [[m for m in ms if not implied[m] & ~m]
               for (_, ms), implied in zip(slots, (_carry(n, w) for w in within))]
    bounds = [[(r, a, *on_off) for (r, a), on_off in sorted(rule.items())] for rule in rules]
    return choices, bounds


class _Pair(NamedTuple):
    """The set-up that the shards of one (group, z*) share: the plan of
    _pair_checks, below[d] = the maps under one choice at depth d, and for
    each automorphism sigma != 1 fixing z*, a rival (src, carry) with
    (sigma.v)(z) = carry[v(src[k])] at the z of slot k (none: no orbit prune),
    and for ch1_violation the (a, u, a.-, a^-1.-, u.-, u^-1.-) for
    1 <= a < u < n, the maps as rows of smul, and the members of each mask."""

    n: int
    mul: tuple
    inv: list
    smul: tuple
    slots: list
    choices: list
    bounds: list
    below: list
    rivals: tuple
    sides: list
    members: _Bits


def _pair(n, mul, zstar, stabiliser):
    """The set-up of (mul, z*).  stabiliser lists the automorphisms other
    than 1 that fix z*; an empty one turns the orbit prune off."""
    inv = inverses(n, mul)
    slots = _slots(n, mul, inv, zstar)
    below = [math.prod(len(c) for _, c in slots[d + 1:]) for d in range(len(slots))]
    rivals = tuple((tuple(sigma.index(z) for z, _ in slots), _carry(n, [1 << w for w in sigma]))
                   for sigma in stabiliser)
    smul = _scalar_tables(n, mul)
    sides = [(a, u, smul[a], smul[inv[a]], smul[u], smul[inv[u]])
             for a in range(1, n) for u in range(a + 1, n)]
    return _Pair(n, mul, inv, smul, slots, *_pair_checks(n, mul, inv, zstar, slots),
                 below, rivals, sides, _Bits())


def _admitted(pair, d, masks):
    """The choices at depth d, ascending, within the bounds that the rows
    set above d in masks put on them."""
    bound = 0
    for r, a, on, off in pair.bounds[d]:
        bound |= on if masks[r] & a else off
    need, ban = bound & ((1 << pair.n) - 1), bound >> pair.n
    return [m for m in pair.choices[d] if m & need == need and not m & ban]


def _least(masks, keys, rivals):
    """Is the map, read at the slots keys, no larger than its image under
    any rival?"""
    row = [masks[z] for z in keys]
    return all(row <= [carry[masks[s]] for s in src] for src, carry in rivals)


class _OnePlus(dict):
    """m -> 1 (+) m, the OR of v(w) over the members w of m, v(0) = {1},
    for one map v, each mask on its first lookup."""

    def __init__(self, v, members):
        self.v, self.members = v, members

    def __missing__(self, m):
        v, s = self.v, 0
        for w in self.members[m]:
            s |= v[w]
        self[m] = s
        return s


def ch1_violation(pair, v):
    """CH1 of the expansion of the map v, decided on v alone: None when
    M[a][u] = v(a) (+) u is symmetric, else its first (a, u), a < u, which is
    core._ch1_symmetry's on the expansion.  Expansions are commutative
    under prune (b), so v(a) (+) u = u . (1 (+) u^-1 . v(a)) for u != 0, and
    row and column 0 of M are both v."""
    one = _OnePlus(v, pair.members)
    for a, u, sa, sai, su, sui in pair.sides:
        if su[one[sui[v[a]]]] != sa[one[sai[v[u]]]]:
            return a, u
    return None


def _run_shard(args):
    """Search one shard: a (group, z*) set-up and the mask of the first row.

    Rows are assigned depth-first in slot order, each slot's choices in
    turn, so leaves come in the order of the product of the slots; the walk
    visits only the choices _admitted at each depth.  Returns (scanned,
    survivors, timed_out): scanned counts the maps decided, a choice cut
    counting every map below it; survivors are (hyperadd, mul) table pairs
    that are least in their orbit and pass the CH1 symmetry test.  One loop
    over an iterator per depth leaves no reference cycle behind.
    """
    pair, first, deadline = args
    if deadline is not None and time.monotonic() > deadline:
        return 0, [], True
    n, mul, inv, smul, slots, choices, _, below, rivals, *_ = pair
    keys = [z for z, _ in slots]
    steps = [(z, inv[z], smul[inv[z]]) for z in keys]
    last = len(slots) - 1
    top = [first] if first in choices[0] else []
    pending = [iter(top)] + [None] * last  # the admitted choices left at each depth

    masks = [1 << 1] + [0] * (n - 1)  # v(0) = {1}
    scanned, nodes, d, survivors = (1 - len(top)) * below[0], 0, 0, []
    while d >= 0:
        z, zi, scale = steps[d]
        for m in pending[d]:
            nodes += 1
            if deadline is not None and nodes % _BUDGET_STRIDE == 0:
                if time.monotonic() > deadline:
                    return scanned, survivors, True
            masks[z] = m
            masks[zi] = scale[m]  # v(z^-1) = z^-1 . v(z); unchanged when z = z^-1
            if d < last:
                d += 1
                admitted = _admitted(pair, d, masks)
                scanned += (len(slots[d][1]) - len(admitted)) * below[d]
                pending[d] = iter(admitted)
                break
            scanned += 1
            if _least(masks, keys, rivals) and ch1_violation(pair, masks) is None:
                survivors.append((_expand(n, mul, inv, smul, masks), mul))
        else:
            d -= 1
    return scanned, survivors, False


def _shards(n, groups, deadline):
    """One shard per (group, z*, first row) that can hold the least map of
    an orbit: z* least in its orbit under Aut(G), and a first row m with
    sigma(m) >= m for every sigma fixing z*."""
    shards = []
    identity = tuple(range(n))
    for mul in groups:
        autos = list(group_isomorphisms(n, mul, mul))
        for zstar in range(1, n):
            if mul[zstar][zstar] != 1 or min(a[zstar] for a in autos) < zstar:
                continue
            pair = _pair(n, mul, zstar, [a for a in autos if a[zstar] == zstar and a != identity])
            shards += [(pair, m, deadline) for m in pair.slots[0][1]
                       if all(carry[m] >= m for _, carry in pair.rivals)]
    return shards


def enumerate_hyperfields(n: int, options: Optional[SearchOptions] = None) -> list[Hyperfield]:
    """All Krasner hyperfields of order n, one per isomorphism class, in
    iso.fingerprint order.

    Deterministic: shard order and merge order are fixed, and the walk
    keeps the least map of each class (prune (d)), its fingerprint key, in
    key order over the groups sorted by their element orders, so the output
    does not depend on the worker count and takes no isomorphism search.
    """
    if type(n) is not int or not 2 <= n <= MAX_ENUM_ORDER:
        raise CapacityError(f"enumeration supports orders 2..{MAX_ENUM_ORDER}")
    options = options or SearchOptions()
    if type(options.jobs) is not int or options.jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {options.jobs}")
    if type(options.progress_interval) is not int or options.progress_interval < 0:
        raise DomainError(f"progress interval must be at least 0, got {options.progress_interval}")
    budget = options.budget_seconds
    if budget is not None and (type(budget) not in (int, float) or not 0 < budget < math.inf):
        raise DomainError(f"budget must be a positive finite number of seconds, got {budget}")
    start = time.monotonic()
    deadline = start + budget if budget is not None else None
    # The groups in fingerprint order; within one, the shards come in key order.
    groups = [mul for _, mul in sorted(zip(abelian_group_orders(n - 1),
                                           abelian_group_tables(n - 1)))]
    shards = _shards(n, groups, deadline)

    scanned, survivors, timed_out, last_report = 0, [], False, 0
    total = sum(pair.below[0] for pair, _, _ in shards)
    # The pool forks every worker at the first submit, so it never gets
    # more workers than there are shards.  Results arrive in shard order.
    workers = min(options.jobs, len(shards))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = (pool.map if pool else map)(_run_shard, shards)
        for done, (got, found, late) in enumerate(results, 1):
            scanned += got
            survivors.extend(found)
            timed_out = timed_out or late
            if options.progress_interval and scanned - last_report >= options.progress_interval:
                rate = scanned / max(time.monotonic() - start, 1e-9)
                print(f"order={n} shards={done}/{len(shards)} scanned={scanned} survivors="
                      f"{len(survivors)} rate={rate:.0f} eta={(total - scanned) / rate:.1f}",
                      file=sys.stderr)
                last_report = scanned
            if timed_out:
                break

    def check_budget():
        if timed_out or deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError(f"order-{n} enumeration exceeded its budget",
                                      scanned=scanned, survivors=len(survivors))

    check_budget()
    classes = [verified(_expansion_candidate(n, hyperadd, mul)) for hyperadd, mul in survivors]
    check_budget()
    return classes

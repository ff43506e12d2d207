"""Isomorphism of hyperfields and a complete canonical form.

A hyperfield isomorphism fixes 0 and 1 and restricts to a group isomorphism
of the nonzero multiplicative parts.  Distributivity forces the whole
hyperaddition from the row v(z) = 1(+)z, so the hyperfield isomorphisms are
the group isomorphisms tau with tau(v(z)) = v'(tau(z)), which keep each
cell size |v(z)|.  The canonical form reads v in the enumeration walk's
order, so the classes the walk keeps need no search.  Group isomorphisms
come from core.group_isomorphisms in lexicographic order: the greedy
generators are the smallest elements outside the span of the earlier ones,
and their images are tried in ascending order; are_isomorphic passes the
cell sizes of row 1 as colours, so only maps that keep them are tried.
Masks are decoded by core._members and carried by _carry, each distinct
mask once: fingerprint and are_isomorphic decode row 1 once per call, and
is_isomorphism compares core.relabel's image with the second table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    Hyperfield,
    _members,
    element_orders,
    group_isomorphisms,
    inverses,
    relabel,
    require_verified,
    slot_keys,
)
from .galois import abelian_group_orders, abelian_group_tables


def _carry(members, tau):
    """Each mask of members -> its image under the bijection tau, carried
    once.  Distinct members go to distinct bits, so their sum is their OR."""
    bit = [1 << w for w in tau].__getitem__
    return {m: sum(map(bit, bits)) for m, bits in members.items()}.__getitem__


def fingerprint(h: Hyperfield) -> tuple:
    """A complete invariant: verified hyperfields get equal values exactly
    when they are isomorphic.  The value is (n, sorted orders of the nonzero
    elements, key): key is the least (z*, rows at core.slot_keys) of
    tau.v.tau^-1, over the group isomorphisms tau onto the matching
    galois.abelian_group_tables(n - 1) table, where 0 is in v(z*).  That is
    the enumeration walk's order, so each class it returns is its own key.
    Row 1 is decoded once; each tau carries its distinct masks, |Aut(G)| . n.
    """
    h = require_verified(h)
    n, mul, v = h.n, h.mul, h.hyperadd[1]
    orders = tuple(sorted(element_orders(n, mul)[1:]))
    table = abelian_group_tables(n - 1)[abelian_group_orders(n - 1).index(orders)]
    keys, zstar = slot_keys(inverses(n, table)), next(z for z in range(1, n) if v[z] & 1)
    members = _members((v,))
    return (n, orders, min(  # the row of z in tau.v.tau^-1 is tau(v(tau^-1 z))
        (tau[zstar], *map(_carry(members, tau), (v[tau.index(z)] for z in keys)))
        for tau in group_isomorphisms(n, mul, table)))


@dataclass(frozen=True)
class IsoWitness:
    """A bijection on carrier indices: element i of the first hyperfield
    corresponds to mapping[i] in the second."""

    mapping: tuple[int, ...]


def is_isomorphism(c1, c2, perm) -> bool:
    """Is perm a bijection on 0..n-1 that preserves both tables?  Accepts
    candidates or hyperfields, and compares relabel(c1, perm) with c2.  It
    serves candidates that are not verified: are_isomorphic reads row 1
    alone.  bench/spans.py wraps it."""
    n = c1.n
    if c2.n != n or sorted(perm) != list(range(n)):
        return False
    image = relabel(c1, perm)
    return image.hyperadd == c2.hyperadd and image.mul == c2.mul


def are_isomorphic(h1: Hyperfield, h2: Hyperfield) -> Optional[IsoWitness]:
    """The lexicographically first isomorphism witness, or None.

    Group isomorphisms keeping the cell sizes of row 1 come in lexicographic
    order, so the first that carries row 1 onto row 1 (mul and row 1 fix a
    verified hyperfield, so it preserves the hyperaddition) is the answer.
    """
    h1 = require_verified(h1)
    h2 = require_verified(h2)
    if h1.n != h2.n:
        return None
    v1, v2 = h1.hyperadd[1], h2.hyperadd[1]
    members = _members((v1,))
    sizes = list(map(int.bit_count, v1)), list(map(int.bit_count, v2))
    for perm in group_isomorphisms(h1.n, h1.mul, h2.mul, sizes):
        if list(map(_carry(members, perm), v1)) == list(map(v2.__getitem__, perm)):
            return IsoWitness(perm)
    return None

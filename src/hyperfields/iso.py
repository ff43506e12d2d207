"""Isomorphism of hyperfields and a complete canonical form.

A hyperfield isomorphism fixes 0 and 1 and restricts to a group isomorphism
of the nonzero multiplicative parts.  Distributivity forces the whole
hyperaddition from the row v(z) = 1(+)z, so the hyperfield isomorphisms are
the group isomorphisms tau with tau(v(z)) = v'(tau(z)).  Group isomorphisms
come from core.group_isomorphisms in lexicographic order: the greedy
generators are the smallest elements outside the span of the earlier ones,
and their images are tried in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Hyperfield, element_orders, group_isomorphisms, iter_bits, require_verified
from .galois import abelian_group_orders, abelian_group_tables


def _carried(v, tau):
    """tau.v.tau^-1: the row of tau(z) is the image of v(z) under tau."""
    row = [0] * len(v)
    for z, mask in enumerate(v):
        row[tau[z]] = sum(1 << tau[w] for w in iter_bits(mask))
    return row


def fingerprint(h: Hyperfield) -> tuple:
    """A complete invariant: verified hyperfields get equal values exactly
    when they are isomorphic.  The value is (n, sorted orders of the nonzero
    elements, row): row is the smallest tau.v.tau^-1, as masks, over the group
    isomorphisms tau onto the matching galois.abelian_group_tables(n - 1)
    table.  Cost: n set images per automorphism of the group, |Aut(G)| . n.
    """
    h = require_verified(h)
    n, mul, v = h.n, h.mul, h.hyperadd[1]
    orders = tuple(sorted(element_orders(n, mul)[1:]))
    table = abelian_group_tables(n - 1)[abelian_group_orders(n - 1).index(orders)]
    return (n, orders, tuple(min(_carried(v, tau) for tau in group_isomorphisms(n, mul, table))))


@dataclass(frozen=True)
class IsoWitness:
    """A bijection on carrier indices: element i of the first hyperfield
    corresponds to mapping[i] in the second."""

    mapping: tuple[int, ...]


def is_isomorphism(c1, c2, perm) -> bool:
    """Is perm a bijection on 0..n-1 that preserves both tables?  Accepts
    candidates or hyperfields.  It serves candidates that are not verified:
    are_isomorphic reads row 1 alone.  bench/spans.py wraps it."""
    n = c1.n
    if c2.n != n or sorted(perm) != list(range(n)):
        return False
    for a in range(n):
        for b in range(n):
            if perm[c1.mul[a][b]] != c2.mul[perm[a]][perm[b]]:
                return False
            img = 0
            for w in iter_bits(c1.hyperadd[a][b]):
                img |= 1 << perm[w]
            if img != c2.hyperadd[perm[a]][perm[b]]:
                return False
    return True


def are_isomorphic(h1: Hyperfield, h2: Hyperfield) -> Optional[IsoWitness]:
    """The lexicographically first isomorphism witness, or None.

    Group isomorphisms of the nonzero parts come in lexicographic order, so
    the first that carries row 1 onto row 1 (mul and row 1 fix a verified
    hyperfield, so it preserves the hyperaddition) is the answer.
    """
    h1 = require_verified(h1)
    h2 = require_verified(h2)
    if h1.n != h2.n:
        return None
    v1, v2 = h1.hyperadd[1], list(h2.hyperadd[1])
    for perm in group_isomorphisms(h1.n, h1.mul, h2.mul):
        if _carried(v1, perm) == v2:
            return IsoWitness(perm)
    return None

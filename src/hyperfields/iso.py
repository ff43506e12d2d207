"""Isomorphism of hyperfields and relabeling-invariant fingerprints.

A hyperfield isomorphism must fix 0 (the unique scalar additive identity)
and 1 (the unique multiplicative identity) and restricts to a group
isomorphism of the nonzero multiplicative parts.  The search therefore
iterates group isomorphisms only (core.group_isomorphisms: backtracking over
images of greedy generators among elements of the same order, each partial
choice extended along generator edges a -> a.g) and keeps those that also
preserve the hyperaddition setwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Hyperfield, element_orders, group_isomorphisms, iter_bits, require_verified


@dataclass(frozen=True, order=True)
class Fingerprint:
    """Relabeling-invariant summary; equality is necessary for isomorphism,
    never sufficient."""

    n: int
    cell_sizes: tuple[int, ...]
    mul_orders: tuple[int, ...]
    one_row_profile: tuple[int, ...]
    self_flags: tuple[tuple[bool, bool], ...]


def fingerprint(h: Hyperfield) -> Fingerprint:
    """Invariant under any carrier relabeling that fixes 0 and 1."""
    h = require_verified(h)
    n, hyperadd, mul = h.n, h.hyperadd, h.mul
    sizes = sorted(hyperadd[a][b].bit_count() for a in range(n) for b in range(n))
    flags = sorted((bool(hyperadd[a][a] >> a & 1), bool(hyperadd[a][a] & 1))
                   for a in range(n))
    return Fingerprint(
        n=n,
        cell_sizes=tuple(sizes),
        mul_orders=tuple(sorted(element_orders(n, mul)[1:])),
        one_row_profile=tuple(sorted(hyperadd[1][z].bit_count() for z in range(n))),
        self_flags=tuple(flags),
    )


@dataclass(frozen=True)
class IsoWitness:
    """A bijection on carrier indices: element i of the first hyperfield
    corresponds to mapping[i] in the second."""

    mapping: tuple[int, ...]


def is_isomorphism(c1, c2, perm) -> bool:
    """Is perm a bijection on 0..n-1 that preserves both tables?  Accepts
    candidates or hyperfields."""
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

    Fast paths: order mismatch, then fingerprint mismatch.  The full search
    walks group isomorphisms of the nonzero parts and keeps those that also
    preserve the hyperaddition.
    """
    h1 = require_verified(h1)
    h2 = require_verified(h2)
    if h1.n != h2.n:
        return None
    if fingerprint(h1) != fingerprint(h2):
        return None
    best = None
    for perm in group_isomorphisms(h1.n, h1.mul, h2.mul):
        if is_isomorphism(h1.candidate, h2.candidate, perm):
            if best is None or perm < best:
                best = perm
    return IsoWitness(best) if best is not None else None

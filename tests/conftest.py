"""Shared fixtures and independent test-side oracles.

The oracles here (brute-force isomorphism over raw bijections, the naive
full-table enumerator, the one-row reconstruction check) deliberately do
not reuse the package's search/deduplication machinery: they exist to
cross-examine it.
"""

from __future__ import annotations

from itertools import permutations, product as iproduct

import pytest

from hyperfields import (
    HyperfieldCandidate,
    enumerate_hyperfields,
    gf,
    hyperfield_of_order,
    massouros,
    quotient,
    subgroup_closure,
    verified,
    verify,
)

# The five-element hyperfield whose printed tables the whole suite leans on:
# carrier 0, 1, a, b, c as indices 0..4, multiplicative part cyclic of
# order four (a*a = b, a*b = c, a*c = 1).
FIVE_ADD = [
    [[0], [1], [2], [3], [4]],
    [[1], [1], [1, 2], [0, 1, 2, 3, 4], [1, 4]],
    [[2], [1, 2], [2], [2, 3], [0, 1, 2, 3, 4]],
    [[3], [0, 1, 2, 3, 4], [2, 3], [3], [3, 4]],
    [[4], [1, 4], [0, 1, 2, 3, 4], [3, 4], [4]],
]
FIVE_MUL = [
    [0, 0, 0, 0, 0],
    [0, 1, 2, 3, 4],
    [0, 2, 3, 4, 1],
    [0, 3, 4, 1, 2],
    [0, 4, 1, 2, 3],
]


def five_element_candidate() -> HyperfieldCandidate:
    return HyperfieldCandidate.from_sets(5, FIVE_ADD, FIVE_MUL)


def mutated_five(cells):
    """The five-element table with the given cells overwritten."""
    add = [list(map(list, row)) for row in FIVE_ADD]
    for (x, y), value in cells.items():
        add[x][y] = value
    return HyperfieldCandidate.from_sets(5, add, FIVE_MUL)


@pytest.fixture(scope="session")
def five_candidate():
    return five_element_candidate()


@pytest.fixture(scope="session")
def five(five_candidate):
    return verified(five_candidate)


@pytest.fixture(scope="session")
def enum_classes():
    """Enumeration output for orders 2..5, shared across the suite."""
    return {n: enumerate_hyperfields(n) for n in range(2, 6)}


def all_subgroups(f):
    """Every subgroup of GF(q)*: the multiplicative group is cyclic, so
    single-generator closures cover all of them."""
    seen = {}
    trivial = subgroup_closure(f, ())
    seen[trivial.closure] = trivial
    for a in range(1, f.q):
        g = subgroup_closure(f, (a,))
        seen.setdefault(g.closure, g)
    return [seen[k] for k in sorted(seen, key=lambda s: (len(s), sorted(s)))]


@pytest.fixture(scope="session")
def massouros_pool():
    return {q: massouros(gf(p, k))
            for q, (p, k) in {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1),
                              7: (7, 1), 8: (2, 3), 9: (3, 2)}.items()}


@pytest.fixture(scope="session")
def quotient_pool():
    out = []
    for q, (p, k) in {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
                      8: (2, 3), 9: (3, 2), 11: (11, 1)}.items():
        f = gf(p, k)
        for g in all_subgroups(f):
            out.append(((q, len(g.closure)), quotient(f, g)))
    return out


@pytest.fixture(scope="session")
def order_pool():
    return {n: hyperfield_of_order(n) for n in range(2, 31)}


class SteppingClock:
    """Stands in for the enumeration module's `time`: each monotonic() call
    moves the reading on by `step` seconds and returns it.  Tests may also
    set `now` directly."""

    def __init__(self, step=0.0):
        self.now = 0.0
        self.step = step

    def monotonic(self):
        self.now += self.step
        return self.now


# --- independent oracles -------------------------------------------------


def preserves_structure(c1, c2, perm) -> bool:
    """Re-check both preservation equations with plain set arithmetic."""
    n = c1.n
    for a in range(n):
        for b in range(n):
            if perm[c1.mul[a][b]] != c2.mul[perm[a]][perm[b]]:
                return False
            if {perm[w] for w in c1.cell(a, b)} != set(c2.cell(perm[a], perm[b])):
                return False
    return True


def brute_isomorphic(c1, c2):
    """Search every bijection fixing 0 (not even 1 is pinned)."""
    if c1.n != c2.n:
        return None
    for tail in permutations(range(1, c1.n)):
        perm = (0, *tail)
        if preserves_structure(c1, c2, perm):
            return perm
    return None


def one_row_reconstruction_ok(h) -> bool:
    """x(+)y == x.(1(+)(x^-1.y)) setwise, for all x != 0 and all y."""
    n, mul = h.n, h.mul
    inv = {x: next(y for y in range(1, n) if mul[x][y] == 1) for x in range(1, n)}
    for x in range(1, n):
        for y in range(n):
            one_row = h.candidate.cell(1, mul[inv[x]][y])
            if set(h.candidate.cell(x, y)) != {mul[x][w] for w in one_row}:
                return False
    return True


def _mul_table_is_hyperfield_scaffold(n, mul) -> bool:
    rng = range(n)
    if any(mul[x][0] != 0 or mul[0][x] != 0 for x in rng):
        return False
    if any(mul[1][x] != x for x in rng):
        return False
    if any(mul[x][y] != mul[y][x] for x in rng for y in rng):
        return False
    if any(mul[mul[x][y]][z] != mul[x][mul[y][z]] for x in rng for y in rng for z in rng):
        return False
    if any(mul[x][y] == 0 for x in range(1, n) for y in range(1, n)):
        return False
    return all(any(mul[x][y] == 1 for y in range(1, n)) for x in range(1, n))


def naive_scaffolds(n):
    """Every n x n multiplication table satisfying the multiplicative
    axioms, found by sheer exhaustion over all n**(n*n) tables."""
    found = []
    for flat in iproduct(range(n), repeat=n * n):
        mul = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        if _mul_table_is_hyperfield_scaffold(n, mul):
            found.append(mul)
    return found


def naive_classes(n, scaffolds=None):
    """Enumerate hyperfields of order n with no one-row reduction at all.

    Row and column 0 are pinned to singletons -- any other value loses to
    CH3/CH2 cell-by-cell -- and every interior cell ranges over all
    nonempty subsets.  Each table runs through the full verifier;
    survivors are deduplicated with the brute-force bijection search.
    """
    if scaffolds is None:
        scaffolds = naive_scaffolds(n)
    interior = [(x, y) for x in range(1, n) for y in range(1, n)]
    classes = []
    for mul in scaffolds:
        for combo in iproduct(range(1, 1 << n), repeat=len(interior)):
            rows = [[0] * n for _ in range(n)]
            for y in range(n):
                rows[0][y] = 1 << y
            for x in range(1, n):
                rows[x][0] = 1 << x
            for (x, y), m in zip(interior, combo):
                rows[x][y] = m
            c = HyperfieldCandidate(n, tuple(map(tuple, rows)), mul)
            if verify(c).ok:
                if all(brute_isomorphic(c, rep) is None for rep in classes):
                    classes.append(c)
    return classes

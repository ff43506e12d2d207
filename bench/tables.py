"""Hyperfield tables built with the benchmark's own modular arithmetic.

Nothing here imports the package.  The tables are in document form:
``mul[a][b]`` is an element index and ``add[a][b]`` is a sorted list of
element indices, with zero at index 0 and one at index 1.  These are the
inputs of the verify_reject workload (valid tables that the benchmark then
corrupts) and the reference data the output checks compare against.
"""

from __future__ import annotations

import json


def pair_tables(n):
    """{0} u C_(n-1): x(+)y = {x, y} for distinct nonzero x, y; x(+)x = all."""
    m = n - 1
    mul = [[0] * n for _ in range(n)]
    for x in range(1, n):
        for y in range(1, n):
            mul[x][y] = (x - 1 + y - 1) % m + 1
    full = list(range(n))
    add = [[None] * n for _ in range(n)]
    for x in range(n):
        add[0][x] = [x]
        add[x][0] = [x]
    for x in range(1, n):
        for y in range(1, n):
            add[x][y] = full if x == y else sorted((x, y))
    return mul, add


def triple_sum_tables(p):
    """Triple-sum hyperfield on GF(p), p prime: a(+)b = {a, b, a+b}, a(+)(-a) = all."""
    full = list(range(p))
    mul = [[a * b % p for b in range(p)] for a in range(p)]
    add = [[None] * p for _ in range(p)]
    for a in range(p):
        add[a][0] = [a]
        add[0][a] = [a]
    for a in range(1, p):
        for b in range(1, p):
            add[a][b] = full if (a + b) % p == 0 else sorted({a, b, (a + b) % p})
    return mul, add


def subgroup(p, s):
    """The subgroup of order s of GF(p)*, as a sorted list (s must divide p-1)."""
    if (p - 1) % s:
        raise ValueError(f"{s} does not divide {p - 1}")
    for h in range(2, p):
        if all(pow(h, (p - 1) // r, p) != 1 for r in _prime_factors(p - 1)):
            g = pow(h, (p - 1) // s, p)
            return sorted(pow(g, i, p) for i in range(s))
    raise ValueError(f"no primitive root modulo {p}")


def _prime_factors(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def quotient_tables(p, s):
    """Krasner quotient GF(p)/G with |G| = s; cosets ordered by least member."""
    group = subgroup(p, s)
    cosets = [[0]]
    seen = {0}
    for a in range(1, p):
        if a not in seen:
            coset = sorted(a * g % p for g in group)
            seen.update(coset)
            cosets.append(coset)
    index = {}
    for i, coset in enumerate(cosets):
        for e in coset:
            index[e] = i
    n = len(cosets)
    mul = [[index[cosets[i][0] * cosets[j][0] % p] for j in range(n)] for i in range(n)]
    add = [[sorted({index[(a + b) % p] for a in cosets[i] for b in cosets[j]})
            for j in range(n)] for i in range(n)]
    return mul, add


def relabel(mul, add, perm):
    """Tables of the same structure with element i renamed perm[i]."""
    n = len(mul)
    new_mul = [[0] * n for _ in range(n)]
    new_add = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new_mul[perm[a]][perm[b]] = perm[mul[a][b]]
            new_add[perm[a]][perm[b]] = sorted(perm[w] for w in add[a][b])
    return new_mul, new_add


def random_perm(rng, n):
    """A seeded bijection of 0..n-1 that fixes 0 and 1."""
    rest = list(range(2, n))
    rng.shuffle(rest)
    return (0, 1, *rest)


def document_text(mul, add):
    """The tables as a version-1 hyperfield document."""
    doc = {"version": 1, "order": len(mul), "mul": mul, "hyperadd": add}
    return json.dumps(doc, separators=(",", ":")) + "\n"

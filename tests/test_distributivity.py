"""The verifier's one distributivity fact.

core._miss(t, s) names the first (y, z) at which a map s of the carrier
fails s(y (+) z) = s(y) (+) s(z), or None.  KR3 reads it for the left law
at x (s = the row of x) and the right law (s = the column of x), and the
CH1/CH5 orbit search reads it for each candidate generator.  Here it is
checked against a literal loop over plain sets on every row and column of
failing tables, and each distinct map is shown to be scanned at most once
per verify().
"""

from __future__ import annotations

import random

import pytest

from hyperfields import core, gf, massouros, pair_hyperfield, product_candidate, relabel, verify
from test_verifier_oracle import SMALL, constructions_up_to_16, failing_variants, with_cells


def first_miss(n, hyperadd, s):
    """The first (y, z) with {s(w) : w in y (+) z} != s(y) (+) s(z)."""
    def members(mask):
        return {w for w in range(n) if mask >> w & 1}

    for y in range(n):
        for z in range(n):
            if {s[w] for w in members(hyperadd[y][z])} != members(hyperadd[s[y]][s[z]]):
                return y, z
    return None


def assert_fact_matches_the_loop(c):
    """Every row and every column of c's mul, asked in turn of one table."""
    t = core._Table(c.n, c.hyperadd, c.mul)
    for s in [tuple(row) for row in c.mul] + list(zip(*c.mul)):
        assert core._miss(t, s) == first_miss(c.n, c.hyperadd, s), s


@pytest.mark.parametrize("h", constructions_up_to_16())
def test_fact_matches_the_loop_on_failing_variants(h, request):
    rng = random.Random(request.node.callspec.id)
    for c in failing_variants(h.candidate, rng):
        assert_fact_matches_the_loop(c)


@pytest.mark.parametrize("first, second", [
    (a, b) for a in SMALL for b in SMALL if a <= b and SMALL[a].n * SMALL[b].n <= 16])
def test_fact_matches_the_loop_on_products(first, second):
    """Products have no group to expand over, so every row is a suspect."""
    c = product_candidate(SMALL[first], SMALL[second])
    rest = list(range(2, c.n))
    random.Random(c.n).shuffle(rest)
    for table in (c, relabel(c, (0, 1, *rest))):
        assert_fact_matches_the_loop(table)


def one_cell(c, x, y, shift):
    return with_cells(c, mul_cells=[((x, y), (c.mul[x][y] + shift) % c.n)])


@pytest.mark.parametrize("c", [
    one_cell(pair_hyperfield(40).candidate, 5, 7, 3),
    one_cell(massouros(gf(7)).candidate, 5, 4, 1),
], ids=["pair40", "massouros7-one-sided"])
def test_each_map_is_scanned_once_per_verify(c, monkeypatch):
    """In both tables the row of 2 is intact and equals its column, so the
    orbit search and both laws of KR3 ask for that one map; it is scanned
    once, as is every other map."""
    scanned = []
    find = core._find_miss

    def counted(t, s):
        scanned.append(s)
        return find(t, s)

    monkeypatch.setattr(core, "_find_miss", counted)
    assert not verify(c)["KR3"].passed
    assert c.mul[2] in scanned
    assert len(scanned) == len(set(scanned))

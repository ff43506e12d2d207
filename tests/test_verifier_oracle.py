"""Slow oracles for the verifier's two row-scanning checks, CH1 and KR3.

The package scans CH1 and KR3 a whole row over z at a time through per-x
memo tables.  The oracles below are the axiom definitions written as
literal triple loops over plain Python sets: no caches, no bitmask helpers
and nothing imported from the package's core.  Both must name the same
lexicographically first witness and the same reason, or both must pass.
"""

from __future__ import annotations

from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from hyperfields import (
    HyperfieldCandidate,
    gf,
    massouros,
    pair_hyperfield,
    quotient,
    verify,
)
from conftest import all_subgroups, five_element_candidate


def members(n, mask):
    return {w for w in range(n) if mask >> w & 1}


def ch1_oracle(n, hyperadd, mul):
    """x (+) (y (+) z) == (x (+) y) (+) z for every x, y, z."""
    for x in range(n):
        for y in range(n):
            for z in range(n):
                left = set()
                for w in members(n, hyperadd[y][z]):
                    left |= members(n, hyperadd[x][w])
                right = set()
                for w in members(n, hyperadd[x][y]):
                    right |= members(n, hyperadd[w][z])
                if left != right:
                    return (x, y, z), "regrouped sums differ"
    return None


def kr3_oracle(n, hyperadd, mul):
    """x.(y (+) z) == x.y (+) x.z and (y (+) z).x == y.x (+) z.x, left first."""
    for x in range(n):
        for y in range(n):
            for z in range(n):
                sum_yz = members(n, hyperadd[y][z])
                if {mul[x][w] for w in sum_yz} != members(n, hyperadd[mul[x][y]][mul[x][z]]):
                    return (x, y, z), "left distributivity fails"
                if {mul[w][x] for w in sum_yz} != members(n, hyperadd[mul[y][x]][mul[z][x]]):
                    return (x, y, z), "right distributivity fails"
    return None


ORACLES = (("CH1", ch1_oracle), ("KR3", kr3_oracle))


def assert_matches_oracles(c):
    report = verify(c)
    for axiom, oracle in ORACLES:
        got = report[axiom]
        want = oracle(c.n, c.hyperadd, c.mul)
        if want is None:
            assert got.passed, (axiom, got)
        else:
            assert (got.witness, got.reason) == want, axiom
    return report


def constructions_up_to_16():
    fields = [gf(p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                    (3, 2), (11, 1), (13, 1), (2, 4))]
    built = [(f"massouros-gf{f.q}", massouros(f)) for f in fields]
    built += [(f"pair-{n}", pair_hyperfield(n)) for n in range(2, 17)]
    built += [(f"quotient-gf{f.q}-by-{len(g.closure)}", quotient(f, g))
              for f in fields for g in all_subgroups(f)]
    return [pytest.param(h, id=name) for name, h in built]


def test_every_enumerated_class_passes_both(enum_classes):
    for n in range(2, 6):
        for h in enum_classes[n]:
            assert_matches_oracles(h.candidate)


@pytest.mark.parametrize("h", constructions_up_to_16())
def test_constructions_up_to_order_16_pass_both(h):
    assert h.n <= 16
    assert_matches_oracles(h.candidate)


def with_cells(c, add_cells=(), mul_cells=()):
    add = [list(row) for row in c.hyperadd]
    mul = [list(row) for row in c.mul]
    for (x, y), v in add_cells:
        add[x][y] = v
    for (x, y), v in mul_cells:
        mul[x][y] = v
    return HyperfieldCandidate(c.n, tuple(map(tuple, add)), tuple(map(tuple, mul)))


def test_every_one_sided_product_change_at_order_five():
    """Each single mul cell rewritten without its mirror: mul is no longer
    commutative, so left and right distributivity fail at different z."""
    c = five_element_candidate()
    n = c.n
    reasons = set()
    for x, y, v in iproduct(range(n), range(n), range(n)):
        if v == c.mul[x][y]:
            continue
        report = assert_matches_oracles(with_cells(c, mul_cells=[((x, y), v)]))
        reasons.add(report["KR3"].reason)
    assert reasons >= {"left distributivity fails", "right distributivity fails"}


BASES = {
    "five": five_element_candidate(),
    "massouros7": massouros(gf(7)).candidate,
    "massouros8": massouros(gf(2, 3)).candidate,
    "pair6": pair_hyperfield(6).candidate,
    "quotient9": quotient(gf(3, 2), all_subgroups(gf(3, 2))[1]).candidate,
}


@st.composite
def corrupted(draw):
    c = BASES[draw(st.sampled_from(sorted(BASES)))]
    n = c.n
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    add_cells = draw(st.lists(st.tuples(cell, st.integers(1, (1 << n) - 1)),
                              max_size=3))
    mul_cells = draw(st.lists(st.tuples(cell, st.integers(0, n - 1)),
                              min_size=0 if add_cells else 1,
                              max_size=3 - len(add_cells)))
    return with_cells(c, add_cells, mul_cells)


@given(corrupted())
@settings(max_examples=300, deadline=None)
def test_corrupted_tables_agree_with_the_oracles(c):
    assert_matches_oracles(c)

"""Slow oracles for the verifier: its four cubic axioms, CH1, CH5, KR1 and
KR3, and the theorems its deciders apply.

The package decides the four axioms by theorems that skip most of the
work: Light's test for KR1, composition of certified multiplications for
KR3, and one x per automorphism orbit for CH1 and CH5; what is left is
scanned a whole row over z at a time through per-x memo tables.  The
oracles below are the axiom definitions written as literal triple loops
over plain Python sets: no caches, no bitmask helpers and nothing imported
from the package's core.  Both must name the same lexicographically first
witness and the same reason, or both must pass.

Each decider applies its theorem first: Light's test for KR1, the
scaling-identity certificate for KR3, and for CH1 and CH5 the orbit
leaders, which are 0 and 1 under the certificate.  Every input here checks
that verify() returns exactly the report of the oracles and the six O(n^2)
checks.  Light's test and the certificate are also checked on their own
against the oracle of the axiom they prove, because a whole report can
hide a wrong step behind another axiom's failure.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from hyperfields import (
    AxiomReport,
    AxiomResult,
    HyperfieldCandidate,
    OneRowMap,
    abelian_groups,
    enumerate_hyperfields,
    expand_one_row,
    gf,
    massouros,
    pair_hyperfield,
    product_candidate,
    quotient,
    relabel,
    verified,
    verify,
)
from hyperfields import core
from hyperfields.enumeration import _scalar_tables
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


def ch5_oracle(n, hyperadd, mul):
    """z in x (+) y gives y in x' (+) z and x in z (+) y', where w' is the
    one element with 0 in w (+) w'."""
    opposites = []
    for w in range(n):
        found = [v for v in range(n) if 0 in members(n, hyperadd[w][v])]
        opposites.append(found[0] if len(found) == 1 else None)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if z not in members(n, hyperadd[x][y]):
                    continue
                xo, yo = opposites[x], opposites[y]
                if xo is None or yo is None:
                    return (x, y, z), "opposite undefined"
                if y not in members(n, hyperadd[xo][z]):
                    return (x, y, z), "y not in x'(+)z"
                if x not in members(n, hyperadd[z][yo]):
                    return (x, y, z), "x not in z(+)y'"
    return None


def kr1_oracle(n, hyperadd, mul):
    """(x.y).z == x.(y.z) for every x, y, z."""
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    return (x, y, z), "regrouped products differ"
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


ORACLES = {"CH1": ch1_oracle, "CH5": ch5_oracle, "KR1": kr1_oracle, "KR3": kr3_oracle}


def exhaustive_report(c):
    """The report of the six O(n^2) checks and the four oracles."""
    table = core._Table(c.n, c.hyperadd, c.mul)
    results = []
    for axiom, check in core.AXIOM_CHECKS:
        hit = ORACLES[axiom](c.n, c.hyperadd, c.mul) if axiom in ORACLES else check(table)
        results.append(AxiomResult(axiom, True) if hit is None
                       else AxiomResult(axiom, False, *hit))
    return AxiomReport(tuple(results))


def assert_matches_oracles(c):
    """verify() gives exactly the oracles' report, and Light's test and the
    certificate hold only where the axioms they prove hold."""
    want = exhaustive_report(c)
    assert verify(c) == want
    table = core._Table(c.n, c.hyperadd, c.mul)
    assert want["KR1"].passed or not table.associative
    assert want["KR3"].passed or not table.scales
    return want


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


# --- the deciders on failing tables ------------------------------------------


def failing_variants(c, rng):
    """Tables that fail near c, each a case for the deciders: c relabelled
    with 0 and 1 kept in place; c and that relabelling each with one
    hyperadd cell given or robbed of one element, and with one mul cell
    rewritten, both without the mirror cell; c with one product by 0 made
    nonzero, which Light's test cannot see; and c with 0 put into every
    0 (+) z and z (+) 0, which every left multiplication carries along, so
    the automorphisms stay and CH5 fails at x = 0 first."""
    n = c.n
    rest = list(range(2, n))
    rng.shuffle(rest)
    moved = relabel(c, (0, 1, *rest))
    yield moved
    for t in (c, moved):
        x, y, w = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        cell = t.hyperadd[x][y]
        yield with_cells(t, add_cells=[((x, y), cell ^ 1 << w or cell | 1 << (w + 1) % n)])
        x, y = rng.randrange(n), rng.randrange(n)
        yield with_cells(t, mul_cells=[((x, y), (t.mul[x][y] + rng.randrange(1, n)) % n)])
    yield with_cells(c, mul_cells=[((0, rng.randrange(1, n)), rng.randrange(1, n))])
    yield with_cells(c, add_cells=[cell for z in range(1, n)
                                   for cell in (((0, z), 1 | 1 << z), ((z, 0), 1 | 1 << z))])


@pytest.mark.parametrize("h", constructions_up_to_16())
def test_failing_variants_of_constructions_agree_with_the_oracles(h, request):
    rng = random.Random(request.node.callspec.id)
    for c in failing_variants(h.candidate, rng):
        assert_matches_oracles(c)


SMALL = {
    "massouros2": massouros(gf(2)),
    "pair3": pair_hyperfield(3),
    "massouros3": massouros(gf(3)),
    "pair4": pair_hyperfield(4),
    "massouros4": massouros(gf(2, 2)),
    "five": verified(five_element_candidate()),
}


@pytest.mark.parametrize("first, second", [
    (a, b) for a, b in iproduct(SMALL, SMALL)
    if a <= b and SMALL[a].n * SMALL[b].n <= 16])
def test_products_agree_with_the_oracles(first, second):
    """Componentwise products have zero divisors, so none is a hyperfield;
    their left multiplications by pairs of nonzero elements are still
    automorphisms of (+)."""
    c = product_candidate(SMALL[first], SMALL[second])
    assert not assert_matches_oracles(c).ok
    rest = list(range(2, c.n))
    random.Random(c.n).shuffle(rest)
    assert_matches_oracles(relabel(c, (0, 1, *rest)))


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


# --- the theorems that decide a hyperfield ---------------------------------


QUADRATIC = ("CH2", "CH3", "CH4", "KR2", "HF1", "HF2")


@lru_cache(maxsize=None)
def kr1_holds(mul):
    return kr1_oracle(len(mul), None, mul) is None


def assert_steps_agree(c):
    """Light's test passes only where KR1 holds, and the certificate only
    where KR3 holds.  Where the six O(n^2) checks pass, both apply exactly
    where their axiom holds (the certificate where KR1 does too), so a
    hyperfield is always decided by the theorems."""
    n, hyperadd, mul = c.n, c.hyperadd, c.mul
    table = core._Table(n, hyperadd, mul)
    complete = all(check(table) is None for axiom, check in core.AXIOM_CHECKS
                   if axiom in QUADRATIC)
    if table.associative or complete:
        assert table.associative == kr1_holds(mul)
    if table.scales or complete and table.associative:
        assert table.scales == (kr3_oracle(n, hyperadd, mul) is None)


def test_order_six_classes_are_proved_by_the_reductions():
    for h in enumerate_hyperfields(6):
        assert assert_matches_oracles(h.candidate).ok
        assert core._Table(h.n, h.hyperadd, h.mul).scales


def one_cell_changes(c, symmetric):
    """Every table that differs from c in one mul cell or one hyperadd cell,
    with its mirror cell changed alike when symmetric."""
    n = c.n
    for x, y in iproduct(range(n), range(n)):
        if symmetric and y < x:
            continue
        cells = {(x, y), (y, x)} if symmetric else {(x, y)}
        for v in range(n):
            if v != c.mul[x][y]:
                yield with_cells(c, mul_cells=[(cell, v) for cell in cells])
        for m in range(1, 1 << n):
            if m != c.hyperadd[x][y]:
                yield with_cells(c, add_cells=[(cell, m) for cell in cells])


@pytest.mark.parametrize("symmetric", [False, True], ids=["one-sided", "symmetric"])
@pytest.mark.parametrize("base", sorted(BASES))
def test_every_one_cell_change_agrees(base, symmetric):
    for c in one_cell_changes(BASES[base], symmetric):
        assert_steps_agree(c)


def one_row_maps(n):
    """Every mask tuple OneRowMap(n, .) accepts: v(0) = {1}, and exactly one
    nonzero z has 0 in v(z)."""
    with_zero = range(1, 1 << n, 2)
    without = range(2, 1 << n, 2)
    for zstar in range(1, n):
        yield from ((2, *rest) for rest in iproduct(
            *(with_zero if z == zstar else without for z in range(1, n))))


def expanded_tables(n, mul):
    """The hyperaddition expand_one_row(mul, OneRowMap(n, v)) builds, for
    every v, with the group's scalar tables computed once, not per map."""
    inv = core.inverses(n, mul)
    smul = _scalar_tables(n, mul)
    for masks in one_row_maps(n):
        yield masks, core._expand(n, mul, inv, smul, masks)


def ch5_fails_at(n, hyperadd, x, y, z):
    """z in x (+) y, and y not in x' (+) z or x not in z (+) y', with the
    opposites read off the table."""
    def opp(a):
        return next(w for w in range(n) if hyperadd[a][w] & 1)
    return bool(hyperadd[x][y] >> z & 1) and (
        not hyperadd[opp(x)][z] >> y & 1 or not hyperadd[z][opp(y)] >> x & 1)


@pytest.mark.parametrize("n, mul", [
    pytest.param(n, mul, id=f"order{n}-group{i}")
    for n in (3, 4, 5) for i, mul in enumerate(abelian_groups(n - 1))])
def test_every_expanded_one_row_table(n, mul):
    """On every table expanded from a one-row map over the group: CH5 at
    x = 1 against the full CH5 (a failure at x = 1 must be a real one, and
    a pass at x = 1 a pass everywhere); CH1 at x = 1 against the full CH1
    (at order 5 where CH5 passes, which keeps the scan short); the CH1
    decider against the oracle at orders 3 and 4, and the symmetry theorem
    against the full CH1 at order 5 where CH2 holds; and Light's test and
    the certificate where the six O(n^2) checks pass.  The expansion builds
    in the scaling identity, so the reductions to x = 1 are theorems here.
    Some tables fail CH2 and CH1 with M symmetric, so the theorem needs its
    CH2 premise."""
    count = ch5_failures = decided = unguarded = 0
    for masks, hyperadd in expanded_tables(n, mul):
        count += 1
        if n < 5:
            assert expand_one_row(mul, OneRowMap(n, masks)).hyperadd == tuple(map(tuple, hyperadd))
        table = core._Table(n, hyperadd, mul)
        hit = core._ch5_scan(table, (1,))
        if hit is None:
            assert core._ch5_scan(table, range(n)) is None, masks
        else:
            ch5_failures += 1
            assert hit[0][0] == 1 and ch5_fails_at(n, hyperadd, *hit[0]), masks
        if n < 5 or hit is None:
            ch1 = core._ch1_scan(table, range(n)) is None
            assert (core._ch1_scan(table, (1,)) is None) == ch1, masks
        if n < 5:
            ch1_hit = ch1_oracle(n, hyperadd, mul)
            assert core.ch1_violation(table) == ch1_hit, masks
            unguarded += core._ch1_symmetry(hyperadd) is None and ch1_hit is not None
        if core.ch2_violation(table) is None:  # the other five hold by expansion
            decided += 1
            if n == 5:
                symmetric = core._ch1_symmetry(hyperadd) is None
                assert symmetric == (core._ch1_scan(table, range(n)) is None), masks
            assert_steps_agree(HyperfieldCandidate(n, tuple(map(tuple, hyperadd)), mul))
    assert count == (n - 1) * 2 ** (n - 1) * (2 ** (n - 1) - 1) ** (n - 2)
    assert 0 < ch5_failures < count and decided > 0
    assert unguarded == {3: 1, 4: 28, 5: 0}[n]


def random_commutative_loop(n, rng):
    """A random symmetric Latin square on 1..n-1 with identity 1, with an
    absorbing 0: it passes KR2, HF1 and HF2 but need not be associative.
    Filled most-constrained cell first, by backtracking."""
    t = [[0] * n for _ in range(n)]
    for x in range(1, n):
        t[1][x] = t[x][1] = x
    empty = {(x, y) for x in range(2, n) for y in range(x, n)}

    def options(x, y):
        used = set(t[x]) | set(t[y])
        return [v for v in range(1, n) if v not in used]

    def fill():
        if not empty:
            return True
        x, y = min(sorted(empty), key=lambda cell: len(options(*cell)))
        choices = options(x, y)
        rng.shuffle(choices)
        empty.remove((x, y))
        for v in choices:
            t[x][y] = t[y][x] = v
            if fill():
                return True
        t[x][y] = t[y][x] = 0
        empty.add((x, y))
        return False

    assert fill()
    return tuple(map(tuple, t))


@pytest.mark.parametrize("n", range(4, 9))
def test_lights_test_matches_kr1_on_random_commutative_loops(n):
    rng = random.Random(n)
    verdicts = set()
    for _ in range(150):
        mul = random_commutative_loop(n, rng)
        associative = kr1_oracle(n, None, mul) is None
        assert core._Table(n, None, mul).associative == associative, mul
        verdicts.add(associative)
    if n in (7, 8):  # both kinds are common from order 7 on
        assert verdicts == {True, False}


@pytest.mark.parametrize("m", range(1, 9))
def test_lights_test_passes_every_group_table(m):
    """Including C2^3, whose three greedy generators are the most a group
    of order 8 has, and relabellings that move the generators."""
    n = m + 1
    hyperadd = tuple(tuple(1 << y for y in range(n)) for _ in range(n))
    for mul in abelian_groups(m):
        for perm in ((0, 1, *range(2, n)), (0, 1, *range(n - 1, 1, -1))):
            relabelled = relabel(HyperfieldCandidate(n, hyperadd, mul), perm).mul
            assert core._Table(n, hyperadd, relabelled).associative


@pytest.mark.parametrize("base", ["five", "massouros7", "pair6", "quotient9"])
def test_scaling_identity_matches_kr3(base):
    """On every symmetric one-cell change of hyperadd that keeps CH3: the
    multiplication is still a group with zero, which the identity needs."""
    c = BASES[base]
    n = c.n
    verdicts = set()
    for changed in one_cell_changes(c, symmetric=True):
        table = core._Table(n, changed.hyperadd, c.mul)
        if changed.mul != c.mul or core.ch3_violation(table):
            continue
        assert table.scales == (kr3_oracle(n, changed.hyperadd, c.mul) is None)
        verdicts.add(table.scales)
    assert core._Table(n, c.hyperadd, c.mul).scales
    assert False in verdicts


def symmetric_group_with_zero():
    """S3 with a zero: permutations of three points, the identity first."""
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms, 1)}
    return ((0,) * 7,) + tuple((0, *(index[tuple(p[i] for i in q)] for q in perms))
                               for p in perms)


CHAIN = tuple(tuple(min(x, y, key=(0, 3, 1, 2).__getitem__) for y in range(4))
              for x in range(4))  # 0 < 2 < 3 < 1 under min


@pytest.mark.parametrize("mul", [symmetric_group_with_zero(), CHAIN], ids=["S3", "chain"])
def test_expansions_the_certificate_must_refuse(mul):
    """Light's test passes on both multiplications, and a row v expands over
    each (through inverses, 0 where missing) to a table that fails KR3: S3
    is not commutative, and the chain has no inverses.  The certificate
    checks both, so KR3 falls back to its scan."""
    n = len(mul)
    rng = random.Random(n)
    for _ in range(30):
        zstar = rng.randrange(1, n)
        v = (2, *(rng.randrange(2, 1 << n, 2) | (z == zstar) for z in range(1, n)))
        hyperadd = core._expand(n, mul, core.inverses(n, mul), *core._row_scalars(mul, v))
        c = HyperfieldCandidate(n, tuple(map(tuple, hyperadd)), mul)
        table = core._Table(n, c.hyperadd, c.mul)
        assert table.associative and not table.scales
        assert not assert_matches_oracles(c)["KR3"].passed


@pytest.mark.parametrize("h", [massouros(gf(2, 5)), pair_hyperfield(20),
                               verified(five_element_candidate())],
                         ids=["massouros32", "pair20", "five"])
def test_list_rows_decide_as_tuple_rows(h):
    """A candidate built with list rows gets the same reports as with tuple
    rows, passing and failing, and the certificate holds for both."""
    n = h.n

    def listed(c):
        return HyperfieldCandidate(n, [list(row) for row in c.hyperadd],
                                   [list(row) for row in c.mul])

    for c in (h.candidate, with_cells(h.candidate, add_cells=[((2, 3), 1 << n - 1)]),
              with_cells(h.candidate, mul_cells=[((3, 2), 0)])):
        assert verify(listed(c)) == verify(c)
    for c in (h.candidate, listed(h.candidate)):
        assert core._Table(n, c.hyperadd, c.mul).scales

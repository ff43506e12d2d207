"""Slow oracles for the verifier: all ten axioms, and the theorems its
deciders apply.

The package decides the four cubic axioms by theorems that skip most of
the work: Light's test for KR1, composition of certified multiplications
for KR3, and one x per automorphism orbit for CH1 and CH5; what is left is
scanned a whole row over z at a time through per-x memo tables.  The
oracles below are the axiom definitions written as literal loops over
plain Python sets, triple loops for the cubic ones: no caches, no bitmask
helpers and nothing imported from the package's core.  Both must name the
same lexicographically first witness and the same reason, or both must
pass.

Each decider applies its theorem first: Light's test for KR1, and for
CH1, CH5 and KR3 the suspect rows, where the table leaves the expansion E
of its own row 1 while E is a hyperfield (every row where it is not): a
table passes all ten exactly when it has no suspects, and then verify()
runs no check.  Every input here checks that verify() returns exactly the
report of the ten oracles.  Light's test and the suspects are also checked
on their own against the oracles of the axioms they prove, because a whole
report can hide a wrong step behind another axiom's failure.
"""

from __future__ import annotations

import random
from collections import Counter
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


def ch2_oracle(n, hyperadd, mul):
    """x (+) y == y (+) x for every x, y."""
    for x in range(n):
        for y in range(n):
            if members(n, hyperadd[x][y]) != members(n, hyperadd[y][x]):
                return (x, y), "sum not symmetric"
    return None


def ch3_oracle(n, hyperadd, mul):
    """0 (+) x == {x} for every x."""
    for x in range(n):
        if members(n, hyperadd[0][x]) != {x}:
            return (x,), "zero row not scalar identity"
    return None


def ch4_oracle(n, hyperadd, mul):
    """Each x has exactly one y with 0 in x (+) y; the witness of several
    names the first two."""
    for x in range(n):
        found = [y for y in range(n) if 0 in members(n, hyperadd[x][y])]
        if not found:
            return (x,), "no opposite"
        if len(found) > 1:
            return (x, found[0], found[1]), "multiple opposites"
    return None


def kr2_oracle(n, hyperadd, mul):
    """x.0 == 0.x == 0 for every x."""
    for x in range(n):
        if mul[x][0] != 0 or mul[0][x] != 0:
            return (x,), "zero not absorbing"
    return None


def hf1_oracle(n, hyperadd, mul):
    """x.y == y.x for every x, y, then 1.y == y for every y."""
    for x in range(n):
        for y in range(n):
            if mul[x][y] != mul[y][x]:
                return (x, y), "multiplication not commutative"
    for y in range(n):
        if mul[1][y] != y:
            return (y,), "one not identity"
    return None


def hf2_oracle(n, hyperadd, mul):
    """x.y != 0 for every x, y != 0, then each x != 0 has a y != 0 with
    x.y == 1."""
    for x in range(1, n):
        for y in range(1, n):
            if mul[x][y] == 0:
                return (x, y), "zero divisor"
    for x in range(1, n):
        if all(mul[x][y] != 1 for y in range(1, n)):
            return (x,), "no multiplicative inverse"
    return None


ORACLES = {"CH1": ch1_oracle, "CH2": ch2_oracle, "CH3": ch3_oracle, "CH4": ch4_oracle,
           "CH5": ch5_oracle, "KR1": kr1_oracle, "KR2": kr2_oracle, "KR3": kr3_oracle,
           "HF1": hf1_oracle, "HF2": hf2_oracle}


def exhaustive_report(c):
    """The report of the ten oracles, in verify()'s order of the axioms."""
    results = []
    for axiom, _ in core.AXIOM_CHECKS:
        hit = ORACLES[axiom](c.n, c.hyperadd, c.mul)
        results.append(AxiomResult(axiom, True) if hit is None
                       else AxiomResult(axiom, False, *hit))
    return AxiomReport(tuple(results))


def every_row(n):
    """The suspects of a table whose row 1 expands to no hyperfield."""
    return (1 << n) - 1


def assert_matches_oracles(c):
    """verify() gives exactly the oracles' report, Light's test holds only
    where KR1 holds, and no row is a suspect only where CH1, CH5 and KR3
    hold."""
    want = exhaustive_report(c)
    assert verify(c) == want
    table = core._Table(c.n, c.hyperadd, c.mul)
    assert want["KR1"].passed or not table.associative
    assert all(want[axiom].passed for axiom in ("CH1", "CH5", "KR3")) or table.suspects
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


# --- the scans narrowed to the rows that leave E ---------------------------


def with_members_unbuilt(monkeypatch, n):
    """Make core._members fail when asked for the members of a whole table."""
    real = core._members

    def refused(rows):
        if len(rows) == n:
            raise AssertionError("the members of every mask were decoded")
        return real(rows)
    monkeypatch.setattr(core, "_members", refused)


@pytest.mark.parametrize("h, row", [(pair_hyperfield(40), 20), (massouros(gf(2, 6)), 32)],
                         ids=["pair40", "massouros64"])
def test_one_cell_corruption_scans_from_its_row(h, row, monkeypatch):
    """One more element in one hyperadd cell: the table's row 1 still
    expands to h, so the corrupted row is the one suspect and the scans
    decode the masks of the rows they read, not every mask."""
    c = h.candidate
    n = c.n
    cell = c.hyperadd[row][5]
    added = next(w for w in range(n - 1, -1, -1) if not cell >> w & 1)
    bad = with_cells(c, add_cells=[((row, 5), cell | 1 << added)])
    assert core._Table(n, bad.hyperadd, bad.mul).suspects == 1 << row
    with_members_unbuilt(monkeypatch, n)
    assert assert_matches_oracles(bad).failures()


def decodes_in_checks(monkeypatch):
    """Count the core._bits calls by mask while an axiom check of verify()
    runs, where the CH1, CH5 and KR3 scans decode masks."""
    counts, checking = Counter(), []
    real = core._bits

    def counting(m):
        if checking:
            counts[m] += 1
        return real(m)

    def counted(check):
        def wrapper(t):
            checking.append(check)
            try:
                return check(t)
            finally:
                checking.pop()
        return wrapper
    monkeypatch.setattr(core, "_bits", counting)
    monkeypatch.setattr(core, "AXIOM_CHECKS", tuple(
        (code, counted(check)) for code, check in core.AXIOM_CHECKS))
    return counts


@pytest.mark.parametrize("h, add_row, mul_row", [(pair_hyperfield(40), 20, None),
                                                 (massouros(gf(2, 6)), 32, None),
                                                 (pair_hyperfield(40), None, 20)],
                         ids=["pair40-add", "massouros64-add", "pair40-mul"])
def test_the_scans_decode_each_mask_once(h, add_row, mul_row, monkeypatch):
    """Counts, not timings.  One hyperadd cell gains an element, or one
    product moves, which makes every row a suspect: the scans read each
    cell's members through the view's one memo, so no mask is decoded
    twice, and the report is the oracles'."""
    c = h.candidate
    n = c.n
    if add_row is not None:
        cell = c.hyperadd[add_row][5]
        added = next(w for w in range(n - 1, -1, -1) if not cell >> w & 1)
        bad = with_cells(c, add_cells=[((add_row, 5), cell | 1 << added)])
    else:
        bad = with_cells(c, mul_cells=[((mul_row, 3), c.mul[mul_row][3] % (n - 1) + 1)])
    suspects = core._Table(n, bad.hyperadd, bad.mul).suspects
    assert suspects == (every_row(n) if add_row is None else 1 << add_row)
    counts = decodes_in_checks(monkeypatch)
    assert not assert_matches_oracles(bad).ok
    assert counts and max(counts.values()) == 1


def test_corruptions_that_leave_no_hyperfield_expansion_have_no_suspects():
    """A mul corruption leaves no group to expand over, and a row-1
    corruption expands to a table that is no hyperfield, so every row is a
    suspect and the scans visit every y.  The last table's row 1 expands
    over C3 to an E whose sums v(a) (+) u are symmetric while E itself is
    not, and E fails CH1: the symmetry theorem alone would pass it."""
    c = massouros(gf(13)).candidate
    e = expand_one_row(abelian_groups(3)[0], OneRowMap(4, (2, 15, 2, 2)))
    assert core._ch1_symmetry(e.hyperadd) is None and ch1_oracle(4, e.hyperadd, e.mul)
    for bad in (with_cells(c, mul_cells=[((4, 6), c.mul[4][7])]),
                with_cells(c, add_cells=[((1, 6), c.hyperadd[1][6] | 1 << 9)]),
                with_cells(e, add_cells=[((3, 0), e.hyperadd[3][0] | 1)])):
        table = core._Table(bad.n, bad.hyperadd, bad.mul)
        assert table.suspects == every_row(bad.n)
        assert not assert_matches_oracles(bad).ok
    assert table.expansion == e.hyperadd


@pytest.mark.parametrize("h", [pair_hyperfield(16), massouros(gf(13)), massouros(gf(2, 5))],
                         ids=["pair16", "massouros13", "massouros32"])
def test_orbit_search_stops_at_the_first_map_that_does_not_distribute(h):
    """Counts, not timings.  One hyperadd cell gains its least missing
    element: the first bijective row the orbit search asks about fails to
    distribute, and the search stops there, asking one map where going on
    would ask n - 2.  One product moved off the group leaves the other rows
    automorphisms, which join 2..n-1 into one orbit."""
    c = h.candidate
    n, x = c.n, c.n // 2
    cell = c.hyperadd[x][3]
    least = next(w for w in range(n) if not cell >> w & 1)
    bad = with_cells(c, add_cells=[((x, 3), cell | 1 << least)])
    table = core._Table(n, bad.hyperadd, bad.mul)
    assert table.leaders == list(range(n))
    assert len(table.misses) == 1
    bad = with_cells(c, mul_cells=[((x, 3), c.mul[x][3] % (n - 1) + 1)])
    assert core._Table(n, bad.hyperadd, bad.mul).leaders == [0, 1]


def seeded_corruptions(c, rng):
    """Cell changes one to three hyperadd cells away from c: a cell and its
    mirror; a cell in row 0 and one in row 1; a cell that gains 0 and one
    that loses it, which moves the opposites; a cell robbed of one of its
    members in the row of the opposite of 1, which CH5 reads at x = 1; and
    two or three cells at random."""
    n = c.n

    def toggled(x, y, w):
        cell = c.hyperadd[x][y]
        return (x, y), cell ^ 1 << w or cell | 1 << (w + 1) % n

    def some(low=0):
        return rng.randrange(low, n)

    x, y, w = some(2), some(2), some()
    yield [toggled(x, y, w), toggled(y, x, w)]
    yield [toggled(0, some(1), some())]
    yield [toggled(1, some(2), some())]
    x = some(1)
    opp = c.hyperadd[x].index(next(m for m in c.hyperadd[x] if m & 1))
    yield [toggled(x, (opp + some(1)) % n, 0)]
    yield [toggled(x, opp, 0)]
    x = c.hyperadd[1].index(next(m for m in c.hyperadd[1] if m & 1))  # the row CH5 at 1 reads
    y = rng.choice([y for y, m in enumerate(c.hyperadd[x]) if m.bit_count() > 1])
    yield [toggled(x, y, rng.choice(core._bits(c.hyperadd[x][y])))]
    yield [toggled(some(), some(), some()) for _ in range(rng.choice((2, 3)))]


MID_ORDER = {
    "pair9": pair_hyperfield(9),
    "pair21": pair_hyperfield(21),
    "massouros16": massouros(gf(2, 4)),
    "massouros25": massouros(gf(5, 2)),
    "quotient9": quotient(gf(17), all_subgroups(gf(17))[1]),
    "quotient33": quotient(gf(97), all_subgroups(gf(97))[2]),
}


@pytest.mark.parametrize("base", sorted(MID_ORDER))
def test_mid_order_corruptions_agree_with_the_oracles(base):
    """Whether or not E is a hyperfield, and whichever rows leave it, the
    narrowed scans name the oracles' witnesses."""
    c = MID_ORDER[base].candidate
    narrowed = 0
    for cells in seeded_corruptions(c, random.Random(base)):
        bad = with_cells(c, add_cells=cells)
        assert_matches_oracles(bad)
        narrowed += core._Table(c.n, bad.hyperadd, bad.mul).suspects != every_row(c.n)
    assert narrowed >= 3


# --- the theorems that decide a hyperfield ---------------------------------


QUADRATIC = ("CH2", "CH3", "CH4", "KR2", "HF1", "HF2")


@lru_cache(maxsize=None)
def kr1_holds(mul):
    return kr1_oracle(len(mul), None, mul) is None


def assert_steps_agree(c):
    """Light's test passes only where KR1 holds, and no row is a suspect
    only where CH1, CH5 and KR3 hold.  Where the six O(n^2) checks pass,
    both apply exactly where their axioms hold (the suspects where KR1 does
    too), so a hyperfield is always decided by the theorems."""
    n, hyperadd, mul = c.n, c.hyperadd, c.mul
    table = core._Table(n, hyperadd, mul)
    complete = all(check(table) is None for axiom, check in core.AXIOM_CHECKS
                   if axiom in QUADRATIC)
    if table.associative or complete:
        assert table.associative == kr1_holds(mul)
    if not table.suspects or complete and table.associative:
        holds = all(oracle(n, hyperadd, mul) is None
                    for oracle in (ch5_oracle, kr3_oracle, ch1_oracle))
        assert (table.suspects == 0) == holds


def test_order_six_classes_are_proved_by_the_reductions():
    for h in enumerate_hyperfields(6):
        assert assert_matches_oracles(h.candidate).ok
        assert core._Table(h.n, h.hyperadd, h.mul).suspects == 0


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
    the suspects where the six O(n^2) checks pass.  The expansion builds
    in the scaling identity, so the reductions to x = 1 are theorems here.
    Some tables fail CH2 and CH1 with M symmetric, so the theorem needs its
    CH2 premise."""
    count = ch5_failures = decided = unguarded = 0
    for masks, hyperadd in expanded_tables(n, mul):
        count += 1
        if n < 5:
            assert expand_one_row(mul, OneRowMap(n, masks)).hyperadd == tuple(map(tuple, hyperadd))
        table = core._Table(n, hyperadd, mul)
        table.suspects = every_row(n)  # the scans visit every y, trusting no theorem on E
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


def expansion_is_hyperfield_oracle(n, hyperadd, mul):
    """The table is symmetric, each element has one opposite, and CH1
    holds: its transpose and opposites are found by scanning every cell."""
    transpose = [[hyperadd[y][x] for y in range(n)] for x in range(n)]
    opposites = [[y for y in range(n) if 0 in members(n, hyperadd[x][y])] for x in range(n)]
    return (all(list(hyperadd[x]) == transpose[x] for x in range(n))
            and all(len(found) == 1 for found in opposites)
            and ch1_oracle(n, hyperadd, mul) is None)


@pytest.mark.parametrize("n", [3, 4])
def test_suspects_decide_the_expansion_of_every_row_one(n):
    """Every row 1 with v(0) = {1} and each v(z) any nonempty mask, so that
    no z, one z or several hold 0 and row 1 of the expansion E may differ
    from its column 1: most of these are rows one_row_maps() skips.  E is
    its own expansion, so it has no suspect rows exactly when it is a
    hyperfield: symmetric, with unique opposites and CH1, by the oracle.
    The hyperfields are the maps of the 5 and 7 classes: C2 has one
    automorphism, and C3 two, which fix 2 of the 7."""
    (mul,) = abelian_groups(n - 1)
    inv, smul = core.inverses(n, mul), _scalar_tables(n, mul)
    kinds = Counter()  # (verdict, nonzero z with 0 in v(z), at most 2, symmetric)
    for rest in iproduct(range(1, 1 << n), repeat=n - 1):
        hyperadd = core._expand(n, mul, inv, smul, (2, *rest))
        holds = expansion_is_hyperfield_oracle(n, hyperadd, mul)
        assert (core._Table(n, hyperadd, mul).suspects == 0) == holds, rest
        symmetric = all(hyperadd[x][y] == hyperadd[y][x] for x in range(n) for y in range(n))
        kinds[holds, min(sum(m & 1 for m in rest), 2), symmetric] += 1
    assert set(kinds) == {(False, zeros, symmetric) for zeros in range(3)
                          for symmetric in (False, True)} | {(True, 1, True)}
    assert kinds[True, 1, True] == {3: 5, 4: 9}[n]


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


def kr1_expected(c):
    hit = kr1_oracle(c.n, None, c.mul)
    return AxiomResult("KR1", True) if hit is None else AxiomResult("KR1", False, *hit)


PRODUCT_FACTORS = {"k2": lambda: massouros(gf(2)), "m3": lambda: massouros(gf(3)),
                   "m5": lambda: massouros(gf(5)), "pair6": lambda: pair_hyperfield(6),
                   "five": lambda: verified(five_element_candidate())}
PRODUCT_PAIRS = [(a, b) for a in PRODUCT_FACTORS for b in PRODUCT_FACTORS]


@pytest.mark.parametrize("a, b", PRODUCT_PAIRS, ids=[f"{a}x{b}" for a, b in PRODUCT_PAIRS])
def test_lights_test_decides_kr1_on_products(a, b):
    """A product's nonzero part has zero divisors, so it is no group, but
    its 1 and 0 are neutral: Light's test on every greedy generator proves
    KR1, however many generators the axis elements need.  Each one-cell
    change of mul gets the oracle's verdict and witness too."""
    c = product_candidate(PRODUCT_FACTORS[a](), PRODUCT_FACTORS[b]())
    n = c.n
    assert core._Table(n, c.hyperadd, c.mul).associative
    assert verify(c)["KR1"] == kr1_expected(c) == AxiomResult("KR1", True)
    rng = random.Random(f"{a}x{b}")
    for x, y in [(rng.randrange(n), rng.randrange(n))] + [
            (rng.randrange(2, n), rng.randrange(2, n)) for _ in range(4)]:
        v = rng.choice([w for w in range(n) if w != c.mul[x][y]])
        changed = with_cells(c, mul_cells=[((x, y), v)])
        assert verify(changed)["KR1"] == kr1_expected(changed)


def passes_exactly_without_suspects(c):
    """verify(c) passes exactly where c has no suspect rows, and a pass is
    the report of the ten oracles."""
    report = verify(c)
    assert report.ok == (core._Table(c.n, c.hyperadd, c.mul).suspects == 0)
    if report.ok:
        assert report == exhaustive_report(c)
    return report.ok


def test_a_table_passes_exactly_when_it_has_no_suspects(enum_classes):
    """The all-pass report comes from the suspects alone, so no table may
    pass otherwise or fail without suspects: every row 1 at orders 3 and 4
    expanded, each also with one hyperaddition cell changed; the classes at
    orders 2 to 6, each also with one product changed; and the products of
    the factors Light's test is checked on, none of them a hyperfield."""
    rng = random.Random("no suspects")
    verdicts = Counter()
    for n in (3, 4):
        (mul,) = abelian_groups(n - 1)
        inv, smul = core.inverses(n, mul), _scalar_tables(n, mul)
        for rest in iproduct(range(1, 1 << n), repeat=n - 1):
            hyperadd = core._expand(n, mul, inv, smul, (2, *rest))
            c = HyperfieldCandidate(n, tuple(map(tuple, hyperadd)), mul)
            x, y = rng.randrange(n), rng.randrange(n)
            m = rng.choice([m for m in range(1, 1 << n) if m != hyperadd[x][y]])
            verdicts["row 1", passes_exactly_without_suspects(c)] += 1
            changed = with_cells(c, add_cells=[((x, y), m)])
            verdicts["row 1 changed", passes_exactly_without_suspects(changed)] += 1
    classes = {**enum_classes, 6: enumerate_hyperfields(6)}
    for n, found in classes.items():
        for h in found:
            c = h.candidate
            x, y = rng.randrange(n), rng.randrange(n)
            v = rng.choice([w for w in range(n) if w != c.mul[x][y]])
            verdicts["class", passes_exactly_without_suspects(c)] += 1
            changed = with_cells(c, mul_cells=[((x, y), v)])
            verdicts["class changed", passes_exactly_without_suspects(changed)] += 1
    for a, b in PRODUCT_PAIRS:
        c = product_candidate(PRODUCT_FACTORS[a](), PRODUCT_FACTORS[b]())
        verdicts["product", passes_exactly_without_suspects(c)] += 1
    assert verdicts == {  # 5 and 9 maps, and the 2, 5, 7, 27 and 16 classes
        ("row 1", True): 14, ("row 1", False): 3424 - 14, ("row 1 changed", False): 3424,
        ("class", True): 57, ("class changed", False): 57, ("product", False): 25}


def null_magma(n, cells=()):
    """0 absorbing, 1 the identity and x.y = 0 for the rest, then cells
    rewritten: every x >= 2 is a greedy generator."""
    mul = [[0] * n for _ in range(n)]
    for x in range(1, n):
        mul[1][x] = mul[x][1] = x
    for (x, y), v in cells:
        mul[x][y] = v
    return tuple(map(tuple, mul))


@pytest.mark.parametrize("cells", [(), (((6, 7), 6),)], ids=["associative", "6.7=6"])
def test_lights_test_decides_the_null_magma(cells):
    """With more greedy generators than a group of order n-1 can have,
    Light's test still decides, as it takes every one: it proves the null
    magma associative, and with 6.7 = 6 it fails at 7, the last generator,
    as (6.7).7 = 6 and 6.(7.7) = 0, so the scan names that witness."""
    n = 8
    mul = null_magma(n, cells)
    assert len(list(core.greedy_generators(n, mul))) > (n - 1).bit_length()
    hyperadd = tuple(tuple(1 << y for y in range(n)) for _ in range(n))
    c = HyperfieldCandidate(n, hyperadd, mul)
    assert core._Table(n, hyperadd, mul).associative == (not cells)
    assert verify(c)["KR1"] == kr1_expected(c)
    assert verify(c)["KR1"].witness == (None if not cells else (6, 7, 7))


def rebuilt_generators(n, mul):
    """The greedy generators by their definition: for each x, the span of the
    generators so far is rebuilt from 1 along right multiplication, and x is
    one exactly when it lies outside."""
    gens = []
    for x in range(2, n):
        reached = {1}
        walk = [1]
        for a in walk:
            for g in gens:
                if mul[a][g] not in reached:
                    reached.add(mul[a][g])
                    walk.append(mul[a][g])
        if x not in reached:
            gens.append(x)
    return gens


def test_greedy_generators_match_the_rebuilt_span():
    """core.greedy_generators grows the span from each new generator; its
    sequence is that of the definition on every abelian group of order at
    most 32, on S3, on null magmas, and on the order-64 products, whose
    zero divisors make them no group."""
    pair8 = pair_hyperfield(8)
    quotients = [quotient(f, next(g for g in all_subgroups(f) if len(g.closure) == size))
                 for f, size in ((gf(29), 4), (gf(43), 6), (gf(113), 16))]
    tables = [mul for m in range(1, 33) for mul in abelian_groups(m)]
    tables += [symmetric_group_with_zero(), null_magma(8), null_magma(8, (((6, 7), 6),)),
               null_magma(40)]
    tables += [product_candidate(pair8, h).mul for h in (pair8, *quotients)]
    assert {len(mul) for mul in tables[-4:]} == {64}
    for mul in tables:
        n = len(mul)
        assert list(core.greedy_generators(n, mul)) == rebuilt_generators(n, mul)


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
        assert (table.suspects == 0) == (kr3_oracle(n, changed.hyperadd, c.mul) is None)
        verdicts.add(table.suspects == 0)
    assert core._Table(n, c.hyperadd, c.mul).suspects == 0
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
    is not commutative, and the chain has no inverses.  E is built only
    over a commutative group with zero, so every row is a suspect and KR3
    falls back to its scan."""
    n = len(mul)
    rng = random.Random(n)
    for _ in range(30):
        zstar = rng.randrange(1, n)
        v = (2, *(rng.randrange(2, 1 << n, 2) | (z == zstar) for z in range(1, n)))
        hyperadd = core._expand(n, mul, core.inverses(n, mul),
                                *core._row_scalars(tuple(zip(*mul)), v))
        c = HyperfieldCandidate(n, tuple(map(tuple, hyperadd)), mul)
        table = core._Table(n, c.hyperadd, c.mul)
        assert table.associative and table.suspects == every_row(n)
        assert not assert_matches_oracles(c)["KR3"].passed


def test_expand_one_row_scales_by_left_multiplication_over_s3():
    """Over S3, which is not commutative, every cell of expand_one_row's
    table is x (+) y = the union of x.w over w in v(x^-1 y) for x != 0, and
    0 (+) y = {y}, by loops over the group table.  Some cell differs from
    the union of w.x, so columns read for rows would not pass."""
    mul = symmetric_group_with_zero()
    n = len(mul)
    rng = random.Random("S3 rows")
    sides_differ = False
    for _ in range(40):
        zstar = rng.randrange(1, n)
        v = (2, *(rng.randrange(2, 1 << n, 2) | (z == zstar) for z in range(1, n)))
        hyperadd = expand_one_row(mul, OneRowMap(n, v)).hyperadd
        for y in range(n):
            assert members(n, hyperadd[0][y]) == {y}
        for x in range(1, n):
            x_inv = next(w for w in range(1, n) if mul[x][w] == 1)
            for y in range(n):
                scaled = members(n, v[mul[x_inv][y]])
                assert members(n, hyperadd[x][y]) == {mul[x][w] for w in scaled}, (v, x, y)
                sides_differ |= {mul[x][w] for w in scaled} != {mul[w][x] for w in scaled}
    assert sides_differ


@pytest.mark.parametrize("h", [massouros(gf(2, 5)), pair_hyperfield(20),
                               verified(five_element_candidate())],
                         ids=["massouros32", "pair20", "five"])
def test_list_rows_decide_as_tuple_rows(h):
    """A candidate built with list rows gets the same reports as with tuple
    rows, passing and failing, and the passing one has no suspects in
    either form."""
    n = h.n

    def listed(c):
        return HyperfieldCandidate(n, [list(row) for row in c.hyperadd],
                                   [list(row) for row in c.mul])

    for c in (h.candidate, with_cells(h.candidate, add_cells=[((2, 3), 1 << n - 1)]),
              with_cells(h.candidate, mul_cells=[((3, 2), 0)])):
        assert verify(listed(c)) == verify(c)
    for c in (h.candidate, listed(h.candidate)):
        assert core._Table(n, c.hyperadd, c.mul).suspects == 0

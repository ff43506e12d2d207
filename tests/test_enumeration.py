import gc
import importlib.util
import math
import random
import sys
from itertools import combinations, permutations, product as iproduct
from pathlib import Path

import pytest

from hyperfields import (
    BudgetExceededError,
    CapacityError,
    DomainError,
    HyperfieldCandidate,
    OneRowMap,
    SearchOptions,
    StructuralError,
    abelian_groups,
    are_isomorphic,
    enumerate_hyperfields,
    expand_one_row,
    fingerprint,
    from_field,
    gf,
    massouros,
    pair_hyperfield,
    verified,
    verify,
)
from hyperfields import core, enumeration, iso
from conftest import FIVE_MUL, SteppingClock, brute_isomorphic, naive_classes, naive_scaffolds


def assert_is_abelian_group_table(mul):
    n = len(mul)
    nonzero = range(1, n)
    assert all(mul[0][x] == 0 and mul[x][0] == 0 for x in range(n))
    assert all(mul[1][x] == x for x in range(n))
    for x, y in iproduct(nonzero, nonzero):
        assert mul[x][y] == mul[y][x] != 0
    for x, y, z in iproduct(nonzero, nonzero, nonzero):
        assert mul[mul[x][y]][z] == mul[x][mul[y][z]]
    assert all(any(mul[x][y] == 1 for y in nonzero) for x in nonzero)


class TestAbelianGroups:
    def test_counts(self):
        assert len(abelian_groups(1)) == 1
        assert len(abelian_groups(4)) == 2
        assert len(abelian_groups(5)) == 1
        assert len(abelian_groups(6)) == 1
        assert len(abelian_groups(8)) == 3

    def test_trivial_group(self):
        assert abelian_groups(1) == [((0, 0), (0, 1))]

    def test_tables_are_groups(self):
        for m in range(1, 9):
            for mul in abelian_groups(m):
                assert len(mul) == m + 1
                assert_is_abelian_group_table(mul)

    def test_order_four_tables_not_isomorphic(self):
        cyclic, klein = abelian_groups(4)
        orders = []
        for mul in (cyclic, klein):
            elem_orders = []
            for x in range(1, 5):
                y, k = x, 1
                while y != 1:
                    y, k = mul[y][x], k + 1
                elem_orders.append(k)
            orders.append(sorted(elem_orders))
        assert orders[0] != orders[1]

    def test_bounds(self):
        with pytest.raises(CapacityError):
            abelian_groups(0)
        with pytest.raises(CapacityError):
            abelian_groups(9)


class TestOneRowMap:
    def test_validation(self):
        OneRowMap(3, (2, 4, 1))  # v(1)={2}, v(2)={0}: the GF(3) row
        with pytest.raises(StructuralError):
            OneRowMap(3, (1, 4, 1))  # v(0) must be {1}
        with pytest.raises(StructuralError):
            OneRowMap(3, (2, 0, 1))  # empty row
        with pytest.raises(StructuralError):
            OneRowMap(3, (2, 5, 1))  # two rows claim the opposite of 1
        with pytest.raises(StructuralError):
            OneRowMap(3, (2, 4, 4))  # no row contains 0


class TestExpandOneRow:
    def test_gf3_row_expands_to_the_field(self):
        mul = ((0, 0, 0), (0, 1, 2), (0, 2, 1))
        nu = OneRowMap(3, (2, 4, 1))  # 1(+)1 = {2}, 1(+)2 = {0}
        assert expand_one_row(mul, nu) == from_field(gf(3)).candidate

    def test_five_element_row_recovers_the_whole_table(self, five_candidate):
        nu = OneRowMap(5, five_candidate.hyperadd[1])
        assert expand_one_row(FIVE_MUL, nu) == five_candidate

    def test_bad_row_expands_but_fails_verify(self):
        mul = ((0, 0, 0), (0, 1, 2), (0, 2, 1))
        nu = OneRowMap(3, (2, 2, 1))  # 1(+)1 = {1}: reversibility breaks
        c = expand_one_row(mul, nu)
        report = verify(c)
        assert not report.ok
        assert not report["CH5"].passed

    def test_non_group_scaffold_rejected(self):
        with pytest.raises(StructuralError):
            expand_one_row(((0, 0), (0, 0)), OneRowMap(2, (2, 1)))

    @pytest.mark.parametrize("build", [lambda: pair_hyperfield(128),
                                       lambda: massouros(gf(2, 7))],
                             ids=["pair128", "massouros-gf2-7"])
    def test_order_128_rows_expand_to_their_hyperfields(self, build):
        # The expansion scales only the masks of v: a table over all 2^n
        # masks cannot even be allocated at n = 128.
        c = build().candidate
        assert expand_one_row(c.mul, OneRowMap(c.n, c.hyperadd[1])) == c


class TestEnumerate:
    def test_order_two_finds_field_and_krasner(self):
        classes = enumerate_hyperfields(2)
        assert len(classes) == 2
        cells = sorted(h.candidate.cell(1, 1) for h in classes)
        assert cells == [(0,), (0, 1)]

    def test_order_three_count(self):
        assert len(enumerate_hyperfields(3)) == 5

    def test_pairwise_non_isomorphic(self, enum_classes):
        for n in (2, 3, 4):
            classes = enum_classes[n]
            for i, a in enumerate(classes):
                for b in classes[i + 1:]:
                    assert are_isomorphic(a, b) is None

    def test_each_class_keeps_its_first_survivor(self, enum_classes):
        # Survivors of the unpruned walk in scan order, grouped by the
        # brute-force oracle.
        for n in (3, 4, 5):
            kept = []
            for shard in unpruned_shards(n):
                for hyperadd, mul in enumeration._run_shard(shard)[1]:
                    c = HyperfieldCandidate(n, hyperadd, mul)
                    if all(brute_isomorphic(c, k) is None for k in kept):
                        kept.append(c)
            assert sorted(kept, key=repr) == sorted((h.candidate for h in enum_classes[n]), key=repr)

    def test_every_class_passes_the_verifier(self, enum_classes):
        for classes in enum_classes.values():
            for h in classes:
                assert verify(h.candidate).ok

    def test_deterministic_across_runs_and_workers(self):
        one = enumerate_hyperfields(4)
        again = enumerate_hyperfields(4)
        parallel = enumerate_hyperfields(4, SearchOptions(jobs=2))
        assert [h.candidate for h in one] == [h.candidate for h in again]
        assert [h.candidate for h in one] == [h.candidate for h in parallel]

    def test_bounds(self):
        with pytest.raises(CapacityError):
            enumerate_hyperfields(1)
        with pytest.raises(CapacityError):
            enumerate_hyperfields(7)

    def test_budget_exhaustion_reports_progress(self, monkeypatch):
        # One second passes per clock reading, so the first shard is late.
        monkeypatch.setattr(enumeration, "time", SteppingClock(1.0))
        with pytest.raises(BudgetExceededError) as err:
            enumerate_hyperfields(5, SearchOptions(budget_seconds=0.5))
        assert err.value.scanned >= 0 and err.value.survivors >= 0

    def test_progress_lines_on_stderr(self, capsys):
        enumerate_hyperfields(4, SearchOptions(progress_interval=10))
        err = capsys.readouterr().err
        assert "scanned=" in err and "survivors=" in err


def _must_not_run(*args, **kwargs):
    raise AssertionError("the budget must stop the run before this phase")


def _scaled(mul, x, mask):
    """The subset x . mask."""
    image = 0
    for w in range(len(mul)):
        if mask >> w & 1:
            image |= 1 << mul[x][w]
    return image


def slot_oracle(n, mul, zstar):
    """The kernel's free row choices, built from their definition: for a
    self-inverse z, every union of the orbits {w, z.w} of the nonzero
    carrier, with 0 added exactly where z = z*; for z < z^-1, every
    nonempty subset of the nonzero carrier; rows of z > z^-1 are not free."""
    inv = [0] + [next(y for y in range(1, n) if mul[x][y] == 1) for x in range(1, n)]
    slots = []
    for z in range(1, n):
        if inv[z] == z:
            orbits = {frozenset((w, mul[z][w])) for w in range(1, n)}
            unions = [set().union(*chosen) for k in range(len(orbits) + 1)
                      for chosen in combinations(orbits, k)]
            members = [u | {0} if z == zstar else u for u in unions]
        elif z < inv[z]:
            members = [set(chosen) for k in range(1, n)
                       for chosen in combinations(range(1, n), k)]
        else:
            continue
        slots.append((z, tuple(sorted(sum(1 << w for w in u) for u in members if u))))
    return slots


def unpruned_shards(n):
    """Every shard of the walk with the orbit prune off: each group, each z*
    with z*.z* = 1 and each first row, on a set-up with no automorphisms."""
    shards = []
    for mul in abelian_groups(n - 1):
        for zstar in range(1, n):
            if mul[zstar][zstar] == 1:
                pair = enumeration._pair(n, mul, zstar, ())
                shards += [(pair, m, None) for m in pair.slots[0][1]]
    return shards


def shard_maps(shard):
    """Every map v of the shard's slots, in product order, with no pruning;
    the rows of z > z^-1 are scaled from their partners'."""
    pair, first, _ = shard
    n, mul, slots = pair.n, pair.mul, pair.slots
    inv = core.inverses(n, mul)
    for combo in iproduct((first,), *(c for _, c in slots[1:])):
        v = [1 << 1] + [0] * (n - 1)
        for (z, _), m in zip(slots, combo):
            v[z] = m
            v[inv[z]] = _scaled(mul, inv[z], m)
        yield v


def flat_shard(shard):
    """The shard's maps with no pruning, expanded by core._expand and
    filtered by the full CH5 and CH1 scans over every x.  Returns (scanned,
    survivors, CH5 rejections, CH1 rejections)."""
    n, mul = shard[0].n, shard[0].mul
    inv = core.inverses(n, mul)
    scanned, survivors, ch5_rejects, ch1_rejects = 0, [], 0, 0
    for v in shard_maps(shard):
        scanned += 1
        smul, keys = core._row_scalars(mul, v)
        hyperadd = core._expand(n, mul, inv, smul, keys)
        table = core._Table(n, hyperadd, mul)
        table.suspects = (1 << n) - 1  # the scans visit every y, trusting no theorem on E
        if core._ch5_scan(table, range(n)) is not None:
            ch5_rejects += 1
        elif core._ch1_scan(table, range(n)) is not None:
            ch1_rejects += 1
        else:
            survivors.append((tuple(map(tuple, hyperadd)), mul))
    return scanned, survivors, ch5_rejects, ch1_rejects


@pytest.fixture(scope="module")
def flat():
    """Order -> [(shard, flat_shard(shard))] for every unpruned shard at
    orders 3-6."""
    return {n: [(shard, flat_shard(shard)) for shard in unpruned_shards(n)]
            for n in range(3, 7)}


class TestKernelFilters:
    """The kernel prunes on CH5 at x = 1 between pairs of rows and tests its
    leaves by the CH1 symmetry theorem; the flat oracle applies no prune and
    scans every x."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_slots_are_the_orbit_unions(self, n):
        """For every group and opposite z* of 1, orders 2-9, in order; the
        flat oracle takes its maps from _slots too."""
        pairs = 0
        for mul in abelian_groups(n - 1):
            for zstar in (z for z in range(1, n) if mul[z][z] == 1):
                pairs += 1
                assert enumeration._slots(n, mul, core.inverses(n, mul), zstar) == (
                    slot_oracle(n, mul, zstar)), (mul, zstar)
        assert pairs == {2: 1, 3: 2, 4: 1, 5: 6, 6: 1, 7: 2, 8: 1, 9: 14}[n]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_run_shard_equals_the_flat_oracle(self, flat, n):
        for shard, (scanned, survivors, _, _) in flat[n]:
            assert enumeration._run_shard(shard) == (scanned, survivors, False)

    def test_flat_oracle_counts_at_order_six(self, flat):
        scanned, survivors, ch5_rejects, ch1_rejects = map(sum, zip(*(
            (s, len(found), r5, r1) for _, (s, found, r5, r1) in flat[6])))
        # maps, CH5 rejections, maps reaching CH1, CH1 rejections, survivors
        assert (scanned, ch5_rejects, scanned - ch5_rejects, ch1_rejects, survivors) == (
            30752, 30638, 114, 71, 43)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_leaf_test_agrees_with_the_symmetry_test_on_the_expansion(self, n):
        """On every map of every unpruned shard, CH5 passing or not, the
        leaf test decided on the map returns what core's symmetry test
        returns on the map's expansion, its first (a, u) or None."""
        verdicts = set()
        for shard in unpruned_shards(n):
            pair = shard[0]
            for v in shard_maps(shard):
                hit = core._ch1_symmetry(core._expand(n, pair.mul, pair.inv, pair.smul, v))
                assert enumeration.ch1_violation(pair, v) == hit, v
                verdicts.add(hit is None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_leaf_passes_ch5(self, flat, monkeypatch, n):
        """The pair prune is complete: every leaf, expanded from the map the
        leaf test is given, passes the full CH5 scan, and the leaves are
        exactly the flat oracle's maps that pass CH5.  Only the survivors
        of the leaf test are expanded, each once."""
        leaves, expanded = [], []
        test, expand = enumeration.ch1_violation, enumeration._expand

        def collecting(pair, v):
            hyperadd = core._expand(pair.n, pair.mul, pair.inv, pair.smul, v)
            leaves.append(core._Table(pair.n, hyperadd, pair.mul))
            return test(pair, v)

        def counting(*args):
            expanded.append(args[0])
            return expand(*args)

        monkeypatch.setattr(enumeration, "ch1_violation", collecting)
        monkeypatch.setattr(enumeration, "_expand", counting)
        survivors = sum(len(enumeration._run_shard(shard)[1]) for shard, _ in flat[n])
        assert all(core._ch5_scan(t, range(n)) is None for t in leaves)
        assert len(leaves) == sum(s - r5 for _, (s, _, r5, _) in flat[n])
        assert len(expanded) == survivors


def ch5_at_one_holds(mul, zstar, v, rows):
    """CH5 at x = 1 over the rows set so far, straight from mul: z*.y is in
    v(z*.z) whenever z is in v(y), for every y and z whose rows y and z*.z
    are in rows."""
    n = len(mul)
    return all(v[mul[zstar][z]] >> mul[zstar][y] & 1 for y in rows for z in range(n)
               if mul[zstar][z] in rows and v[y] >> z & 1)


class TestForwardChecking:
    """The plan is complete and sound: below any partial map that passes CH5
    at x = 1, the walk admits at the next depth exactly the choices that
    keep it passing.  Partial maps are drawn, seeded, by descending through
    passing choices; the oracle builds rows by scaling and shares no code
    with _pair_checks or the plan."""

    @pytest.mark.parametrize("n", range(3, 8))
    def test_admitted_choices_are_those_passing_ch5(self, n):
        rng = random.Random(n)
        checked = {}
        for mul in abelian_groups(n - 1):
            inv = [0] + [next(y for y in range(1, n) if mul[x][y] == 1) for x in range(1, n)]
            for zstar in (z for z in range(1, n) if mul[z][z] == 1):
                pair = enumeration._pair(n, mul, zstar, ())
                slots = slot_oracle(n, mul, zstar)

                def passing(v, rows, z, choices):
                    found = []
                    for m in choices:
                        v[z], v[inv[z]] = m, _scaled(mul, inv[z], m)
                        if ch5_at_one_holds(mul, zstar, v, rows | {z, inv[z]}):
                            found.append(m)
                    v[z] = v[inv[z]] = 0
                    return found

                for d, (key, choices) in enumerate(slots):
                    checked[mul, zstar, d] = 0
                    for _ in range(20):
                        v, rows = [1 << 1] + [0] * (n - 1), {0}
                        for z, above in slots[:d]:
                            options = passing(v, rows, z, above)
                            if not options:
                                break
                            m = rng.choice(options)
                            v[z], v[inv[z]] = m, _scaled(mul, inv[z], m)
                            rows |= {z, inv[z]}
                        else:
                            expected = passing(v, rows, key, choices)
                            assert enumeration._admitted(pair, d, v) == expected, (mul, zstar, d, v)
                            checked[mul, zstar, d] += 1
        assert min(checked.values()) >= 10, checked


def brute_automorphisms(mul):
    """Every permutation of the carrier that fixes 0 and 1 and preserves
    mul, found by trying all of them."""
    n = len(mul)
    found = []
    for rest in permutations(range(2, n)):
        s = (0, 1, *rest)
        if all(s[mul[x][y]] == mul[s[x]][s[y]] for x in range(1, n) for y in range(1, n)):
            found.append(s)
    return found


def fixes(s, v):
    """Is s.v.s^-1 = v, each mask's image under s built bit by bit?"""
    n = len(v)
    return all(sum(1 << s[w] for w in range(n) if v[z] >> w & 1) == v[s[z]] for z in range(n))


def walk(shards):
    """The survivors of the shards, in scan order."""
    return [found for shard in shards for found in enumeration._run_shard(shard)[1]]


@pytest.fixture(scope="module")
def unpruned():
    """Order -> the survivors of the unpruned walk, in scan order, orders 2-8."""
    return {n: walk(unpruned_shards(n)) for n in range(2, 9)}


@pytest.fixture(scope="module")
def classes():
    """Order -> enumerate_hyperfields(n) at orders 2-8, the cap patched in
    process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "MAX_ENUM_ORDER", 8)
        return {n: enumerate_hyperfields(n) for n in range(2, 9)}


class TestOrbitPrune:
    """The walk keeps the least map of each Aut(G)-orbit.  The oracles are
    the unpruned walk (the same kernel on set-ups with no automorphisms)
    grouped by the search-based fingerprint, and Burnside's count over
    automorphisms found by brute force."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_burnside_count(self, unpruned, classes, n):
        """Per group, the classes number the mean over sigma in Aut(G) of
        the unpruned survivors v with sigma.v.sigma^-1 = v."""
        for mul in abelian_groups(n - 1):
            autos = brute_automorphisms(mul)
            fixed = sum(fixes(s, hyperadd[1]) for hyperadd, survivor_mul in unpruned[n]
                        if survivor_mul == mul for s in autos)
            assert fixed == len(autos) * sum(h.mul == mul for h in classes[n]), mul

    @pytest.mark.parametrize("n, count", [(2, 2), (3, 5), (4, 7), (5, 27), (6, 16),
                                          (7, 277), (8, 178)])
    def test_survivors_are_the_first_of_each_unpruned_class(self, unpruned, classes, n, count):
        """One survivor per class: the pruned survivors are the first
        unpruned survivor of each fingerprint, in the same order, and
        enumerate_hyperfields returns those firsts sorted by fingerprint."""
        wrapped = [verified(HyperfieldCandidate(n, hyperadd, mul))
                   for hyperadd, mul in unpruned[n]]
        first = {}
        for found, h in zip(unpruned[n], wrapped):
            first.setdefault(fingerprint(h), found)
        pruned = walk(enumeration._shards(n, abelian_groups(n - 1), None))
        assert pruned == list(first.values())
        assert len(pruned) == len(classes[n]) == count
        assert [h.candidate for h in classes[n]] == [
            HyperfieldCandidate(n, *first[k]) for k in sorted(first)]

    def test_classes_are_their_own_fingerprint_keys(self, classes, monkeypatch):
        """At orders 2-8 each class's own key, z* and then v(z) for each
        z <= z^-1 ascending, is the key of its search-based fingerprint, and
        the classes come in strictly ascending fingerprint order.  So once
        the shards are built, enumeration needs no isomorphism search."""
        for n, found in classes.items():
            prints = [fingerprint(h) for h in found]
            for h, (_, _, key) in zip(found, prints):
                v, mul = h.hyperadd[1], h.mul
                inv = [0] + [next(y for y in range(1, n) if mul[x][y] == 1) for x in range(1, n)]
                zstar = next(z for z in range(1, n) if v[z] & 1)
                assert key == (zstar, *(v[z] for z in range(1, n) if z <= inv[z]))
            assert all(a < b for a, b in zip(prints, prints[1:])), n

        shards = enumeration._shards

        def shards_then_no_search(*args):
            built = shards(*args)
            monkeypatch.setattr(enumeration, "fingerprint", _must_not_run)
            monkeypatch.setattr(iso, "group_isomorphisms", _must_not_run)
            return built

        monkeypatch.setattr(enumeration, "_shards", shards_then_no_search)
        assert [len(enumerate_hyperfields(n)) for n in (5, 6)] == [27, 16]

    def test_shards_leave_no_cyclic_garbage(self):
        """Every order-6 shard, pruned and unpruned, frees what it builds by
        reference counting."""
        gc.collect()
        gc.disable()
        try:
            for shard in enumeration._shards(6, abelian_groups(5), None) + unpruned_shards(6):
                enumeration._run_shard(shard)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBudget:
    """The module's clock is faked, so the budget runs out exactly where a
    test puts it."""

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = SteppingClock()
        monkeypatch.setattr(enumeration, "time", clock)
        return clock

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), 0.0, -1.0])
    def test_budget_must_be_positive_and_finite(self, monkeypatch, budget):
        monkeypatch.setattr(enumeration, "_shards", _must_not_run)
        with pytest.raises(DomainError):
            enumerate_hyperfields(3, SearchOptions(budget_seconds=budget))

    def test_checked_before_survivor_verification(self, clock, monkeypatch):
        scan = enumeration._run_shard

        def scan_then_expire(args):
            clock.now = 0.0
            found = scan(args)
            clock.now = 100.0
            return found

        monkeypatch.setattr(enumeration, "_run_shard", scan_then_expire)
        monkeypatch.setattr(enumeration, "verified", _must_not_run)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_hyperfields(5, SearchOptions(budget_seconds=10.0))
        assert (err.value.scanned, err.value.survivors) == (1812, 27)

    def test_deadline_inside_a_shard_walk(self, clock, monkeypatch):
        # Every node polls the clock, which moves on 1 s per reading, so
        # the deadline passes at the fourth node of the first shard.
        monkeypatch.setattr(enumeration, "_BUDGET_STRIDE", 1)
        clock.step = 1.0
        pair, first, _ = enumeration._shards(6, abelian_groups(5), None)[0]
        full = math.prod(len(c) for _, c in pair.slots[1:])
        scanned, _, timed_out = enumeration._run_shard((pair, first, 4.5))
        assert timed_out and 0 < scanned < full

        clock.now = 0.0  # one worker: the shards run in this process
        with pytest.raises(BudgetExceededError) as err:
            enumerate_hyperfields(6, SearchOptions(budget_seconds=4.5))
        assert err.value.scanned == scanned

    def test_checked_before_dedup(self, clock, monkeypatch):
        verify_survivor = enumeration.verified

        def verify_then_expire(c):
            clock.now = 100.0
            return verify_survivor(c)

        monkeypatch.setattr(enumeration, "verified", verify_then_expire)
        monkeypatch.setattr(enumeration, "fingerprint", _must_not_run)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_hyperfields(5, SearchOptions(budget_seconds=10.0))
        assert (err.value.scanned, err.value.survivors) == (1812, 27)


class TestWorkerPool:
    """The pool is replaced by a fake that records its size and maps in
    process, so no test here starts a worker."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize("n, count", [(2, 2), (3, 5), (4, 7)])
    def test_pool_is_no_larger_than_the_shard_count(self, pool_sizes, n, count):
        shards = enumeration._shards(n, abelian_groups(n - 1), None)
        assert len(enumerate_hyperfields(n, SearchOptions(jobs=5000))) == count
        assert pool_sizes == [len(shards)]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_a_domain_error(self, pool_sizes, jobs):
        with pytest.raises(DomainError):
            enumerate_hyperfields(3, SearchOptions(jobs=jobs))
        assert pool_sizes == []

    def test_progress_reports_each_shard_as_it_finishes(self, pool_sizes, monkeypatch, capsys):
        """With a pool, each shard's progress line is out before the next
        shard's result is taken, so the rate and ETA are live."""
        lines, seen = [], []
        run = enumeration._run_shard

        def recording(shard):
            lines.extend(capsys.readouterr().err.splitlines())
            seen.append(len(lines))
            return run(shard)

        monkeypatch.setattr(enumeration, "_run_shard", recording)
        enumerate_hyperfields(4, SearchOptions(jobs=2, progress_interval=1))
        lines.extend(capsys.readouterr().err.splitlines())
        assert pool_sizes == [2] and seen == list(range(len(lines))) and len(lines) > 1

    def test_negative_progress_interval_is_a_domain_error(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(enumeration, "_shards", _must_not_run)
        with pytest.raises(DomainError, match="progress interval"):
            enumerate_hyperfields(3, SearchOptions(jobs=2, progress_interval=-3))
        assert pool_sizes == []


class TestNaiveOracle:
    """End-to-end validation of the one-row reduction: enumerate raw tables
    with no reduction at all and compare isomorphism classes."""

    def test_identity_rows_are_forced(self):
        # The naive oracle pins row/column 0; check the verifier really
        # rejects any deviation, so the pinning loses no structures.
        rows = [[1 << y for y in range(3)] for _ in range(3)]
        rows[0][1] = 0b110  # 0(+)1 = {1,2}
        rows[1][0] = 0b110
        from hyperfields import HyperfieldCandidate
        c = HyperfieldCandidate(3, tuple(map(tuple, rows)),
                                ((0, 0, 0), (0, 1, 2), (0, 2, 1)))
        report = verify(c)
        assert not report["CH3"].passed

    def test_mul_scaffold_is_exhausted(self):
        # All 2**4 and 3**9 multiplication tables, filtered by the
        # multiplicative axioms alone, leave exactly the group scaffold.
        assert naive_scaffolds(2) == [((0, 0), (0, 1))]
        assert naive_scaffolds(3) == [((0, 0, 0), (0, 1, 2), (0, 2, 1))]

    def test_order_two_matches(self, enum_classes):
        naive = naive_classes(2)
        pruned = enum_classes[2]
        assert len(naive) == len(pruned) == 2
        for c in naive:
            assert sum(brute_isomorphic(c, h.candidate) is not None
                       for h in pruned) == 1


class TestEnumerationIsExhaustive:
    def test_synthesized_orders_appear_among_the_classes(self, enum_classes):
        from hyperfields import hyperfield_of_order
        classes = dict(enum_classes)
        classes[6] = enumerate_hyperfields(6)
        for n in range(2, 7):
            h = hyperfield_of_order(n)
            assert sum(are_isomorphic(h, rep) is not None
                       for rep in classes[n]) == 1

    def test_quotients_appear_among_the_classes(self, enum_classes):
        from hyperfields import quotient, subgroup_closure
        f = gf(5)
        h = quotient(f, subgroup_closure(f, (4,)))
        assert any(are_isomorphic(h, rep) is not None for rep in enum_classes[3])


def test_walk_above_cap_script(monkeypatch, capsys):
    """scripts/walk_above_cap.py prints the walk's counts at orders 7 and 8
    (those of TestOrbitPrune) and leaves both caps as it found them.  The
    group cap starts at 6 here, so order 8 has to raise it."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "walk_above_cap.py"
    spec = importlib.util.spec_from_file_location("walk_above_cap", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["walk_above_cap.py", "--orders", "7", "8"])
    monkeypatch.setattr(enumeration, "MAX_GROUP_ORDER", 6)
    script.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], r[1], r[2], r[4]) for r in rows] == [
        ("7", "2,349,648", "277", "277"), ("8", "57,354,724", "178", "178")]
    assert enumeration.MAX_ENUM_ORDER == 6
    assert enumeration.MAX_GROUP_ORDER == 6


def test_reproduce_counts_script(monkeypatch, capsys):
    """scripts/reproduce_counts.py prints the class count of each order
    from 2 to 6: 2, 5, 7, 27 and 16."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_counts.py"
    spec = importlib.util.spec_from_file_location("reproduce_counts", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["reproduce_counts.py"])
    script.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("2", "2"), ("3", "5"), ("4", "7"), ("5", "27"), ("6", "16")]

import math
from itertools import product as iproduct

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
    from_field,
    gf,
    massouros,
    pair_hyperfield,
    verify,
)
from hyperfields import core, enumeration
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
        # Survivors in scan order, grouped by the brute-force oracle.
        for n in (3, 4, 5):
            kept = []
            for shard in enumeration._shards(n, abelian_groups(n - 1), None):
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


def flat_shard(shard):
    """The shard's maps with no pruning: every map of its slots in product
    order, expanded by core._expand and filtered by the full CH5 and CH1
    scans over every x.  Returns (scanned, survivors, CH5 rejections, CH1
    rejections)."""
    n, mul, zstar, first_idx, _ = shard
    inv = core.inverses(n, mul)
    slots = enumeration._slots(n, mul, inv, zstar)
    choices = [(slots[0][1][first_idx],)] + [c for _, c in slots[1:]]
    survivors, ch5_rejects, ch1_rejects = [], 0, 0
    for combo in iproduct(*choices):
        v = [1 << 1] + [0] * (n - 1)
        for (z, _), m in zip(slots, combo):
            v[z] = m
            v[inv[z]] = _scaled(mul, inv[z], m)
        smul, keys = core._row_scalars(mul, v)
        hyperadd = core._expand(n, mul, inv, smul, keys)
        table = core._Table(n, hyperadd, mul)
        if core._ch5_scan(table, range(n)) is not None:
            ch5_rejects += 1
        elif core._ch1_scan(table, range(n)) is not None:
            ch1_rejects += 1
        else:
            survivors.append((tuple(map(tuple, hyperadd)), mul))
    return math.prod(map(len, choices)), survivors, ch5_rejects, ch1_rejects


@pytest.fixture(scope="module")
def flat():
    """Order -> [(shard, flat_shard(shard))] for every shard at orders 3-6."""
    return {n: [(shard, flat_shard(shard))
                for shard in enumeration._shards(n, abelian_groups(n - 1), None)]
            for n in range(3, 7)}


class TestKernelFilters:
    """The kernel prunes on CH5 at x = 1 between pairs of rows and tests its
    leaves by the CH1 symmetry theorem; the flat oracle applies no prune and
    scans every x."""

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
    def test_every_leaf_passes_ch5(self, flat, monkeypatch, n):
        """The pair prune is complete: every expanded leaf passes the full
        CH5 scan, and the leaves are exactly the flat oracle's maps that
        pass CH5."""
        leaves = []
        expand = enumeration._expand

        def collecting(n, mul, *args):
            hyperadd = expand(n, mul, *args)
            leaves.append(core._Table(n, hyperadd, mul))
            return hyperadd

        monkeypatch.setattr(enumeration, "_expand", collecting)
        for shard, _ in flat[n]:
            enumeration._run_shard(shard)
        assert all(core._ch5_scan(t, range(n)) is None for t in leaves)
        assert len(leaves) == sum(s - r5 for _, (s, _, r5, _) in flat[n])


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
        assert (err.value.scanned, err.value.survivors) == (3672, 48)

    def test_deadline_inside_a_shard_walk(self, clock, monkeypatch):
        # Every node polls the clock, which moves on 1 s per reading, so
        # the deadline passes at the fourth node of the first shard.
        monkeypatch.setattr(enumeration, "_BUDGET_STRIDE", 1)
        clock.step = 1.0
        n, mul, zstar, first_idx, _ = enumeration._shards(6, abelian_groups(5), None)[0]
        full = math.prod(len(c) for _, c in enumeration._slots(
            n, mul, core.inverses(n, mul), zstar)[1:])
        scanned, _, timed_out = enumeration._run_shard((n, mul, zstar, first_idx, 4.5))
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
        assert (err.value.scanned, err.value.survivors) == (3672, 48)


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

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from hyperfields import (
    PreconditionError,
    abelian_groups,
    are_isomorphic,
    fingerprint,
    from_field,
    gf,
    is_isomorphism,
    massouros,
    pair_hyperfield,
    relabel,
    verified,
)
from hyperfields.core import group_isomorphisms, span
from conftest import brute_isomorphic, preserves_structure


@st.composite
def perms_fixing_0_and_1(draw, n):
    tail = draw(st.permutations(list(range(2, n))))
    return (0, 1, *tail)


class TestFingerprint:
    @given(perm=perms_fixing_0_and_1(5))
    @settings(max_examples=24, deadline=None)
    def test_invariant_under_relabeling(self, perm):
        from conftest import five_element_candidate
        five = verified(five_element_candidate())
        other = verified(relabel(five.candidate, perm))
        assert fingerprint(five) == fingerprint(other)

    def test_field_and_massouros_differ(self):
        assert fingerprint(from_field(gf(3))) != fingerprint(massouros(gf(3)))

    def test_five_element_one_row_reaches_the_carrier(self, five):
        n, orders, row = fingerprint(five)
        assert (n, orders) == (5, (1, 2, 4, 4))
        assert (1 << 5) - 1 in row

    def test_requires_verified(self, five_candidate):
        with pytest.raises(PreconditionError):
            fingerprint(five_candidate)


class TestAreIsomorphic:
    def test_reflexive_with_identity_witness(self, five):
        w = are_isomorphic(five, five)
        assert w is not None and w.mapping == (0, 1, 2, 3, 4)

    def test_finds_frobenius_style_relabel(self):
        h = massouros(gf(2, 2))
        swapped = verified(relabel(h.candidate, (0, 1, 3, 2)))
        w = are_isomorphic(h, swapped)
        assert w is not None
        assert preserves_structure(h.candidate, swapped.candidate, w.mapping)

    def test_field_vs_massouros_gf5(self):
        assert are_isomorphic(from_field(gf(5)), massouros(gf(5))) is None

    def test_order_mismatch(self):
        assert are_isomorphic(massouros(gf(2)), massouros(gf(3))) is None

    def test_requires_verified(self, five, five_candidate):
        with pytest.raises(PreconditionError):
            are_isomorphic(five, five_candidate)

    def test_symmetric_verdicts(self, enum_classes):
        classes = enum_classes[4]
        for a in classes:
            for b in classes:
                assert (are_isomorphic(a, b) is None) == (are_isomorphic(b, a) is None)

    def test_transitive_on_relabel_chain(self, five):
        b = verified(relabel(five.candidate, (0, 1, 3, 4, 2)))
        c = verified(relabel(b.candidate, (0, 1, 2, 4, 3)))
        assert are_isomorphic(five, b) is not None
        assert are_isomorphic(b, c) is not None
        assert are_isomorphic(five, c) is not None

    def test_witness_soundness_on_enumeration(self, enum_classes):
        for n in (2, 3, 4):
            for h in enum_classes[n]:
                for perm in [(0, 1, *range(2, n))]:
                    other = verified(relabel(h.candidate, perm))
                    w = are_isomorphic(h, other)
                    assert w is not None
                    assert preserves_structure(h.candidate, other.candidate, w.mapping)

    def test_fingerprint_mismatch_implies_none(self, enum_classes):
        for n in (3, 4):
            classes = enum_classes[n]
            for i, a in enumerate(classes):
                for b in classes[i + 1:]:
                    if fingerprint(a) != fingerprint(b):
                        assert are_isomorphic(a, b) is None


class TestBruteForceAgreement:
    def test_verdicts_match_on_small_orders(self, enum_classes):
        for n in (2, 3, 4):
            classes = enum_classes[n]
            for i, a in enumerate(classes):
                for j, b in enumerate(classes):
                    fast = are_isomorphic(a, b)
                    slow = brute_isomorphic(a.candidate, b.candidate)
                    assert (fast is None) == (slow is None)
                    assert (fast is None) == (i != j)

    def test_positive_cases_against_relabels(self, enum_classes):
        for h in enum_classes[4]:
            other = verified(relabel(h.candidate, (0, 1, 3, 2)))
            assert brute_isomorphic(h.candidate, other.candidate) is not None
            assert are_isomorphic(h, other) is not None


def _relabelled_copies(h, count, seed):
    """count verified copies of h under seeded relabellings fixing 0 and 1."""
    rng = random.Random(seed)
    copies = []
    for _ in range(count):
        tail = list(range(2, h.n))
        rng.shuffle(tail)
        copies.append(verified(relabel(h.candidate, (0, 1, *tail))))
    return copies


class TestCanonicalFormOracle:
    """fingerprint is a complete invariant and are_isomorphic returns the
    first isomorphism, both checked against brute_isomorphic, which tries
    every bijection fixing 0 in lexicographic order and shares no code with
    the package."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equal_fingerprints_exactly_when_isomorphic(self, enum_classes, n):
        pool = []
        for i, h in enumerate(enum_classes[n]):
            pool += [h, *_relabelled_copies(h, 2, f"fp{n}:{i}")]
        keys = [fingerprint(h) for h in pool]
        for i, a in enumerate(pool):
            for j in range(i, len(pool)):
                same = brute_isomorphic(a.candidate, pool[j].candidate) is not None
                assert (keys[i] == keys[j]) == same

    def test_order_32_constructions_stay_apart(self):
        # The multiset of cell sizes is invariant under any bijection, so
        # differing multisets already rule out an isomorphism.
        bases = [massouros(gf(2, 5)), pair_hyperfield(32)]
        sizes = [sorted(m.bit_count() for row in h.hyperadd for m in row) for h in bases]
        assert sizes[0] != sizes[1]
        keys = []
        for i, h in enumerate(bases):
            keys.append(fingerprint(h))
            for copy in _relabelled_copies(h, 2, f"fp32:{i}"):
                assert fingerprint(copy) == keys[i]
        assert keys[0] != keys[1]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_witness_is_the_first_isomorphism(self, enum_classes, n):
        for i, h in enumerate(enum_classes[n]):
            group = [h, *_relabelled_copies(h, 2, f"w{n}:{i}")]
            for a in group:
                for b in group:
                    w = are_isomorphic(a, b)
                    assert w is not None
                    assert w.mapping == brute_isomorphic(a.candidate, b.candidate)


class TestIsIsomorphism:
    def test_accepts_identity_on_equal_tables(self, five):
        assert is_isomorphism(five.candidate, five.candidate, (0, 1, 2, 3, 4))

    def test_rejects_wrong_map(self, five):
        assert not is_isomorphism(five.candidate, five.candidate, (0, 1, 3, 2, 4))

    @pytest.mark.parametrize("perm", [(0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (0, 1, 2, 3, 5)],
                             ids=["constant-zero", "repeated-entry", "out-of-range"])
    def test_rejects_maps_that_are_not_bijections(self, five, perm):
        assert not is_isomorphism(five.candidate, five.candidate, perm)


# --- slow oracles for the group helpers ------------------------------------


def _relabel_mul(mul, perm):
    n = len(mul)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[mul[a][b]]
    return out


def _brute_group_isomorphisms(mul1, mul2):
    """Every permutation fixing 0 that carries products to products."""
    n = len(mul1)
    found = set()
    for tail in permutations(range(1, n)):
        perm = (0, *tail)
        if all(perm[mul1[a][b]] == mul2[perm[a]][perm[b]]
               for a in range(n) for b in range(n)):
            found.add(perm)
    return found


def _fixed_point_closure(mul, gens):
    closed = {1, *gens}
    while True:
        grown = closed | {mul[a][b] for a in closed for b in closed}
        if grown == closed:
            return closed
        closed = grown


GROUP_TABLES = [(m, i, mul) for m in range(1, 8) for i, mul in enumerate(abelian_groups(m))]


class TestGroupOracles:
    """core.group_isomorphisms and core.span against exhaustive searches
    that share no code with the package, for every abelian group of order
    at most 7."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_group_isomorphisms_match_all_permutations(self, m):
        rng = random.Random(m)
        tables = abelian_groups(m)
        for mul1 in tables:
            for mul2 in tables:
                tail = list(range(2, m + 1))
                rng.shuffle(tail)
                other = _relabel_mul(mul2, (0, 1, *tail))
                fast = list(group_isomorphisms(m + 1, mul1, other))
                assert len(fast) == len(set(fast))
                assert set(fast) == _brute_group_isomorphisms(mul1, other)
                assert bool(fast) == (mul1 == mul2)

    @pytest.mark.parametrize("m, i, mul", GROUP_TABLES,
                             ids=[f"m{m}-{i}" for m, i, _ in GROUP_TABLES])
    def test_span_matches_fixed_point_closure(self, m, i, mul):
        for size in range(m + 1):
            for gens in combinations(range(1, m + 1), size):
                walked = span(mul, gens)
                assert walked[0] == 1 and len(walked) == len(set(walked))
                assert set(walked) == _fixed_point_closure(mul, gens)

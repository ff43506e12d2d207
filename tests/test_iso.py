import gc
import random
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from hyperfields import (
    HyperfieldCandidate,
    PreconditionError,
    StructuralError,
    abelian_groups,
    are_isomorphic,
    fingerprint,
    from_field,
    gf,
    is_isomorphism,
    massouros,
    pair_hyperfield,
    quotient,
    relabel,
    subgroup_closure,
    verified,
)
from hyperfields import galois, iso
from hyperfields.core import element_orders, greedy_generators, group_isomorphisms, span
from conftest import brute_isomorphic, mutated_five, preserves_structure


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

    def test_second_call_builds_no_group_table(self, monkeypatch):
        h = massouros(gf(2, 3))
        first = fingerprint(h)

        def must_not_build(*args):
            raise AssertionError("the group tables of this order are already built")

        monkeypatch.setattr(galois, "_partitions", must_not_build)
        monkeypatch.setattr(galois, "element_orders", must_not_build)
        assert fingerprint(h) == first
        tables = galois.abelian_group_tables(7)
        assert isinstance(tables, tuple) and tables is galois.abelian_group_tables(7)


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


def _with_list_rows(c, mul_cells=()):
    """c with list rows, as a table built by hand has, and the given mul
    cells overwritten."""
    mul = [list(row) for row in c.mul]
    for (x, y), value in mul_cells:
        mul[x][y] = value
    return HyperfieldCandidate(c.n, [list(row) for row in c.hyperadd], mul)


def _inverse(perm):
    back = [0] * len(perm)
    for i, p in enumerate(perm):
        back[p] = i
    return tuple(back)


# Tables that verify() rejects: cells robbed or grown on one side only, a
# zero-row cell grown (CH3), and a mul cell rewritten.
UNVERIFIED = {
    "one-sided": _with_list_rows(mutated_five({(1, 2): [1]})),
    "grown-and-robbed": _with_list_rows(mutated_five({(2, 3): [0, 4], (4, 1): [2]})),
    "zero-row": _with_list_rows(mutated_five({(0, 3): [2, 3]})),
    "mul-cell": _with_list_rows(mutated_five({(1, 4): [0, 4]}), [((2, 3), 0)]),
}
# Bijections that move 0 and 1; all but the last are not involutions, so a
# relabelling through perm where its inverse belongs shows.
MOVING_PERMS = [(1, 2, 3, 4, 0), (2, 0, 1, 4, 3), (4, 3, 0, 2, 1), (3, 0, 4, 1, 2),
                (1, 0, 3, 2, 4)]


def _iso_pair_bases():
    """The base hyperfields of the bench's iso_pairs workload."""
    f = gf(173)
    return {"massouros32": massouros(gf(2, 5)), "pair44": pair_hyperfield(44),
            "quotient173": quotient(f, subgroup_closure(f, (pow(3, 43, 173),)))}


ISO_PAIR_BASES = _iso_pair_bases()


class TestRelabelAgainstOracle:
    """relabel and is_isomorphism against conftest.preserves_structure,
    which re-checks both tables cell by cell with plain sets."""

    @pytest.mark.parametrize("name", UNVERIFIED)
    @pytest.mark.parametrize("perm", MOVING_PERMS)
    def test_relabel_preserves_unverified_tables(self, name, perm):
        c = UNVERIFIED[name]
        moved = relabel(c, perm)
        assert preserves_structure(c, moved, perm)
        assert is_isomorphism(c, moved, perm)
        back = _inverse(perm)
        assert relabel(moved, back).hyperadd == tuple(map(tuple, c.hyperadd))
        assert is_isomorphism(moved, c, back)

    def test_a_table_with_an_empty_cell_is_no_candidate(self):
        """relabel is never handed an empty cell: the table is refused when
        it is built."""
        with pytest.raises(StructuralError, match="hyperaddition cell empty or out of range"):
            mutated_five({(3, 3): []})

    @pytest.mark.parametrize("name", UNVERIFIED)
    def test_is_isomorphism_agrees_with_the_oracle_on_every_map(self, name):
        c = UNVERIFIED[name]
        for sigma in MOVING_PERMS:
            moved = relabel(c, sigma)
            verdicts = set()
            for perm in permutations(range(5)):
                fast = is_isomorphism(c, moved, perm)
                assert fast == preserves_structure(c, moved, perm), (sigma, perm)
                verdicts.add(fast)
            assert verdicts == {True, False}
            if sigma != _inverse(sigma):
                assert not is_isomorphism(c, moved, _inverse(sigma))

    @pytest.mark.parametrize("name", ISO_PAIR_BASES)
    def test_relabelled_iso_pair_bases(self, name):
        h = ISO_PAIR_BASES[name]
        n = h.n
        rng = random.Random(name)
        tail = list(range(2, n))
        rng.shuffle(tail)
        full = list(range(n))
        rng.shuffle(full)
        for perm in ((0, 1, *tail), tuple(full)):
            moved = relabel(h.candidate, perm)
            assert preserves_structure(h.candidate, moved, perm)
            assert is_isomorphism(h, moved, perm)
            assert not is_isomorphism(h, moved, _inverse(perm))
            assert not preserves_structure(h.candidate, moved, _inverse(perm))


class TestDecodeOnce:
    """fingerprint and are_isomorphic decode the masks of row 1 once per
    call, however many group isomorphisms they try."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = iso._members

        def counting(hyperadd):
            calls.append([list(row) for row in hyperadd])
            return real(hyperadd)

        monkeypatch.setattr(iso, "_members", counting)
        return calls

    def test_row_one_decoded_once_per_call(self, monkeypatch):
        h = massouros(gf(2, 6))
        n = h.n
        tail = list(range(2, n))
        random.Random(64).shuffle(tail)
        other = verified(relabel(h.candidate, (0, 1, *tail)))
        assert len(list(group_isomorphisms(n, h.mul, h.mul))) == 36
        calls = self._counted(monkeypatch)
        assert fingerprint(h) == fingerprint(other)
        assert calls == [[list(h.hyperadd[1])], [list(other.hyperadd[1])]]
        calls.clear()
        assert are_isomorphic(h, other) is not None
        assert calls == [[list(h.hyperadd[1])]]


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
                assert len(fast) == len(set(fast)) and fast == sorted(fast)
                assert set(fast) == _brute_group_isomorphisms(mul1, other)
                assert bool(fast) == (mul1 == mul2)

    @pytest.mark.parametrize("m", [*range(1, 13), 16, 24, 27, 32])
    def test_element_orders_match_repeated_products(self, m):
        rng = random.Random(m)
        for mul in galois.abelian_group_tables(m):
            tail = list(range(2, m + 1))
            rng.shuffle(tail)
            for table in (mul, _relabel_mul(mul, (0, 1, *tail))):
                expected = [0]
                for x in range(1, m + 1):
                    y, k = x, 1
                    while y != 1:
                        y, k = table[y][x], k + 1
                    expected.append(k)
                assert element_orders(m + 1, table) == expected

    @pytest.mark.parametrize("m, i, mul", GROUP_TABLES,
                             ids=[f"m{m}-{i}" for m, i, _ in GROUP_TABLES])
    def test_span_matches_fixed_point_closure(self, m, i, mul):
        for size in range(m + 1):
            for gens in combinations(range(1, m + 1), size):
                walked = span(mul, gens)
                assert walked[0] == 1 and len(walked) == len(set(walked))
                assert set(walked) == _fixed_point_closure(mul, gens)


def test_isomorphism_searches_leave_no_cyclic_garbage():
    """A search abandoned at its first witness frees everything by reference
    counting, so are_isomorphic does not feed the cyclic collector."""
    h = massouros(gf(2, 4))
    other = verified(relabel(h.candidate, (0, 1, *range(h.n - 1, 1, -1))))
    gc.collect()
    gc.disable()
    try:
        next(group_isomorphisms(h.n, h.mul, other.mul))
        assert are_isomorphic(h, other) is not None
        assert are_isomorphic(h, h) is not None
        fingerprint(h)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- the search refined by colours -------------------------------------------


def _keeps(colours, perm):
    c1, c2 = colours
    return all(c1[x] == c2[p] for x, p in enumerate(perm))


def _colourings(rng, n, uncoloured):
    """Seeded pairs of colourings by small ints: independent ones, which
    few isomorphisms keep, and ones pulled through a random isomorphism,
    which at least that one keeps."""
    pairs = []
    for k in (1, 2, 3):
        for _ in range(4):
            pairs.append(([rng.randrange(-1, k) for _ in range(n)],
                          [rng.randrange(-1, k) for _ in range(n)]))
        if uncoloured:
            perm = rng.choice(uncoloured)
            c1 = [rng.randrange(-1, k) for _ in range(n)]
            c2 = [0] * n
            for x, p in enumerate(perm):
                c2[p] = c1[x]
            pairs.append((c1, c2))
    return pairs


def _along_edges_calls(search):
    """The maps of a search, and how many partial choices it extended:
    the calls of its along_edges step, counted by a profile hook."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "along_edges":
            calls.append(None)

    sys.setprofile(profile)
    try:
        found = list(search)
    finally:
        sys.setprofile(None)
    return found, len(calls)


def _quotient(p, s):
    """GF(p) modulo its subgroup of order s: 1 + (p-1)/s elements."""
    f = gf(p)
    return quotient(f, subgroup_closure(f, (element_orders(p, f.mul).index(s),)))


def _first_uncoloured(a, b):
    """The first map of the uncoloured search that preserves both tables."""
    for perm in group_isomorphisms(a.n, a.mul, b.mul):
        if is_isomorphism(a, b, perm):
            return perm
    return None


# (p, s) with GF(p)/C_s of order 8 to 64; two of each order 8 and 64.
QUOTIENTS = ((29, 4), (43, 6), (37, 4), (61, 5), (37, 2), (173, 4), (181, 4),
             (127, 2), (379, 6))


class TestColouredSearch:
    """group_isomorphisms with colours yields exactly the uncoloured maps
    that keep the colours, in the same order, and are_isomorphic, which
    colours by the cell sizes of row 1, keeps its first witness."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_coloured_search_is_the_filtered_search(self, m):
        rng = random.Random(f"colours{m}")
        n = m + 1
        verdicts = set()
        for mul1 in abelian_groups(m):
            for mul2 in abelian_groups(m):
                tail = list(range(2, n))
                rng.shuffle(tail)
                other = _relabel_mul(mul2, (0, 1, *tail))
                uncoloured = list(group_isomorphisms(n, mul1, other))
                brute = _brute_group_isomorphisms(mul1, other)
                for colours in _colourings(rng, n, uncoloured):
                    coloured = list(group_isomorphisms(n, mul1, other, colours))
                    assert coloured == [p for p in uncoloured if _keeps(colours, p)]
                    assert set(coloured) == {p for p in brute if _keeps(colours, p)}
                    verdicts.add(bool(coloured))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("m, i, mul", GROUP_TABLES,
                             ids=[f"m{m}-{i}" for m, i, _ in GROUP_TABLES])
    def test_discrete_colouring_extends_once_per_generator(self, m, i, mul):
        """Where every element has its own colour, each generator has one
        image to try, so the search extends the empty choice and then one
        choice per generator: colours prune the images of the generators,
        not only the maps built from them."""
        n = m + 1
        tail = list(range(2, n))
        random.Random(f"discrete{m}:{i}").shuffle(tail)
        perm = (0, 1, *tail)
        other = _relabel_mul(mul, perm)
        colours = (list(range(n)), [0] * n)
        for x, p in enumerate(perm):
            colours[1][p] = x
        found, calls = _along_edges_calls(group_isomorphisms(n, mul, other, colours))
        assert found == [perm]
        assert calls == 1 + len(list(greedy_generators(n, mul)))

    @pytest.mark.parametrize("p, s", QUOTIENTS, ids=[f"gf{p}-by-{s}" for p, s in QUOTIENTS])
    def test_witness_is_the_first_of_the_uncoloured_search(self, p, s):
        h = _quotient(p, s)
        pool = [h, *_relabelled_copies(h, 2, f"q{p}:{s}")]
        same_order = [_quotient(*q) for q in QUOTIENTS if q != (p, s)
                      and 1 + (q[0] - 1) // q[1] == h.n]
        for a in pool:
            for b in pool + same_order:
                w = are_isomorphic(a, b)
                assert (w and w.mapping) == _first_uncoloured(a, b)
                assert (w is None) == (b in same_order)

    def test_order_four_classes_with_equal_size_multisets(self, enum_classes):
        """Two classes of order 4 share the multiset of (order, |v(z)|):
        the colours prune nothing up front, and the search finds no map."""
        def sizes(h):
            return sorted(zip(element_orders(h.n, h.mul), map(int.bit_count, h.hyperadd[1])))

        classes = enum_classes[4]
        alike = [(a, b) for i, a in enumerate(classes) for b in classes[i + 1:]
                 if sizes(a) == sizes(b)]
        assert len(alike) == 1
        for a, b in (alike[0], alike[0][::-1]):
            assert are_isomorphic(a, b) is None
            assert brute_isomorphic(a.candidate, b.candidate) is None

    def test_pruning_search_leaves_no_cyclic_garbage(self):
        """Searches that drop maps for their colours, abandoned at their
        first map, free everything by reference counting."""
        h = _quotient(173, 4)
        other = _relabelled_copies(h, 1, "garbage")[0]
        sizes = ([m.bit_count() for m in h.hyperadd[1]],) * 2
        gc.collect()
        gc.disable()
        try:
            next(group_isomorphisms(h.n, h.mul, h.mul, sizes))
            assert are_isomorphic(h, other) is not None
            assert gc.collect() == 0
        finally:
            gc.enable()

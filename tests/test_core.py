import copy
import pickle
import random
from collections import Counter
from dataclasses import replace
from itertools import product as iproduct

import pytest

from hyperfields import (
    AxiomViolationError,
    DomainError,
    ElementSet,
    HyperfieldCandidate,
    SearchOptions,
    StructuralError,
    abelian_groups,
    candidate_from_document,
    enumerate_hyperfields,
    from_field,
    gf,
    hyper_sum,
    hyper_sum_sets,
    massouros,
    opposite,
    pair_hyperfield,
    parse_document,
    product_candidate,
    quotient,
    relabel,
    render_document,
    subgroup_closure,
    to_document,
    verified,
    verify,
)
from hyperfields import core
from conftest import mutated_five, one_row_reconstruction_ok
from test_verifier_oracle import exhaustive_report, symmetric_group_with_zero


class TestElementSet:
    def test_members_roundtrip(self):
        s = ElementSet.from_indices(5, (3, 1))
        assert s.members == (1, 3)
        assert 1 in s and 3 in s and 0 not in s
        assert len(s) == 2
        assert list(s) == [1, 3]

    def test_empty_is_falsy(self):
        assert not ElementSet(4, 0)
        assert ElementSet(4, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(StructuralError):
            ElementSet(3, 1 << 3)
        with pytest.raises(StructuralError):
            ElementSet.from_indices(3, (3,))


class TestCandidateRows:
    """A candidate holds both tables as tuples of tuples, whatever rows it
    is built from."""

    def listed(self, c):
        return [list(row) for row in c.hyperadd], [list(row) for row in c.mul]

    def test_list_rows_are_held_as_tuples(self):
        c = pair_hyperfield(4).candidate
        twin = HyperfieldCandidate(c.n, *self.listed(c))
        for table in (twin.hyperadd, twin.mul):
            assert type(table) is tuple and all(type(row) is tuple for row in table)
        assert twin == c and hash(twin) == hash(c)
        assert twin == HyperfieldCandidate.from_sets(
            c.n, [[c.cell(x, y) for y in range(c.n)] for x in range(c.n)], c.mul)

    def test_verified_value_is_untouched_by_edits_to_its_lists(self):
        c = pair_hyperfield(4).candidate
        hyperadd, mul = self.listed(c)
        h = verified(HyperfieldCandidate(c.n, hyperadd, mul))
        hyperadd[2][3] = 1
        mul[2][3] = 0
        assert verify(h.candidate).ok
        assert h.candidate == c


CELL_RULE = "hyperaddition cell empty or out of range"
PRODUCT_RULE = "multiplication entry out of range"


class TestCandidateIsAValidTable:
    """A candidate is checked once, when it is built (dataclasses.replace
    too), so no reader -- verify, relabel, to_document, pretty_table -- is
    ever handed a malformed table."""

    @pytest.mark.parametrize("table, value, message", [
        ("hyperadd", 0, CELL_RULE),
        ("hyperadd", 1 << 3, CELL_RULE),
        ("hyperadd", 7.0, CELL_RULE),
        ("hyperadd", True, CELL_RULE),
        ("mul", 3, PRODUCT_RULE),
        ("mul", 2.0, PRODUCT_RULE),
        ("mul", True, PRODUCT_RULE),
    ])
    def test_entries_out_of_range_are_refused(self, table, value, message):
        c = pair_hyperfield(3).candidate
        rows = {"hyperadd": list(map(list, c.hyperadd)), "mul": list(map(list, c.mul))}
        rows[table][2][1] = value
        with pytest.raises(StructuralError, match=message):
            HyperfieldCandidate(3, rows["hyperadd"], rows["mul"])
        with pytest.raises(StructuralError, match=message):
            replace(c, **{table: rows[table]})

    @pytest.mark.parametrize("n, hyperadd, mul, message", [
        (1, ((1,),), ((0,),), "carrier must have at least 2 elements"),
        (2, ((1, 2), (2,)), ((0, 0), (0, 1)), "tables must be n x n"),
        (2, ((1, 2),), ((0, 0), (0, 1)), "tables must be n x n"),
        (2, (1, 2), ((0, 0), (0, 1)), "tables must be n x n"),
        (2, ((1, 2), (2, 1)), None, "tables must be n x n"),
    ], ids=["n=1", "ragged", "short", "rows-not-sequences", "no-table"])
    def test_shapes_other_than_n_by_n_are_refused(self, n, hyperadd, mul, message):
        with pytest.raises(StructuralError, match=message):
            HyperfieldCandidate(n, hyperadd, mul)

    @pytest.mark.parametrize("cells", [[[[0], [1]], 5], [[[0], [1]], [[1], 1]]],
                             ids=["row", "cell"])
    def test_from_sets_refuses_rows_and_cells_that_are_not_sequences(self, cells):
        with pytest.raises(StructuralError, match="tables must be n x n"):
            HyperfieldCandidate.from_sets(2, cells, [[0, 0], [0, 1]])

    def test_a_cell_out_of_range_never_reaches_a_reader(self):
        """This table once rendered to a document that parse_document
        refused, and made pretty_table and relabel raise IndexError."""
        with pytest.raises(StructuralError, match=CELL_RULE):
            HyperfieldCandidate(2, ((1, 4), (2, 2)), ((0, 0), (0, 1)))


# Each public constructor that takes members or products from a caller,
# with where the bad value goes (n = 2) and the message it must give.
# OneRowMap, which checked its entries already, is the control.
MEMBER_RULE = "member index out of range"
ENTRY_TAKERS = {
    "from_sets": (lambda v: HyperfieldCandidate.from_sets(
        2, [[[0], [1]], [[1], [0, v]]], [[0, 0], [0, 1]]), MEMBER_RULE),
    "from_indices": (lambda v: ElementSet.from_indices(2, [1, v]), MEMBER_RULE),
    "expand_one_row": (lambda v: core.expand_one_row(
        [[0, 0], [0, v]], core.OneRowMap(2, (2, 1))), PRODUCT_RULE),
    "candidate": (lambda v: HyperfieldCandidate(
        2, ((1, 2), (2, 1)), ((0, 0), (0, v))), PRODUCT_RULE),
    "OneRowMap": (lambda v: core.OneRowMap(2, (2, v)),
                  "row value empty or out of range|exactly one nonzero z"),
}


@pytest.mark.parametrize("value", [1.0, True, -1, pytest.param(2, id="n"), "1", None])
@pytest.mark.parametrize("constructor", ENTRY_TAKERS)
def test_constructors_refuse_entries_that_are_not_ints_in_range(constructor, value):
    """A float, bool, negative, too large, str or None entry gives
    StructuralError with the rule's message, never TypeError or ValueError,
    and is never accepted."""
    build, message = ENTRY_TAKERS[constructor]
    with pytest.raises(StructuralError, match=message):
        build(value)


# Inputs of the wrong type, each with the error it must raise in place of
# TypeError, and that error's message.
MISTYPED = {
    "expand_one_row-row-not-a-sequence": (
        lambda: core.expand_one_row([1, 2], core.OneRowMap(2, (2, 1))),
        StructuralError, "multiplication table must be n x n"),
    "ElementSet-n-str": (lambda: ElementSet("3", 1), StructuralError, "carrier size must be >= 1"),
    "ElementSet-n-float": (lambda: ElementSet(3.0, 1), StructuralError, "carrier size must be >= 1"),
    "from_indices-int": (lambda: ElementSet.from_indices(3, 5),
                         StructuralError, "member index out of range"),
    "OneRowMap-int": (lambda: core.OneRowMap(2, 5),
                      StructuralError, "one-row map must cover the whole carrier"),
    "OneRowMap-n-float": (lambda: core.OneRowMap(2.0, (2, 1)),
                          StructuralError, "one-row map must cover the whole carrier"),
    "relabel-float": (lambda: relabel(pair_hyperfield(2).candidate, (0, 1.0)),
                      DomainError, "perm must be a bijection on 0..n-1"),
    "relabel-str": (lambda: relabel(pair_hyperfield(2).candidate, (0, "1")),
                    DomainError, "perm must be a bijection on 0..n-1"),
    "relabel-int": (lambda: relabel(pair_hyperfield(2).candidate, 5),
                    DomainError, "perm must be a bijection on 0..n-1"),
}


@pytest.mark.parametrize("case", MISTYPED)
def test_entry_points_refuse_inputs_of_the_wrong_type(case):
    """Each raises the library's own error with its existing message, never
    TypeError, and none accepts an equal float for an int."""
    build, error, message = MISTYPED[case]
    with pytest.raises(error, match=message):
        build()


# Readers that take element indices, each with an index that is out of range
# or not an int, and the message it must raise; the candidate is
# pair_hyperfield(3)'s.  cell(-1, 0) once read cell (2, 0), and the others
# raised IndexError or TypeError, or took True for 1.
ELEMENT_INDEX_RULE = "element index out of range"
MISREAD_INDICES = {
    "cell-negative": (lambda c: c.cell(-1, 0), ELEMENT_INDEX_RULE),
    "cell-too-large": (lambda c: c.cell(3, 0), ELEMENT_INDEX_RULE),
    "cell-float": (lambda c: c.cell(1.0, 1), ELEMENT_INDEX_RULE),
    "hyper_sum-float": (lambda c: hyper_sum(c, 1.0, 2), ELEMENT_INDEX_RULE),
    "hyper_sum-bool": (lambda c: hyper_sum(c, True, 2), ELEMENT_INDEX_RULE),
    "opposite-str": (lambda c: opposite(c, "1"), ELEMENT_INDEX_RULE),
    "opposite-float": (lambda c: opposite(c, 1.0), ELEMENT_INDEX_RULE),
    "from_indices-carrier-str": (lambda c: ElementSet.from_indices("3", [1]),
                                 "carrier size must be >= 1"),
}


@pytest.mark.parametrize("case", MISREAD_INDICES)
def test_element_readers_refuse_indices_that_are_not_ints_in_range(case):
    read, message = MISREAD_INDICES[case]
    with pytest.raises(StructuralError, match=message):
        read(pair_hyperfield(3).candidate)


@pytest.mark.parametrize("value", ["1", 1.0, True, None, -1, 3])
def test_only_an_int_in_range_can_be_a_member(value):
    s = ElementSet(3, 0b111)
    assert value not in s
    assert [i for i in range(3) if i in s] == list(s) == [0, 1, 2]


def test_one_row_map_holds_its_masks_as_a_tuple():
    nu = core.OneRowMap(3, [2, 4, 1])
    assert nu.masks == (2, 4, 1) and type(nu.masks) is tuple
    assert hash(nu) == hash(core.OneRowMap(3, (2, 4, 1)))


def test_bits_decodes_as_binary_digits():
    """core._bits against the binary digits of the mask, on 0, 1, each
    power of two, all-ones masks and random masks of up to 1,100 bits."""
    rng = random.Random(1100)
    masks = [0, 1, *(1 << k for k in range(1100)), *((1 << k) - 1 for k in range(1, 1101, 37)),
             (1 << 1100) - 1, *(rng.getrandbits(rng.randint(1, 1100)) for _ in range(200))]
    for m in masks:
        digits = tuple(i for i, d in enumerate(reversed(bin(m)[2:])) if d == "1")
        assert core._bits(m) == digits, m


CONSTRUCTIONS = {
    "massouros29": lambda: massouros(gf(29)),
    "pair30": lambda: pair_hyperfield(30),
    "quotient31": lambda: quotient(gf(31), subgroup_closure(gf(31), [2])),
    "field27": lambda: from_field(gf(3, 3)),
}


def klein_with_zero():
    """The Klein four-group with a zero: every x != 0 squares to 1."""
    return next(g for g in abelian_groups(4) if all(g[x][x] == 1 for x in range(1, 5)))


def shifted_z4():
    """Z/4 on 1..4 with its identity at 2: a Latin square in which every
    x != 0 has a y with x.y = 1, but 1 is not the identity."""
    label = [2, 3, 4, 1]  # label[k] stands for k in Z/4, so x stands for (x - 2) % 4
    return ((0,) * 5,) + tuple((0, *(label[(x + y) % 4] for y in range(1, 5)))
                               for x in range(1, 5))


MASSOUROS5_ROW = core.OneRowMap(5, massouros(gf(5)).hyperadd[1])
GF5_ONE_PRODUCT_OFF = ((0,) * 5, (0, 1, 2, 3, 4), (0, 2, 4, 1, 2), (0, 3, 1, 4, 2),
                       (0, 4, 3, 2, 1))  # 2.4 = 2, not 3: still each x != 0 has an inverse

# Tables expand_one_row() returns, each marked as its own expansion.
MARKED = {
    "massouros5": lambda: core.expand_one_row(gf(5).mul, MASSOUROS5_ROW),
    "klein": lambda: core.expand_one_row(klein_with_zero(), MASSOUROS5_ROW),
    "one-product-off": lambda: core.expand_one_row(GF5_ONE_PRODUCT_OFF, MASSOUROS5_ROW),
    "S3": lambda: core.expand_one_row(symmetric_group_with_zero(),
                                      core.OneRowMap(7, pair_hyperfield(7).hyperadd[1])),
    "one-not-identity": lambda: core.expand_one_row(shifted_z4(), MASSOUROS5_ROW),
}


def with_cell(rows, x, y, value):
    rows = [list(row) for row in rows]
    rows[x][y] = value
    return rows


# The tables of massouros5 that expand_one_row() did not return: with one
# product changed, with one hyperaddition cell changed, and its
# hyperaddition over the Klein group, which shares its row 1.
UNMARKED = {
    "product-changed": lambda c: HyperfieldCandidate(5, c.hyperadd, with_cell(c.mul, 2, 3, 4)),
    "cell-changed": lambda c: HyperfieldCandidate(
        5, with_cell(c.hyperadd, 2, 3, c.hyperadd[2][3] ^ 1 << 4), c.mul),
    "over-klein": lambda c: HyperfieldCandidate(5, c.hyperadd, klein_with_zero()),
}


class TestExpansionMark:
    """expand_one_row() and enumeration mark the candidates they return as
    their own expansion E, and verify() reads E off a marked candidate: a
    construction builds E once, enumeration's verification builds none,
    every other candidate builds its own, and nothing is left in the module
    for a later call."""

    @staticmethod
    def counted_row_scalars(monkeypatch):
        calls = []
        real = core._row_scalars

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(core, "_row_scalars", counting)
        return calls

    @pytest.mark.parametrize("name", CONSTRUCTIONS)
    def test_a_construction_builds_its_expansion_once(self, monkeypatch, name):
        build = CONSTRUCTIONS[name]
        build()  # the fields and subgroups, which may be cached
        calls = self.counted_row_scalars(monkeypatch)
        h = build()
        assert len(calls) == 1 and h.candidate.expanded
        calls.clear()
        fresh = HyperfieldCandidate(h.n, list(map(list, h.hyperadd)), list(map(list, h.mul)))
        assert verify(fresh).ok
        assert len(calls) == 1

    @pytest.mark.parametrize("name", CONSTRUCTIONS)
    def test_a_construction_derives_its_group_facts_once(self, monkeypatch, name):
        """Counts, not timings.  expand_one_row() takes the inverses and
        columns of mul from core._mul_facts, and the verify() that follows
        finds that entry: one inverses() call, one miss and one hit."""
        build = CONSTRUCTIONS[name]
        build()  # the fields and subgroups, which may be cached
        calls = []
        real = core.inverses

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(core, "inverses", counting)
        core._mul_facts.cache_clear()
        assert build().candidate.expanded
        assert len(calls) == 1
        assert core._mul_facts.cache_info()[:2] == (1, 1)  # (hits, misses)

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copy_keeps_the_mark(self, monkeypatch, duplicate):
        """A copy holds the same tables, so reading E off it is sound: copies
        of constructions, of enumeration classes and of the marked tables
        that fail stay marked, build no E, and report as an unmarked rebuild
        does."""
        marked = [build().candidate for build in CONSTRUCTIONS.values()]
        marked += [h.candidate for h in enumerate_hyperfields(4)]
        marked += [build() for build in MARKED.values()]
        want = [verify(HyperfieldCandidate(c.n, c.hyperadd, c.mul)) for c in marked]
        assert not all(r.ok for r in want)
        copies = list(map(duplicate, marked))
        calls = self.counted_row_scalars(monkeypatch)
        assert copies == marked and all(c.expanded for c in copies)
        assert list(map(verify, copies)) == want
        assert calls == []

    def test_only_what_expand_one_row_returns_and_enumeration_keeps_is_marked(self):
        marked = [build() for build in MARKED.values()]
        marked += [build().candidate for build in CONSTRUCTIONS.values()]
        marked += [h.candidate for h in enumerate_hyperfields(5)]
        marked.append(from_field(gf(5)).candidate)
        assert all(c.expanded for c in marked)
        c = marked[0]
        unmarked = [build(c) for build in UNMARKED.values()] + [
            HyperfieldCandidate(c.n, c.hyperadd, c.mul),
            replace(c),
            replace(c, mul=GF5_ONE_PRODUCT_OFF),
            relabel(c, tuple(range(5))),
            relabel(c, (0, 1, 3, 2, 4)),
            candidate_from_document(parse_document(render_document(to_document(c)))),
            product_candidate(massouros(gf(3)), pair_hyperfield(3)),
        ]
        assert not any(u.expanded for u in unmarked)

    @pytest.mark.parametrize("n, jobs", [(4, 1), (5, 1), (6, 1), (4, 2)])
    def test_enumeration_verifies_its_survivors_building_no_expansion(self, monkeypatch,
                                                                      n, jobs):
        calls = self.counted_row_scalars(monkeypatch)
        assert enumerate_hyperfields(n, SearchOptions(jobs=jobs)) and calls == []

    @pytest.mark.parametrize("n", range(2, 7))
    def test_each_survivor_is_the_expansion_of_its_unmarked_copy(self, n):
        for h in enumerate_hyperfields(n):
            c = h.candidate
            copy = HyperfieldCandidate(n, c.hyperadd, c.mul)
            assert c.expanded and not copy.expanded
            assert c.hyperadd == core._Table(n, copy.hyperadd, copy.mul).expansion
            assert verify(c) == verify(copy) == core._PASSED

    def test_the_mark_is_not_part_of_the_value(self):
        c = MARKED["massouros5"]()
        twin = HyperfieldCandidate(c.n, c.hyperadd, c.mul)
        assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)
        with pytest.raises(TypeError):
            HyperfieldCandidate(c.n, c.hyperadd, c.mul, expanded=True)
        with pytest.raises(ValueError):
            replace(twin, expanded=True)

    @pytest.mark.parametrize("name", [*MARKED, *UNMARKED])
    def test_a_marked_table_verifies_as_its_unmarked_copy(self, name):
        """Each report equals the ten oracles' and that of a copy that is
        not marked, whatever was expanded last."""
        base = MARKED["massouros5"]()
        c = MARKED[name]() if name in MARKED else UNMARKED[name](base)
        for build in MARKED.values():
            build()
        want = exhaustive_report(c)
        assert verify(c) == verify(HyperfieldCandidate(c.n, c.hyperadd, c.mul)) == want
        assert want.ok == (name == "massouros5")

    def test_expanding_and_verifying_leave_the_module_as_it_was(self):
        """Nothing but _mul_facts' cache, which repr does not show, changes."""
        def snapshot():
            return {name: (id(value), repr(value))
                    for name, value in vars(core).items() if not name.startswith("__")}
        before = snapshot()
        c = MARKED["massouros5"]()
        assert snapshot() == before
        assert verify(c).ok and snapshot() == before


class TestHyperSum:
    def test_printed_table_cells(self, five_candidate):
        assert hyper_sum(five_candidate, 1, 2).members == (1, 2)
        assert hyper_sum(five_candidate, 3, 1).members == (0, 1, 2, 3, 4)

    def test_zero_row_is_scalar_identity(self, five_candidate):
        for x in range(5):
            assert hyper_sum(five_candidate, 0, x).members == (x,)

    def test_index_out_of_range(self, five_candidate):
        with pytest.raises(StructuralError):
            hyper_sum(five_candidate, 0, 5)

    def test_singletons_reduce_to_hyper_sum(self, five_candidate):
        a = ElementSet.from_indices(5, (2,))
        b = ElementSet.from_indices(5, (3,))
        assert hyper_sum_sets(five_candidate, a, b) == hyper_sum(five_candidate, 2, 3)

    def test_massouros_gf3_set_sum(self):
        h = massouros(gf(3))
        one = ElementSet.from_indices(3, (1,))
        everything = ElementSet.from_indices(3, (0, 1, 2))
        assert hyper_sum_sets(h.candidate, one, everything).members == (0, 1, 2)

    def test_full_carrier_absorbs(self, five_candidate):
        full = ElementSet.from_indices(5, range(5))
        for b in range(5):
            single = ElementSet.from_indices(5, (b,))
            assert hyper_sum_sets(five_candidate, full, single).members == (0, 1, 2, 3, 4)

    def test_empty_operand_rejected(self, five_candidate):
        with pytest.raises(DomainError):
            hyper_sum_sets(five_candidate, ElementSet(5, 0), ElementSet(5, 1))


class TestOpposite:
    def test_printed_table(self, five_candidate):
        assert opposite(five_candidate, 1) == 3

    def test_zero_is_self_opposite(self, five_candidate):
        assert opposite(five_candidate, 0) == 0

    def test_massouros_gf3(self):
        assert opposite(massouros(gf(3)).candidate, 1) == 2

    def test_missing_opposite_reported(self):
        c = HyperfieldCandidate.from_sets(
            2, [[[0], [1]], [[1], [1]]], [[0, 0], [0, 1]])
        with pytest.raises(AxiomViolationError) as err:
            opposite(c, 1)
        assert err.value.candidates == ()

    def test_multiple_opposites_reported(self):
        c = mutated_five({(1, 2): [0, 1, 2], (2, 1): [0, 1, 2]})
        with pytest.raises(AxiomViolationError) as err:
            opposite(c, 1)
        assert err.value.candidates == (2, 3)


class TestVerify:
    def test_five_element_table_is_a_hyperfield(self, five_candidate):
        report = verify(five_candidate)
        assert report.ok
        assert len(report.results) == 10
        assert [r.axiom for r in report.results] == [
            "CH1", "CH2", "CH3", "CH4", "CH5",
            "KR1", "KR2", "KR3", "HF1", "HF2"]

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1)])
    def test_every_field_is_a_hyperfield(self, p, k):
        assert from_field(gf(p, k)).n == p ** k  # from_field verifies internally

    def test_one_sided_mutation_breaks_commutativity(self):
        c = mutated_five({(1, 2): [1]})
        report = verify(c)
        assert not report["CH2"].passed
        assert report["CH2"].witness == (1, 2)

    def test_mirrored_mutation_breaks_reversibility(self):
        c = mutated_five({(1, 2): [1], (2, 1): [1]})
        report = verify(c)
        assert report["CH2"].passed
        broken = report["CH5"]
        assert not broken.passed
        # The witness must reproduce the failure on the mutated table:
        # z in x(+)y while y escapes x'(+)z or x escapes z(+)y'.
        x, y, z = broken.witness
        opp = {a: opposite(c, a) for a in range(5)}
        assert z in c.cell(x, y)
        assert (y not in c.cell(opp[x], z)) or (x not in c.cell(z, opp[y]))

    @pytest.mark.parametrize("cells, failing", [
        ({}, set()),
        ({(1, 2): [1], (2, 1): [1]}, {"CH1", "CH5", "KR3"}),
        ({(1, 2): [1]}, {"CH1", "CH2", "CH5", "KR3"}),
    ], ids=["passing", "cubic-only", "quadratic"])
    def test_every_check_runs_once_and_each_fact_is_derived_once(
            self, monkeypatch, cells, failing):
        """verify() calls each AXIOM_CHECKS entry exactly once on a table
        with suspect rows, wrapped in place as a tracer wraps them, so
        per-axiom spans are truthful, and none on a table without, which
        gets the all-pass report from suspects alone; and its one table
        view computes each shared fact at most once, those that read mul
        alone in one call of core._mul_facts."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(core, "AXIOM_CHECKS", tuple(
            (code, counted(code, fn)) for code, fn in core.AXIOM_CHECKS))
        facts = {name: fact for name, fact in vars(core._Table).items()
                 if isinstance(fact, core._fact)}
        for name, fact in facts.items():
            monkeypatch.setattr(fact, "compute", counted(name, fact.compute))
        core._mul_facts.cache_clear()
        report = verify(mutated_five(cells))
        assert {r.axiom for r in report.failures()} == failing
        assert max(calls[name] for name in facts) == 1
        if failing:
            assert [calls[code] for code, _ in core.AXIOM_CHECKS] == [1] * 10
            assert {"suspects", "leaders"} <= set(calls)
        else:
            assert [calls[code] for code, _ in core.AXIOM_CHECKS] == [0] * 10
            assert calls["suspects"] == 1 and "leaders" not in calls
            assert report == core.AxiomReport(tuple(
                core.AxiomResult(code, True) for code, _ in core.AXIOM_CHECKS))
        assert core._mul_facts.cache_info()[:2] == (0, 1)  # (hits, misses)

    def test_cached_mul_facts_are_never_stale(self):
        """core._mul_facts keeps the facts of the last mul across calls.  In
        any order, with and without hits, each report equals the one made
        on an empty cache: a hyperfield, the same with one product changed,
        a copy with list rows and a product candidate."""
        h = massouros(gf(2, 3)).candidate
        changed = [list(row) for row in h.mul]
        changed[2][3] = 4
        tables = [h, HyperfieldCandidate(h.n, h.hyperadd, changed),
                  HyperfieldCandidate(h.n, list(map(list, h.hyperadd)), list(map(list, h.mul))),
                  product_candidate(massouros(gf(2)), massouros(gf(3)))]
        want = []
        for c in tables:
            core._mul_facts.cache_clear()
            want.append(verify(c))
        assert [r.ok for r in want] == [True, False, True, False]
        for k in (0, 1, 0, 2, 2, 3, 0, 1, 1, 2, 3, 3, 1):
            assert verify(tables[k]) == want[k], k
        assert core._mul_facts.cache_info().hits >= 4

    def test_structural_rejects_before_axioms(self):
        with pytest.raises(StructuralError):
            verify(HyperfieldCandidate(2, ((1, 2), (2, 0)), ((0, 0), (0, 1))))
        with pytest.raises(StructuralError):
            verify(HyperfieldCandidate(1, ((1,),), ((0,),)))
        with pytest.raises(StructuralError):
            verify(HyperfieldCandidate(2, ((1, 2),), ((0, 0), (0, 1))))
        nan = float("nan")
        for hyperadd, mul in ((((1, nan), (2, 1)), ((0, 0), (0, 1))),
                              (((2, 3), (3, 1)), ((0, 0), (nan, 1)))):
            with pytest.raises(StructuralError):
                verify(HyperfieldCandidate(2, hyperadd, mul))

    @pytest.mark.parametrize("table, cells", [
        ("hyperadd", {(2, 2): 7.0}),
        ("hyperadd", {(1, 1): 7.0, (2, 2): 7.0}),
        ("hyperadd", {(0, 0): True}),
        ("mul", {(2, 2): 2.0}),
        ("mul", {(1, 1): True}),
    ])
    def test_entries_that_are_not_ints_are_rejected(self, table, cells):
        """Every entry must be an int, as a document's are: an equal float or
        bool is refused with the out-of-range message when the candidate is
        built, never a TypeError."""
        c = pair_hyperfield(3).candidate
        rows = {"hyperadd": list(map(list, c.hyperadd)), "mul": list(map(list, c.mul))}
        for (x, y), value in cells.items():
            rows[table][x][y] = value
        message = ("hyperaddition cell empty or out of range" if table == "hyperadd"
                   else "multiplication entry out of range")
        with pytest.raises(StructuralError, match=message):
            HyperfieldCandidate(3, rows["hyperadd"], rows["mul"])

    def test_one_row_map_entries_must_be_ints(self):
        for masks in ((2, 7.0, 3), (2, 4, True)):
            with pytest.raises(StructuralError, match="row value empty or out of range"):
                core.OneRowMap(3, masks)

    def test_report_is_deterministic(self, five_candidate):
        c = mutated_five({(1, 2): [1], (2, 1): [1]})
        assert verify(c) == verify(c)
        assert verify(five_candidate) == verify(five_candidate)

    def test_verified_wrapper_raises_with_report(self):
        c = mutated_five({(1, 2): [1]})
        with pytest.raises(AxiomViolationError) as err:
            verified(c)
        assert err.value.report is not None
        assert not err.value.report.ok


@pytest.fixture(scope="module")
def verified_samples(five):
    f5 = gf(5)
    return [
        five,
        massouros(gf(2)),
        massouros(gf(3)),
        massouros(gf(2, 2)),
        massouros(f5),
        quotient(f5, subgroup_closure(f5, (4,))),
        from_field(gf(7)),
    ]


class TestVerifiedInvariants:
    def test_reproducibility(self, verified_samples):
        for h in verified_samples:
            n = h.n
            full = (1 << n) - 1
            for a in range(n):
                row_union = 0
                col_union = 0
                for b in range(n):
                    row_union |= h.hyperadd[a][b]
                    col_union |= h.hyperadd[b][a]
                assert row_union == full and col_union == full

    def test_opposite_is_an_involution(self, verified_samples):
        for h in verified_samples:
            for a in range(h.n):
                assert opposite(h.candidate, opposite(h.candidate, a)) == a

    def test_zero_membership_characterizes_opposites(self, verified_samples):
        for h in verified_samples:
            for a, b in iproduct(range(h.n), range(h.n)):
                has_zero = bool(h.hyperadd[a][b] & 1)
                assert has_zero == (b == opposite(h.candidate, a))

    def test_one_row_reconstruction(self, verified_samples):
        for h in verified_samples:
            assert one_row_reconstruction_ok(h)


class TestRelabel:
    def test_identity_is_noop(self, five_candidate):
        assert relabel(five_candidate, (0, 1, 2, 3, 4)) == five_candidate

    def test_relabelled_table_still_verifies(self, five_candidate):
        c = relabel(five_candidate, (0, 1, 3, 4, 2))
        assert verify(c).ok

    def test_non_bijection_rejected(self, five_candidate):
        with pytest.raises(DomainError):
            relabel(five_candidate, (0, 1, 2, 3, 3))

import hashlib
import importlib.util
import json
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from hyperfields import (
    CapacityError,
    ConstructionError,
    DomainError,
    SubgroupSpec,
    from_field,
    gf,
    hyperfield_of_order,
    massouros,
    pair_hyperfield,
    product,
    product_candidate,
    quotient,
    render_document,
    subgroup_closure,
    to_document,
)
from hyperfields.construct import MAX_SYNTH_ORDER
from conftest import all_subgroups

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSubgroupClosure:
    def test_gf5_single_generator(self):
        g = subgroup_closure(gf(5), (4,))
        assert g.closure == frozenset({1, 4})

    def test_trivial_subgroup(self):
        assert subgroup_closure(gf(7), ()).closure == frozenset({1})

    def test_gf7_full_group(self):
        assert subgroup_closure(gf(7), (3,)).closure == frozenset(range(1, 7))

    def test_zero_generator_rejected(self):
        with pytest.raises(DomainError):
            subgroup_closure(gf(5), (0,))
        with pytest.raises(DomainError):
            subgroup_closure(gf(5), (5,))

    def test_bogus_spec_rejected(self):
        f = gf(5)
        with pytest.raises(DomainError):
            SubgroupSpec(f, (2,), frozenset({1, 2}))  # not closed: 2*2=4 missing


class TestQuotient:
    def test_gf5_mod_squares(self):
        f = gf(5)
        h = quotient(f, subgroup_closure(f, (4,)))
        assert h.n == 3
        # cosets {0} -> 0, {1,4} -> 1, {2,3} -> 2; sums computed by hand
        assert h.candidate.cell(1, 1) == (0, 2)
        assert h.candidate.cell(1, 2) == (1, 2)
        assert h.candidate.cell(2, 2) == (0, 1)
        assert h.mul == ((0, 0, 0), (0, 1, 2), (0, 2, 1))

    def test_trivial_subgroup_reproduces_the_field(self):
        f = gf(7)
        h = quotient(f, subgroup_closure(f, ()))
        assert h.candidate == from_field(f).candidate

    @pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
    def test_full_group_gives_order_two(self, p, k):
        f = gf(p, k)
        full = subgroup_closure(f, tuple(range(1, f.q)))
        h = quotient(f, full)
        assert h.n == 2
        assert h.candidate.cell(1, 1) == (0, 1)

    def test_gf2_full_group_is_gf2(self):
        f = gf(2)
        h = quotient(f, subgroup_closure(f, (1,)))
        assert h.candidate.cell(1, 1) == (0,)

    def test_every_subgroup_up_to_gf9_verifies(self):
        for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
            f = gf(p, k)
            for g in all_subgroups(f):
                h = quotient(f, g)
                assert h.n == 1 + (f.q - 1) // len(g.closure)

    def test_foreign_subgroup_rejected(self):
        g = subgroup_closure(gf(5), (4,))
        with pytest.raises(DomainError):
            quotient(gf(7), g)


class TestMassouros:
    def test_gf2_characteristic_two_self_opposite(self):
        assert massouros(gf(2)).candidate.cell(1, 1) == (0, 1)

    def test_gf3_repeated_element(self):
        assert massouros(gf(3)).candidate.cell(1, 1) == (1, 2)

    def test_gf4_two_distinct_units(self):
        assert massouros(gf(2, 2)).candidate.cell(1, 2) == (1, 2, 3)

    @pytest.mark.parametrize("q,p,k", [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1),
                                       (7, 7, 1), (8, 2, 3), (9, 3, 2)])
    def test_verifies_and_keeps_order(self, q, p, k):
        assert massouros(gf(p, k)).n == q


class TestProduct:
    def test_componentwise_table(self):
        k2 = massouros(gf(2))
        c = product_candidate(k2, k2)
        assert c.n == 4
        # pair indexing: (0,0)->0, (1,1)->1, (0,1)->2, (1,0)->3
        assert c.cell(3, 3) == (0, 3)  # 1(+)1 = {0,1} crossed with 0(+)0 = {0}
        assert c.cell(1, 1) == (0, 1, 2, 3)

    def test_relabelling_rule(self):
        c = product_candidate(massouros(gf(3)), massouros(gf(2)))
        assert c.n == 6
        assert all(c.mul[0][x] == 0 for x in range(6))
        assert all(c.mul[1][x] == x for x in range(6))

    def test_axis_zero_divisors_defeat_verification(self):
        """The componentwise product of hyperfields of orders >= 2 is a
        Krasner hyperring but never a hyperfield: pairs on the axes, such
        as (1,0) and (0,1), multiply to (0,0)."""
        with pytest.raises(ConstructionError) as err:
            product(massouros(gf(2)), massouros(gf(3)))
        broken = err.value.report["HF2"]
        assert not broken.passed and broken.reason == "zero divisor"
        # every other hyperring axiom holds on the product tables
        for axiom in ("CH1", "CH2", "CH3", "CH4", "CH5", "KR1", "KR2", "KR3", "HF1"):
            assert err.value.report[axiom].passed

    def test_failure_is_generic(self):
        small = [massouros(gf(2)), massouros(gf(3)), massouros(gf(2, 2))]
        for a, b in combinations_with_replacement(small, 2):
            with pytest.raises(ConstructionError):
                product(a, b)

    def test_unverified_inputs_rejected(self):
        from hyperfields import PreconditionError
        k2 = massouros(gf(2))
        with pytest.raises(PreconditionError):
            product_candidate(k2.candidate, k2)

    def test_commutes_up_to_relabeling(self):
        from conftest import brute_isomorphic
        a, b = massouros(gf(2)), massouros(gf(3))
        ab = product_candidate(a, b)
        ba = product_candidate(b, a)
        assert brute_isomorphic(ab, ba) is not None


class TestPairHyperfield:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_verifies_at_every_order(self, n):
        h = pair_hyperfield(n)
        assert h.n == n
        full = tuple(range(n))
        for x in range(1, n):
            assert h.candidate.cell(x, x) == full
            for y in range(1, n):
                if y != x:
                    assert set(h.candidate.cell(x, y)) == {x, y}

    def test_minimum_order(self):
        with pytest.raises(DomainError):
            pair_hyperfield(1)


class TestHyperfieldOfOrder:
    def test_order_two_is_the_triple_sum_on_gf2(self):
        assert hyperfield_of_order(2).candidate == massouros(gf(2)).candidate

    @pytest.mark.parametrize("n", [6, 10, 12, 15, 30])
    def test_composite_orders(self, n):
        assert hyperfield_of_order(n).n == n

    @pytest.mark.parametrize("n", [4, 8, 9, 16, 25, 27])
    def test_prime_powers_use_the_field(self, n):
        h = hyperfield_of_order(n)
        assert h.n == n
        # triple-sum tables: 1(+)2 is {1, 2, 1+2}, never the pair {1, 2} alone
        from hyperfields import factor_integer
        pp = factor_integer(n).factors[0]
        assert h.candidate == massouros(gf(pp.p, pp.k)).candidate

    def test_bounds(self):
        with pytest.raises(DomainError):
            hyperfield_of_order(1)
        with pytest.raises(CapacityError):
            hyperfield_of_order(65)


def is_prime_power(n):
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


class TestExistenceSweep:
    """scripts/existence_sweep.py: a verified hyperfield at every order the
    synthesis accepts.  No timing is checked.  The method is checked against
    a prime-power test written here, independent of the package's rule."""

    def test_every_order_up_to_the_bound(self):
        rows = list(load_script("existence_sweep").sweep())
        assert MAX_SYNTH_ORDER >= 64
        assert [n for n, *_ in rows] == list(range(2, MAX_SYNTH_ORDER + 1))
        for n, method, h, seconds in rows:
            assert h.n == n and seconds >= 0
            assert method == ("massouros" if is_prime_power(n) else "pair"), n
            if n > 2:  # only the pair hyperfield has 1 (+) z = {1, z} for every z >= 2
                pair_row = all(h.hyperadd[1][z] == 2 | 1 << z for z in range(2, n))
                assert pair_row == (method == "pair"), n

    @pytest.mark.parametrize("argv", [["--max-order", "6"], ["6"], ["--orders"]])
    def test_any_argument_exits_2(self, monkeypatch, capsys, argv):
        script = load_script("existence_sweep")
        monkeypatch.setattr(script, "sweep", None)  # never reached
        monkeypatch.setattr(sys, "argv", ["existence_sweep.py", *argv])
        with pytest.raises(SystemExit) as exc:
            script.main()
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_prints_one_row_per_order(self, monkeypatch, capsys):
        script = load_script("existence_sweep")
        monkeypatch.setattr(sys, "argv", ["existence_sweep.py"])
        script.main()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["order", "method", "seconds"]
        assert [line.split()[:2] for line in lines[1:]] == [
            [str(n), "massouros" if is_prime_power(n) else "pair"]
            for n in range(2, MAX_SYNTH_ORDER + 1)]


def test_product_axiom_report_shows_the_zero_divisor(capsys):
    """scripts/product_axiom_report.py: the order-2 x order-3 product fails
    HF2 alone, at a pair of nonzero elements whose product is 0, and the
    pair(6) tables follow."""
    load_script("product_axiom_report").main()
    lines = capsys.readouterr().out.splitlines()
    fails = [line for line in lines if "FAIL" in line]
    assert len(fails) == 1 and fails[0].lstrip().startswith("HF2 ")
    witness = fails[0].split("witness=(")[1].split(")")[0]
    x, y = map(int, witness.split(", "))
    c = product_candidate(massouros(gf(2)), massouros(gf(3)))
    assert x and y and c.mul[x][y] == 0
    assert fails[0].endswith("(zero divisor)")
    assert "overall: fail" in lines
    grid = [[part.strip() for part in line.split("|")] for line in lines]
    assert ["⊕", "0", "1", "a", "b", "c", "d"] in grid  # the pair(6) tables


def cells(h):
    """The hyperaddition of h as sets of element indices, read bit by bit."""
    return [[{w for w in range(h.n) if m >> w & 1} for m in row] for row in h.hyperadd]


class TestDefinitions:
    """Each construction, cell by cell, against its textbook definition
    written here over the field's own tables.  The constructions build
    their tables from the row v(z) = 1 (+) z, and verify() proves KR3 by
    comparing a table with the expansion of that same row, so these tests
    are what checks the tables against the definitions."""

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2), (2, 5)])
    def test_massouros(self, p, k):
        f = gf(p, k)
        q = f.q
        want = [[{b} if a == 0 else {a} if b == 0
                 else set(range(q)) if f.add[a][b] == 0
                 else {a, b, f.add[a][b]}
                 for b in range(q)] for a in range(q)]
        h = massouros(f)
        assert cells(h) == want
        assert h.mul == f.mul

    @pytest.mark.parametrize("n", [*range(2, 13), 40])
    def test_pair(self, n):
        # Element x >= 1 is g^(x-1) for a generator g of the cyclic group.
        want = [[{y} if x == 0 else {x} if y == 0
                 else set(range(n)) if x == y
                 else {x, y}
                 for y in range(n)] for x in range(n)]
        want_mul = [[0 if x == 0 or y == 0 else (x - 1 + y - 1) % (n - 1) + 1
                     for y in range(n)] for x in range(n)]
        h = pair_hyperfield(n)
        assert cells(h) == want
        assert [list(row) for row in h.mul] == want_mul

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2)])
    def test_quotient(self, p, k):
        # Cosets are labelled {0} first, then by their smallest element; cG
        # lies in aG (+) bG when it meets aG + bG, and aG . bG = abG.
        f = gf(p, k)
        for g in all_subgroups(f):
            cosets = sorted({frozenset(f.mul[a][s] for s in g.closure)
                             for a in range(1, f.q)} | {frozenset((0,))}, key=min)
            coset_of = {e: i for i, c in enumerate(cosets) for e in c}
            want = [[{i for i, c in enumerate(cosets) if c & {f.add[a][b] for a in A for b in B}}
                     for B in cosets] for A in cosets]
            want_mul = [[{coset_of[f.mul[a][b]] for a in A for b in B} for B in cosets]
                        for A in cosets]
            h = quotient(f, g)
            assert cells(h) == want
            assert [[{x} for x in row] for row in h.mul] == want_mul


def pinned_recipes():
    """(name, build) for every document pinned in golden/document_sha256.json:
    hyperfield_of_order(2..64), and the triple-sum fields and quotients that
    the construct benchmark asks for."""
    for n in range(2, 65):
        yield f"hyperfield_of_order({n})", lambda n=n: hyperfield_of_order(n)
    for p, k in ((13, 1), (41, 1), (7, 2), (2, 7)):
        yield f"massouros(gf({p},{k}))", lambda p=p, k=k: massouros(gf(p, k))
    for p, s in ((29, 4), (37, 2), (181, 4), (127, 2)):
        def build(p=p, s=s):
            f = gf(p)
            return quotient(f, subgroup_closure(f, [x for x in range(1, p) if pow(x, s, p) == 1]))
        yield f"quotient(gf({p},1), subgroup of order {s})", build


class TestDocumentPin:
    def test_rendered_documents_match_their_digests(self):
        """Any change to the bytes a construction renders fails here, so a
        re-baseline of golden/document_sha256.json is a deliberate step."""
        pinned = json.loads((GOLDEN / "document_sha256.json").read_text(encoding="utf-8"))
        got = {name: hashlib.sha256(render_document(to_document(build().candidate))
                                    .encode()).hexdigest()
               for name, build in pinned_recipes()}
        assert got == pinned


class TestOrderArithmetic:
    def test_massouros_preserves_order(self):
        for p, k in [(2, 1), (3, 1), (2, 2), (5, 1)]:
            assert massouros(gf(p, k)).n == p ** k

    def test_quotient_order_formula(self):
        for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
            f = gf(p, k)
            for g in all_subgroups(f):
                assert quotient(f, g).n == 1 + (f.q - 1) // len(g.closure)

    def test_product_order_multiplies(self):
        a, b = massouros(gf(2)), massouros(gf(5))
        assert product_candidate(a, b).n == 10

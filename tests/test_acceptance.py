"""Acceptance criteria, one test (or sub-test) per criterion, each printing
a PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 5's product clause is asserted exactly as stated and fails: the
componentwise product of two hyperfields of orders >= 2 is never a
hyperfield (axis pairs are zero divisors), so that sub-test is expected
red.  See notes in the repository history / test_construct for the
witnessed counterexample; everything else passes.
"""

import time
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from hyperfields import (
    ParseError,
    SearchOptions,
    ValidationError,
    are_isomorphic,
    candidate_from_document,
    enumerate_hyperfields,
    parse_document,
    product,
    relabel,
    render_document,
    to_document,
    verified,
    verify,
)
from hyperfields import enumeration
from hyperfields.cli import main
from conftest import (
    SteppingClock,
    brute_isomorphic,
    naive_classes,
    one_row_reconstruction_ok,
    preserves_structure,
)

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def report_line(num, name, ok):
    print(f"ACCEPTANCE C{num} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def suite_instances(enum_classes, massouros_pool, quotient_pool, order_pool, five):
    instances = [five, *massouros_pool.values(), *order_pool.values()]
    instances.extend(h for _, h in quotient_pool)
    for classes in enum_classes.values():
        instances.extend(classes)
    return instances


class TestC1GoldenVerification:
    def test_printed_tables_pass_all_axioms_quickly(self, five_candidate):
        t0 = time.perf_counter()
        report = verify(five_candidate)
        elapsed = time.perf_counter() - t0
        ok = report.ok and len(report.results) == 10 and elapsed < 0.1
        report_line(1, "golden verification", ok)
        assert report.ok
        assert len(report.results) == 10
        assert elapsed < 0.1

    def test_single_cell_mutation_names_axiom_and_witness(self):
        # mutate 1(+)a from {1,a} to {1} (one side only)
        from conftest import FIVE_ADD, FIVE_MUL
        from hyperfields import HyperfieldCandidate
        cells = [list(map(list, row)) for row in FIVE_ADD]
        cells[1][2] = [1]
        mutated = HyperfieldCandidate.from_sets(5, cells, FIVE_MUL)
        report = verify(mutated)
        ok = (not report.ok
              and all(r.witness is not None for r in report.failures())
              and not report["CH2"].passed
              and report["CH2"].witness == (1, 2))
        report_line(1, "golden mutation detection", ok)
        assert ok


class TestC2ExistenceEndToEnd:
    def test_construct_every_order_2_to_30(self, tmp_path, capsys):
        t0 = time.perf_counter()
        non_prime_powers = {6, 10, 12, 14, 15, 18, 20, 21, 22, 24, 26, 28, 30}
        seen = set()
        for n in range(2, 31):
            out = tmp_path / f"h{n}.json"
            code = main(["construct", "--order", str(n), "--out", str(out)])
            assert code == 0, f"construct --order {n} exited {code}"
            doc = parse_document(out.read_text(encoding="utf-8"))
            assert doc.order == n
            assert verify(candidate_from_document(doc)).ok, f"order {n} fails re-verify"
            seen.add(n)
        elapsed = time.perf_counter() - t0
        capsys.readouterr()
        ok = non_prime_powers <= seen and elapsed < 60
        report_line(2, f"existence 2..30 in {elapsed:.1f}s", ok)
        assert non_prime_powers <= seen
        assert elapsed < 60


class TestC3ClassificationCounts:
    @pytest.mark.parametrize("order,count,limit", [(2, 2, 10.0), (3, 5, 10.0),
                                                   (4, 7, 10.0), (5, 27, 300.0)])
    def test_counts_match_the_published_table(self, order, count, limit, enum_classes):
        t0 = time.perf_counter()
        classes = enumerate_hyperfields(order)
        elapsed = time.perf_counter() - t0
        ok = len(classes) == count and elapsed < limit
        report_line(3, f"order {order} -> {len(classes)} in {elapsed:.2f}s", ok)
        assert len(classes) == count
        assert elapsed < limit
        assert len(enum_classes[order]) == count

    def test_order_six_stretch_goal(self):
        from hyperfields import BudgetExceededError
        try:
            t0 = time.perf_counter()
            classes = enumerate_hyperfields(6, SearchOptions(budget_seconds=3600.0))
            elapsed = time.perf_counter() - t0
        except BudgetExceededError:
            report_line(3, "order 6 budget exhausted (allowed, no count)", True)
            return
        ok = len(classes) == 16
        report_line(3, f"order 6 -> {len(classes)} in {elapsed:.2f}s", ok)
        assert len(classes) == 16

    def test_budget_exhaustion_never_prints_a_count(self, capsys, monkeypatch):
        # One second passes per clock reading, so the first shard is late.
        monkeypatch.setattr(enumeration, "time", SteppingClock(1.0))
        code = main(["enumerate", "--order", "5", "--budget", "0.5"])
        captured = capsys.readouterr()
        ok = code == 3 and captured.out == ""
        report_line(3, "budget path is status 3 with no count", ok)
        assert ok


class TestC4OracleEquivalence:
    @pytest.mark.parametrize("order", [2, 3])
    def test_naive_full_table_enumeration_agrees(self, order, enum_classes):
        naive = naive_classes(order)
        pruned = enum_classes[order]
        matched = (len(naive) == len(pruned)
                   and all(sum(brute_isomorphic(c, h.candidate) is not None
                               for h in pruned) == 1
                           for c in naive))
        report_line(4, f"oracle equivalence at order {order}", matched)
        assert len(naive) == len(pruned)
        for c in naive:
            assert sum(brute_isomorphic(c, h.candidate) is not None
                       for h in pruned) == 1


class TestC5ConstructionProperties:
    def test_massouros_verifies_for_small_fields(self, massouros_pool):
        ok = sorted(massouros_pool) == [2, 3, 4, 5, 7, 8, 9]
        report_line(5, "massouros on orders {2,3,4,5,7,8,9}", ok)
        assert ok  # each pool entry already passed construction-time verify

    def test_quotient_verifies_for_every_subgroup_up_to_gf11(self, quotient_pool):
        qs = {q for (q, _), _ in quotient_pool}
        ok = qs == {2, 3, 4, 5, 7, 8, 9, 11}
        report_line(5, "quotient on every subgroup, q <= 11", ok)
        assert ok  # construction-time verify again

    def test_product_verifies_for_combined_orders_up_to_36(self, massouros_pool,
                                                           quotient_pool):
        """Asserted exactly as specified; red by mathematics.

        The componentwise product of hyperfields of orders >= 2 always has
        zero divisors on the axes ((1,0).(0,1) = (0,0)), so its nonzero
        part is never a multiplicative group and verification fails at HF2.
        The quantified claim is therefore false at its very first instance.
        """
        outputs = list(massouros_pool.values()) + [h for _, h in quotient_pool]
        unique = []
        for h in outputs:
            if all(h.candidate != u.candidate for u in unique):
                unique.append(h)
        pairs = [(a, b) for a, b in combinations_with_replacement(unique, 2)
                 if a.n * b.n <= 36]
        assert pairs
        failures = []
        for a, b in sorted(pairs, key=lambda p: p[0].n * p[1].n):
            try:
                product(a, b)
            except Exception as exc:
                failures.append((a.n, b.n, exc))
                break  # the universal claim is already refuted
        report_line(5, "product pairs with combined order <= 36", not failures)
        if failures:
            n1, n2, exc = failures[0]
            pytest.fail(
                f"product of orders {n1} x {n2} does not verify: {exc}. "
                "The componentwise product of two hyperfields of orders >= 2 "
                "is a Krasner hyperring, never a hyperfield: axis pairs such "
                "as (1,0) and (0,1) multiply to (0,0), so HF2 fails. This "
                "criterion is mathematically unattainable as stated.")

    def test_small_outputs_match_enumerated_classes(self, massouros_pool,
                                                    quotient_pool, enum_classes):
        outputs = [h for h in massouros_pool.values() if h.n <= 5]
        outputs += [h for _, h in quotient_pool if h.n <= 5]
        ok = True
        for h in outputs:
            hits = sum(are_isomorphic(h, rep) is not None
                       for rep in enum_classes[h.n])
            ok = ok and hits == 1
        report_line(5, "outputs of order <= 5 are enumerated", ok)
        assert ok


class TestC6OneRowReconstruction:
    def test_every_suite_instance(self, suite_instances):
        bad = [h.n for h in suite_instances if not one_row_reconstruction_ok(h)]
        report_line(6, f"one-row reconstruction on {len(suite_instances)} instances",
                    not bad)
        assert not bad


class TestC7IsomorphismSoundnessCompleteness:
    def test_witnesses_recheck_exhaustively(self, enum_classes):
        ok = True
        for n in (2, 3, 4, 5):
            for h in enum_classes[n]:
                other = verified(relabel(h.candidate, (0, 1, *range(2, n))))
                w = are_isomorphic(h, other)
                ok = ok and w is not None and preserves_structure(
                    h.candidate, other.candidate, w.mapping)
        report_line(7, "witness soundness", ok)
        assert ok

    def test_verdicts_agree_with_brute_force_up_to_order_5(self, enum_classes):
        ok = True
        for n in (2, 3, 4, 5):
            classes = enum_classes[n]
            for i, a in enumerate(classes):
                for j, b in enumerate(classes):
                    fast = are_isomorphic(a, b) is not None
                    slow = brute_isomorphic(a.candidate, b.candidate) is not None
                    ok = ok and fast == slow == (i == j)
        report_line(7, "brute-force agreement at n <= 5", ok)
        assert ok

    def test_brute_force_confirms_relabelled_positives(self, five):
        twisted = verified(relabel(five.candidate, (0, 1, 4, 3, 2)))
        fast = are_isomorphic(five, twisted)
        slow = brute_isomorphic(five.candidate, twisted.candidate)
        ok = fast is not None and slow is not None
        report_line(7, "relabelled positives", ok)
        assert ok


class TestC8Serialization:
    def test_round_trip_identity_on_suite_instances(self, suite_instances):
        ok = True
        for h in suite_instances:
            doc = to_document(h.candidate)
            back = parse_document(render_document(doc))
            ok = ok and back == doc and candidate_from_document(back) == h.candidate
        report_line(8, f"round trip on {len(suite_instances)} instances", ok)
        assert ok

    def test_the_five_rejection_classes(self):
        text = (GOLDEN / "five_element.json").read_text(encoding="utf-8")
        cases = {
            "malformed": "{ nope",
            "dimensions": text.replace('"order": 5', '"order": 4'),
            "index-range": text.replace("[1, 4], [0, 1, 2, 3, 4], [3, 4], [4]]",
                                        "[1, 4], [0, 1, 2, 3, 4], [3, 4], [7]]"),
            "empty-cell": text.replace("[[2], [1, 2], [2],", "[[2], [], [2],"),
            "identity-misplaced": text.replace("[[0], [1], [2], [3], [4]]",
                                               "[[1], [0], [2], [3], [4]]"),
        }
        ok = True
        for code, payload in cases.items():
            try:
                parse_document(payload)
                ok = False
            except (ParseError, ValidationError) as exc:
                ok = ok and exc.code == code
        report_line(8, "five parser rejection classes", ok)
        assert ok


class TestC9Determinism:
    def _run(self, capsys, tmp_path, tag, argv):
        code = main(argv)
        captured = capsys.readouterr()
        files = {}
        root = tmp_path / tag
        if root.exists():
            for p in sorted(root.rglob("*")):
                if p.is_file():
                    files[str(p.relative_to(root))] = p.read_bytes()
        return code, captured.out, files

    def test_every_command_repeats_bytewise(self, capsys, tmp_path):
        golden = str(GOLDEN / "five_element.json")
        commands = {
            "construct": lambda d: ["construct", "--order", "12", "--out",
                                    str(d / "h.json")],
            "verify": lambda d: ["verify", golden, "--report"],
            "enumerate": lambda d: ["enumerate", "--order", "4", "--out", str(d)],
            "iso": lambda d: ["iso", golden, golden],
            "show": lambda d: ["show", golden],
        }
        ok = True
        for name, argv_of in commands.items():
            runs = []
            for attempt in (0, 1):
                workdir = tmp_path / f"{name}{attempt}"
                workdir.mkdir()
                runs.append(self._run(capsys, tmp_path, f"{name}{attempt}",
                                      argv_of(workdir)))
            ok = ok and runs[0] == runs[1]
            assert runs[0] == runs[1], f"{name} is not deterministic"
        report_line(9, "repeated runs are byte-identical", ok)

    def test_enumerate_worker_counts_agree(self, capsys, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            d = tmp_path / f"w{jobs}"
            code = main(["enumerate", "--order", "5", "--out", str(d),
                         "--jobs", jobs])
            captured = capsys.readouterr()
            listing = {p.name: p.read_bytes() for p in d.iterdir()}
            outputs.append((code, captured.out, listing))
        ok = outputs[0] == outputs[1]
        report_line(9, "worker counts agree at order 5", ok)
        assert ok

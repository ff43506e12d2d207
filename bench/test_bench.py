"""Tests of the benchmark's own parts: python3 -m pytest bench/test_bench.py"""

import json
import types

import checks
import run
import spans
import tables


def _hyperfield_like(mul, add):
    masks = [[sum(1 << e for e in cell) for cell in row] for row in add]
    return types.SimpleNamespace(n=len(mul), mul=mul, hyperadd=masks)


# --- self time ------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    tracer = spans.Tracer()
    tracer.spans = [
        ["parent", "m", 0.0, 10.0, None, 0, None],
        ["child", "m", 1.0, 3.0, 0, 0, None],
        ["child", "m", 2.0, 5.0, 0, 0, None],     # overlaps the first child
        ["child", "m", 9.0, 12.0, 0, 0, None],    # runs past the parent's end
        ["grandchild", "m", 1.5, 2.5, 1, 0, None],
    ]
    tracer.hot = {(0, "leaf", "m"): [3, 1.0, 0]}
    selfs = spans.self_times(tracer)
    # parent: 10 - |[1,5] u [9,10]| - 1.0 hot = 4
    assert selfs[0] == 4.0
    assert selfs[1] == 1.0
    assert selfs[4] == 1.0


def test_covered_ignores_children_outside_the_interval():
    assert spans.covered(5.0, 6.0, [(0.0, 1.0), (7.0, 8.0)]) == 0.0
    assert spans.covered(0.0, 4.0, [(1.0, 2.0), (1.0, 2.0)]) == 1.0


def test_wrapped_bindings_record_spans_and_are_restored():
    module = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    tracer = spans.Tracer()
    tracer.patch(module, "outer", "fake.outer")
    tracer.patch(module, "inner", "fake.inner", hot=True)
    tracer.job = 7
    assert module.outer(1) == 4
    assert [s[spans.SPAN_NAME] for s in tracer.spans] == ["fake.outer"]
    assert tracer.spans[0][spans.SPAN_JOB] == 7
    assert tracer.hot[(0, "fake.inner", "fake")][0] == 1
    tracer.restore()
    assert module.outer is outer and module.inner is inner


def test_install_wraps_the_package_and_restore_puts_every_binding_back():
    hf = run.import_package()
    modules = (hf, hf.cli, hf.core, hf.enumeration, hf.construct, hf.iso)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = spans.Tracer()
    spans.install(tracer, hf)
    assert hf.cli.main is not before[("hyperfields.cli", "main")]
    assert hf.core.AXIOM_CHECKS is not before[("hyperfields.core", "AXIOM_CHECKS")]
    tracer.restore()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


# --- the tail percentile ----------------------------------------------------


def test_tail_is_the_eleventh_slowest_job():
    value, pct = run.tail([float(i) for i in range(40, 0, -1)])
    assert value == 30.0 and pct == 75.0
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert value == 90.0 and pct == 90.0


def test_tail_falls_back_to_the_slowest_of_ten_or_fewer_jobs():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# --- output checks reject wrong answers -----------------------------------


def test_enumerate_check_rejects_a_wrong_count():
    expect = {"order": 6, "classes": 16, "outdir": None}
    assert checks.check_enumerate(expect, 0, "16\n", "") is None
    assert checks.check_enumerate(expect, 0, "15\n", "") is not None
    assert checks.check_enumerate(expect, 3, "", "budget exceeded") is not None


def test_enumerate_check_counts_class_files(tmp_path):
    mul, add = tables.pair_tables(4)
    for i in range(7):
        (tmp_path / f"c{i}.json").write_text(tables.document_text(mul, add) + " " * i)
    expect = {"order": 4, "classes": 7, "outdir": str(tmp_path)}
    assert checks.check_enumerate(expect, 0, "7\n", "") is None
    (tmp_path / "c0.json").unlink()
    assert "6 files" in checks.check_enumerate(expect, 0, "7\n", "")


def test_construct_check_rejects_the_wrong_order():
    text = tables.document_text(*tables.pair_tables(8))
    summary = "order=8 method=auto verification=pass\n"
    assert checks.check_construct({"order": 8, "out": None}, 0, text, summary) is None
    assert checks.check_construct({"order": 9, "out": None}, 0, text, summary) is not None
    assert checks.check_construct({"order": 8, "out": None}, 0, text[:-5], summary) is not None


def _report(axiom, witness):
    return (f"CH1 hyperaddition associative: pass\n{axiom} x: FAIL "
            f"witness={witness} reason=r\noverall: fail\n")


def test_verify_check_rejects_a_witness_that_is_not_the_asymmetry():
    mul, add = tables.pair_tables(8)
    add[2][3] = [2, 3, 5]
    expect = {"axiom": "CH2", "mul": mul, "add": add}
    assert checks.check_verify(expect, 1, _report("CH2", (2, 3)), "") is None
    assert checks.check_verify(expect, 1, _report("CH2", (2, 4)), "") is not None
    assert checks.check_verify(expect, 0, _report("CH2", (2, 3)), "") is not None
    assert checks.check_verify(expect, 1, "CH2 x: pass\noverall: fail\n", "") is not None


def test_verify_check_reads_multiplication_asymmetries():
    mul, add = tables.pair_tables(8)
    mul[4][2] = 1
    expect = {"axiom": "HF1", "mul": mul, "add": add}
    assert checks.check_verify(expect, 1, _report("HF1", (2, 4)), "") is None
    assert checks.check_verify(expect, 1, _report("HF1", (2, 3)), "") is not None


def test_product_check_requires_hf2():
    err = "error: product failed verification: axiom HF2 fails at (2, 9): zero divisor\n"
    assert checks.check_product({}, 1, "", err) is None
    assert checks.check_product({}, 1, "", err.replace("HF2", "KR3")) is not None
    assert checks.check_product({}, 0, "", err) is not None


def test_iso_check_rejects_a_witness_that_does_not_map_the_tables():
    mul, add = tables.triple_sum_tables(7)
    perm = (0, 1, 3, 2, 4, 6, 5)
    h1 = _hyperfield_like(mul, add)
    h2 = _hyperfield_like(*tables.relabel(mul, add, perm))
    right = types.SimpleNamespace(mapping=perm)
    wrong = types.SimpleNamespace(mapping=tuple(range(7)))
    assert checks.check_iso({"isomorphic": True}, (h1, h2), right) is None
    assert checks.check_iso({"isomorphic": True}, (h1, h2), wrong) is not None
    assert checks.check_iso({"isomorphic": True}, (h1, h2), None) is not None


def test_iso_check_accepts_a_negative_only_where_cell_sizes_differ():
    same = (_hyperfield_like(*tables.pair_tables(8)), _hyperfield_like(*tables.pair_tables(8)))
    other = (_hyperfield_like(*tables.pair_tables(8)),
             _hyperfield_like(*tables.quotient_tables(29, 4)))
    assert checks.check_iso({"isomorphic": False}, same, None) is not None
    assert checks.check_iso({"isomorphic": False}, other, None) is None


def test_a_raised_or_malformed_answer_counts_as_wrong():
    h = _hyperfield_like(*tables.pair_tables(8))
    job = run.workloads.Job("iso", pair=(h, h), expect={"isomorphic": True})
    assert run.check(job, ("returned", object())).startswith("answer could not be checked")
    assert run.check(job, ("raised", "Traceback\nValueError: x\n")).startswith("uncaught")


# --- seeded inputs --------------------------------------------------------


def test_one_seed_gives_byte_identical_inputs(tmp_path):
    digests = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        inputs = run.workloads.Inputs(tmp_path / sub)
        jobs = run.workloads.build_jobs("verify_reject", 3, 2, inputs, None)
        digests.append(inputs.digest())
        assert jobs
    assert digests[0] == digests[1]
    other = run.workloads.Inputs(tmp_path / "a")
    run.workloads.build_jobs("verify_reject", 4, 2, other, None)
    assert other.digest() != digests[0]


# --- BENCHMARK.json -------------------------------------------------------


def test_benchmark_json_lists_exactly_the_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    reported = [*spans.layer_metrics(spans.Tracer()), "trace.overhead_s",
                "trace.counters_reproduce"]
    assert [m["name"] for m in doc["per_layer"]] == reported
    assert all(m["unit"] == run.unit_of(m["name"]) for m in doc["per_layer"])
    assert [w["name"] for w in doc["workloads"]] == list(run.workloads.WORKLOADS)

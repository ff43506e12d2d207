import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hyperfields import (
    candidate_from_document,
    enumerate_hyperfields,
    enumeration,
    fingerprint,
    parse_document,
    relabel,
    render_document,
    to_document,
    verify,
)
from hyperfields.cli import main
from conftest import SteppingClock, five_element_candidate
from test_io_format import FIVE_TABLE_TEXT

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_verified(path):
    doc = parse_document(Path(path).read_text(encoding="utf-8"))
    c = candidate_from_document(doc)
    assert verify(c).ok
    return c


class TestConstruct:
    def test_auto_order_six(self, capsys, tmp_path):
        out_path = tmp_path / "h6.json"
        code, out, err = run_cli(capsys, "construct", "--order", "6", "--out", str(out_path))
        assert code == 0
        assert out.strip() == "order=6 method=auto verification=pass"
        assert read_verified(out_path).n == 6

    def test_document_on_stdout_when_no_out(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--order", "3")
        assert code == 0
        doc = parse_document(out)
        assert doc.order == 3
        assert "verification=pass" in err

    def test_order_one_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--order", "1")
        assert code == 2

    def test_order_above_capacity(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "--order", "65")
        assert code == 3

    def test_auto_requires_order(self, capsys):
        code, _, _ = run_cli(capsys, "construct")
        assert code == 2

    def test_quotient_method(self, capsys, tmp_path):
        out_path = tmp_path / "q.json"
        code, out, _ = run_cli(capsys, "construct", "--method", "quotient",
                               "--field", "5,1", "--gens", "4", "--out", str(out_path))
        assert code == 0
        assert read_verified(out_path).n == 3

    def test_massouros_method(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, _, _ = run_cli(capsys, "construct", "--method", "massouros",
                             "--field", "3", "--out", str(out_path))
        assert code == 0
        assert read_verified(out_path).n == 3

    def test_product_method_reports_the_zero_divisor_failure(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "construct", "--order", "2", "--out", str(a))
        run_cli(capsys, "construct", "--order", "3", "--out", str(b))
        code, _, err = run_cli(capsys, "construct", "--method", "product",
                               "--inputs", str(a), str(b), "--out", str(tmp_path / "p.json"))
        assert code == 1
        assert "HF2" in err

    def test_inconsistent_order_and_method(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "--order", "4",
                             "--method", "massouros", "--field", "3")
        assert code == 2

    def test_bad_field_argument(self, capsys):
        assert run_cli(capsys, "construct", "--method", "massouros", "--field", "x")[0] == 2
        assert run_cli(capsys, "construct", "--method", "massouros", "--field", "4,1")[0] == 2


class TestVerify:
    def test_golden_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(GOLDEN / "five_element.json"))
        assert code == 0 and out.strip() == "pass"

    def test_report_lists_all_axioms(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(GOLDEN / "five_element.json"),
                               "--report")
        assert code == 0
        for axiom in ("CH1", "CH2", "CH3", "CH4", "CH5", "KR1", "KR2", "KR3",
                      "HF1", "HF2"):
            assert f"{axiom} " in out
        assert "overall: pass" in out

    def test_mutated_cell_names_the_axiom(self, capsys, tmp_path):
        text = (GOLDEN / "five_element.json").read_text(encoding="utf-8")
        mutated = text.replace("[2, 3], [0, 1, 2, 3, 4]]", "[2], [0, 1, 2, 3, 4]]")
        assert mutated != text
        bad = tmp_path / "bad.json"
        bad.write_text(mutated, encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", str(bad), "--report")
        assert code == 1
        assert "CH2" in out and "witness=" in out

    def test_truncated_file(self, capsys, tmp_path):
        bad = tmp_path / "trunc.json"
        bad.write_text((GOLDEN / "five_element.json").read_text()[:40], encoding="utf-8")
        assert run_cli(capsys, "verify", str(bad))[0] == 2

    def test_missing_file(self, capsys):
        assert run_cli(capsys, "verify", "no-such-file.json")[0] == 2


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--order", "3", "--count-only")
        assert code == 0 and out.strip() == "5"

    def test_out_directory(self, capsys, tmp_path):
        outdir = tmp_path / "classes"
        code, out, _ = run_cli(capsys, "enumerate", "--order", "2", "--out", str(outdir))
        assert code == 0 and out.strip() == "2"
        files = sorted(outdir.iterdir())
        assert len(files) == 2
        assert all(f.name.startswith("order2_") for f in files)
        for f in files:
            read_verified(f)

    def test_worker_counts_agree_bytewise(self, capsys, tmp_path):
        d1, d2 = tmp_path / "j1", tmp_path / "j2"
        code1, out1, _ = run_cli(capsys, "enumerate", "--order", "4", "--out", str(d1))
        code2, out2, _ = run_cli(capsys, "enumerate", "--order", "4", "--out", str(d2),
                                 "--jobs", "2")
        assert code1 == code2 == 0 and out1 == out2
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        assert names1 == names2
        for name in names1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_out_names_are_fingerprint_digests(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "enumerate", "--order", "4", "--out", str(tmp_path))
        classes = enumerate_hyperfields(4)
        assert code == 0 and out.strip() == str(len(classes))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == len(set(names)) == len(classes)
        assert all(re.fullmatch(r"order4_[0-9a-f]{12}\.json", name) for name in names)
        for h in classes:
            digest = hashlib.sha256(repr(fingerprint(h)).encode()).hexdigest()[:12]
            text = (tmp_path / f"order4_{digest}.json").read_text(encoding="utf-8")
            assert text == render_document(to_document(h.candidate))

    def test_budget_exceeded_is_status_three(self, capsys, monkeypatch):
        # One second passes per clock reading, so the first shard is late.
        monkeypatch.setattr(enumeration, "time", SteppingClock(1.0))
        code, out, err = run_cli(capsys, "enumerate", "--order", "5",
                                 "--budget", "0.5")
        assert code == 3
        assert out == ""  # never a wrong count
        assert "budget exceeded" in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, monkeypatch, jobs):
        def no_search(*args, **kwargs):
            raise AssertionError("argument parsing must reject --jobs first")

        monkeypatch.setattr("hyperfields.cli.enumerate_hyperfields", no_search)
        code, out, err = run_cli(capsys, "enumerate", "--order", "3", "--jobs", jobs)
        assert code == 2 and out == ""
        assert err.startswith("usage:")
        assert f"argument --jobs: must be at least 1, got {jobs}" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--budget", "nan", "must be positive and finite, got nan"),
        ("--budget", "inf", "must be positive and finite, got inf"),
        ("--budget", "0", "must be positive and finite, got 0"),
        ("--budget", "-1", "must be positive and finite, got -1"),
        ("--budget", "soon", "invalid float value: 'soon'"),
        ("--progress", "-3", "must be at least 0, got -3"),
    ])
    def test_bad_budget_or_progress_is_a_usage_error(self, capsys, monkeypatch,
                                                     flag, value, message):
        def no_search(*args, **kwargs):
            raise AssertionError(f"argument parsing must reject {flag} first")

        monkeypatch.setattr("hyperfields.cli.enumerate_hyperfields", no_search)
        code, out, err = run_cli(capsys, "enumerate", "--order", "3", flag, value)
        assert code == 2 and out == ""
        assert err.startswith("usage:")
        assert f"argument {flag}: {message}" in err

    def test_count_only_and_out_are_exclusive(self, capsys, monkeypatch, tmp_path):
        def no_search(*args, **kwargs):
            raise AssertionError("argument parsing must reject the pair first")

        monkeypatch.setattr("hyperfields.cli.enumerate_hyperfields", no_search)
        outdir = tmp_path / "classes"
        code, out, err = run_cli(capsys, "enumerate", "--order", "3", "--count-only",
                                 "--out", str(outdir))
        assert code == 2 and out == ""
        assert err.startswith("usage:")
        assert "not allowed with argument" in err
        assert not outdir.exists()

    def test_unsupported_order(self, capsys):
        assert run_cli(capsys, "enumerate", "--order", "7")[0] == 3

    def test_progress_goes_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--order", "3",
                                 "--count-only", "--progress", "1")
        assert code == 0
        assert "scanned=" in err


class TestIso:
    def test_same_file_identity(self, capsys):
        path = str(GOLDEN / "five_element.json")
        code, out, _ = run_cli(capsys, "iso", path, path)
        assert code == 0
        assert out.strip() == "isomorphic: 0->0 1->1 2->2 3->3 4->4"

    def test_field_vs_massouros(self, capsys, tmp_path):
        a, b = tmp_path / "f3.json", tmp_path / "m3.json"
        from hyperfields import from_field, gf, massouros
        a.write_text(render_document(to_document(from_field(gf(3)).candidate)))
        b.write_text(render_document(to_document(massouros(gf(3)).candidate)))
        code, out, _ = run_cli(capsys, "iso", str(a), str(b))
        assert code == 1 and out.strip() == "not isomorphic"

    def test_relabelled_copy(self, capsys, tmp_path):
        c = five_element_candidate()
        other = relabel(c, (0, 1, 3, 4, 2))
        path = tmp_path / "relabel.json"
        path.write_text(render_document(to_document(other)))
        code, out, _ = run_cli(capsys, "iso", str(GOLDEN / "five_element.json"), str(path))
        assert code == 0 and out.startswith("isomorphic:")

    def test_each_input_is_verified_once(self, capsys, monkeypatch, tmp_path):
        calls = []

        def counting_verify(c):
            calls.append(c.n)
            return verify(c)

        monkeypatch.setattr("hyperfields.core.verify", counting_verify)
        monkeypatch.setattr("hyperfields.cli.verify", counting_verify)
        other = tmp_path / "relabel.json"
        other.write_text(render_document(to_document(relabel(five_element_candidate(),
                                                             (0, 1, 3, 4, 2)))))
        code, out, _ = run_cli(capsys, "iso", str(GOLDEN / "five_element.json"), str(other))
        assert code == 0 and out.startswith("isomorphic:")
        assert calls == [5, 5]

    def test_unverifiable_input_is_distinct_from_non_isomorphic(self, capsys, tmp_path):
        text = (GOLDEN / "five_element.json").read_text(encoding="utf-8")
        mutated = text.replace("[2, 3], [0, 1, 2, 3, 4]]", "[2], [0, 1, 2, 3, 4]]")
        bad = tmp_path / "bad.json"
        bad.write_text(mutated, encoding="utf-8")
        code, out, _ = run_cli(capsys, "iso", str(bad), str(bad))
        assert code == 1
        assert "fails verification" in out
        assert "not isomorphic" not in out


class TestShow:
    def test_five_element_grids(self, capsys):
        code, out, _ = run_cli(capsys, "show", str(GOLDEN / "five_element.json"))
        assert code == 0 and out == FIVE_TABLE_TEXT

    def test_labels_override(self, capsys):
        code, out, _ = run_cli(capsys, "show", str(GOLDEN / "krasner_two.json"),
                               "--labels", "z,u")
        assert code == 0
        assert "{z,u}" in out

    def test_label_mismatch(self, capsys):
        code, _, _ = run_cli(capsys, "show", str(GOLDEN / "krasner_two.json"),
                             "--labels", "a,b,c")
        assert code == 2

    def test_missing_file(self, capsys):
        assert run_cli(capsys, "show", "nope.json")[0] == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperfields", "enumerate", "--order", "2",
             "--count-only"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2"

    def test_usage_error_is_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperfields", "bogus"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2

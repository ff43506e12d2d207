"""scripts/ab.py, the A/B driver over bench/run.py: one short pair with the
tree as its own parent, and the sign test it prints."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_pair_of_the_tree_against_itself_prints_every_metric(ab, capsys, tmp_path):
    """Needs no git: --parent-dir names the tree itself."""
    out = tmp_path / "pairs.json"
    assert ab.main(["--parent-dir", str(ROOT), "--pairs", "1", "--seconds", "1",
                    "--workloads", "iso_pairs", "--json", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    for m in metrics:
        (row,) = [line.split() for line in printed if line.split()[:1] == [m["name"]]]
        assert float(row[1]) > 0 and float(row[2]) > 0 and row[4] in ("0/1", "1/1"), row
    assert "  failed runs: parent 0, change 0" in printed
    (pair,) = json.loads(out.read_text(encoding="utf-8"))["pairs"]
    assert (pair["workload"], pair["seed"], pair["first"]) == ("iso_pairs", 1, "parent")
    for side in ("parent", "change"):
        assert pair[side]["exit"] == 0 and pair[side]["failed"] == 0
        assert set(pair[side]["metrics"]) >= {m["name"] for m in metrics}


@pytest.mark.parametrize("lower, higher, p", [(0, 0, 1.0), (10, 0, 2 / 1024), (0, 10, 2 / 1024),
                                              (9, 1, 22 / 1024), (5, 5, 1.0), (1, 0, 1.0)])
def test_sign_test_is_exact_and_two_sided(ab, lower, higher, p):
    assert ab.sign_test(lower, higher) == pytest.approx(p)


def test_unknown_workloads_and_empty_runs_are_refused(ab, capsys):
    for argv in (["--workloads", "nope"], ["--pairs", "0"]):
        with pytest.raises(SystemExit) as exit_:
            ab.main(["--parent-dir", str(ROOT), *argv])
        assert exit_.value.code == 2

"""scripts/bench_pairs.py: the summary of alternating parent/change pairs, on
fixed numbers; no benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(correct=True, failed=0, **values):
    return {"correct": correct, "failed": failed,
            "metrics": {name.replace("__", "."): {"value": v, "unit": "s"}
                        for name, v in values.items()}}


def test_summary_gives_medians_wins_and_the_parent_iqr(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.5, 2.0, 3.0]
    metric = [0.8, 0.8, 0.8, 0.8], [0.8, 0.9, 0.7, 0.8]
    pairs = [(run(epoch_s__p50=p, test_metric=mp), run(epoch_s__p50=c, test_metric=mc))
             for p, c, mp, mc in zip(parent, change, *metric)]
    got = bench_pairs.summarize(pairs, [("epoch_s.p50", "lower"), ("test_metric", "higher")])
    epoch = got["metrics"]["epoch_s.p50"]
    assert epoch["parent_median"] == 2.5 and epoch["change_median"] == 2.25
    assert epoch["change_over_parent"] == pytest.approx(-0.1)
    # the change was lower in pairs 1, 3 and 4; the parent's quartiles are
    # 1.75 and 3.25
    assert epoch["wins"] == 3 and epoch["ties"] == 0 and epoch["pairs"] == 4
    assert epoch["parent_iqr"] == pytest.approx(1.5)
    # higher is better, and a tie is no win
    accuracy = got["metrics"]["test_metric"]
    assert accuracy["wins"] == 1 and accuracy["ties"] == 2 and accuracy["parent_iqr"] == 0.0


def test_summary_lists_every_run_and_skips_a_metric_a_run_lacks(bench_pairs):
    pairs = [(run(setup_s=0.3), run(setup_s=0.2)),
             (run(setup_s=0.4), run(correct=False, failed=3))]
    got = bench_pairs.summarize(pairs, [("setup_s", "lower"), ("peak_alloc_mb", "lower")])
    assert got["metrics"] == {"setup_s": {
        "parent_median": 0.3, "change_median": 0.2,
        "change_over_parent": pytest.approx(-1 / 3), "wins": 1, "ties": 0, "pairs": 1,
        "parent_iqr": 0.0}}
    assert got["runs"] == [
        {"pair": 1, "side": "parent", "correct": True, "failed": 0},
        {"pair": 1, "side": "change", "correct": True, "failed": 0},
        {"pair": 2, "side": "parent", "correct": True, "failed": 0},
        {"pair": 2, "side": "change", "correct": False, "failed": 3}]

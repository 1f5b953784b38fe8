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
        "parent_iqr": 0.0, "gain": True}}
    assert got["runs"] == [
        {"pair": 1, "side": "parent", "correct": True, "failed": 0},
        {"pair": 1, "side": "change", "correct": True, "failed": 0},
        {"pair": 2, "side": "parent", "correct": True, "failed": 0},
        {"pair": 2, "side": "change", "correct": False, "failed": 3}]


def test_the_gain_rule_needs_nine_wins_in_ten_and_a_median_past_the_parent_iqr(bench_pairs):
    # the parent's quartiles are 1.225 and 1.775, an IQR of 0.55
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.6, 1.7, 1.8, 1.9, 2.0]
    rules = [("epoch_s.p50", "lower")]

    def gain(change):
        pairs = [(run(epoch_s__p50=p), run(epoch_s__p50=c)) for p, c in zip(parent, change)]
        got = bench_pairs.summarize(pairs, rules)["metrics"]["epoch_s.p50"]
        return got["wins"], got["parent_iqr"], got["gain"]

    wins, iqr, ok = gain([p - 0.6 for p in parent])
    assert (wins, ok) == (10, True) and iqr == pytest.approx(0.55)
    # nine wins are enough; eight are not
    assert gain([p - 0.6 for p in parent[:9]] + [3.0]) == (9, pytest.approx(0.55), True)
    assert gain([p - 0.6 for p in parent[:8]] + [3.0, 3.0])[::2] == (8, False)
    # ten wins whose median is better by less than the IQR are no gain
    assert gain([p - 0.4 for p in parent])[::2] == (10, False)
    # higher is better: a lower metric is a loss on every pair
    pairs = [(run(test_metric=p), run(test_metric=p - 0.6)) for p in parent]
    got = bench_pairs.summarize(pairs, [("test_metric", "higher")])["metrics"]["test_metric"]
    assert got["wins"] == 0 and got["gain"] is False


def test_a_run_that_is_not_correct_or_failed_operations_is_named(bench_pairs):
    runs = [{"pair": 1, "side": "parent", "correct": True, "failed": 0},
            {"pair": 1, "side": "change", "correct": True, "failed": 2},
            {"pair": 2, "side": "parent", "correct": False, "failed": 0},
            {"pair": 2, "side": "change", "correct": None, "failed": None}]
    assert bench_pairs.failed_runs(runs) == [
        "pair 1 change: correct=True, failed=2",
        "pair 2 parent: correct=False, failed=0",
        "pair 2 change: correct=None, failed=None"]
    assert bench_pairs.failed_runs(runs[:1]) == []


@pytest.mark.parametrize("bad", [None, {"correct": False, "failed": 0},
                                 {"correct": True, "failed": 1}])
def test_main_exits_nonzero_when_a_run_fails(bench_pairs, monkeypatch, capsys, bad):
    # no checkout is exported and no benchmark runs: every run is fixed
    repo = SCRIPT.parents[1]
    monkeypatch.setattr(bench_pairs, "_git", lambda args, cwd, env=None: str(repo))
    monkeypatch.setattr(bench_pairs, "_export", lambda *args: None)
    monkeypatch.setattr(bench_pairs, "_working_tree", lambda *args: "tree")
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append(root.name)
        if bad is not None and len(calls) == 4:  # pair 2 runs the change first
            return {**bad, "metrics": {}}
        return run(setup_s=0.1)
    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    code = bench_pairs.main(["--parent", "HEAD", "--workload", "cora-class", "--pairs", "2"])
    assert calls == ["parent", "change", "change", "parent"]
    err = capsys.readouterr().err
    if bad is None:
        assert code == 0 and "parent:" not in err and "change:" not in err
    else:
        assert code == 1 and "pair 2 parent:" in err

"""Self-tests of the benchmark: generators, span arithmetic, traced counts.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from hamgnn import graphdata as gd  # noqa: E402


def _same(a, b):
    fa, la, ea, sa = a
    fb, lb, eb, sb = b
    return (np.array_equal(fa, fb) and np.array_equal(la, lb) and np.array_equal(ea, eb)
            and all(np.array_equal(sa[k], sb[k]) for k in sa))


def test_cora_generator_is_deterministic_per_seed():
    assert _same(gen.cora(3), gen.cora(3))
    assert not _same(gen.cora(3), gen.cora(4))


def test_cora_generator_has_the_stated_shape(tmp_path):
    features, labels, edges, splits = gen.cora(0)
    assert features.shape == (2708, 1433) and set(np.unique(features)) == {0, 1}
    assert 10 <= features.sum(axis=1).mean() <= 25 and features.sum(axis=1).min() >= 1
    assert sorted(np.bincount(labels).tolist()) == sorted(gen.CORA_CLASS_SIZES)
    assert edges.shape == (5278, 2)
    assert np.all(edges[:, 0] < edges[:, 1])
    assert len({tuple(e) for e in edges.tolist()}) == 5278
    degree = np.bincount(edges.ravel(), minlength=2708)
    # heavy tail: a few hubs, most nodes with one or two neighbours
    assert np.median(degree) <= 3 and degree.max() >= 20 * np.median(degree)
    assert [len(splits[k]) for k in ("train", "val", "test")] == [140, 500, 1000]
    assert len(np.unique(np.concatenate(list(splits.values())))) == 1640

    gen.write(tmp_path / "cora", features, labels, edges, splits)
    ds = gd.load_dataset(tmp_path / "cora")
    assert (ds.n, ds.num_features, ds.num_classes, len(ds.edges)) == (2708, 1433, 7, 5278)
    np.testing.assert_allclose(ds.features.sum(axis=1), 1.0)
    np.testing.assert_array_equal(ds.labels, labels)


@pytest.mark.parametrize("make, n, m", [(lambda s: gen.tree(s, 7), 255, 254),
                                        (lambda s: gen.grid(s, 6), 36, 60)])
def test_small_generators(tmp_path, make, n, m):
    assert _same(make(1), make(1))
    features, labels, edges, splits = make(1)
    assert features.shape[0] == n and edges.shape == (m, 2)
    assert set(labels.tolist()) == {0, 1}
    gen.write(tmp_path / "d", features, labels, edges, splits)
    ds = gd.load_dataset(tmp_path / "d")
    np.testing.assert_allclose(ds.features, features / features.sum(axis=1, keepdims=True))


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == 4.0


def test_self_time_subtracts_children():
    spans = [["root", 0.0, 10.0, None],
             ["a", 1.0, 4.0, 0],
             ["a.child", 2.0, 3.0, 1],
             ["b", 5.0, 9.0, 0]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # a window cuts spans and children alike
    assert tracing.self_times(spans, (3.5, 6.0)) == [1.0, 0.5, 0.0, 1.0]


def test_tracer_records_nesting_and_restores():
    def inner(x):
        return x + 1

    mod = types.SimpleNamespace(inner=inner)
    mod.outer = lambda x: mod.inner(x) * 2
    ticks = iter(range(100))
    tracer = tracing.Tracer([(mod, "outer", "outer"), (mod, "inner", "inner")],
                            keep=("inner",), clock=lambda: float(next(ticks)))
    with tracer:
        assert mod.outer(1) == 4
    assert mod.inner is inner
    assert tracer.spans == [["outer", 0.0, 3.0, None], ["inner", 1.0, 2.0, 0]]
    assert [(i, args, result) for i, args, _, result in tracer.calls] == [(1, (1,), 2)]


def test_new_node_walk_counts_only_nodes_made_after():
    from hamgnn import engine as eg
    q = eg.parameter("q", (3,))
    old = eg.tanh(q)
    new = eg.add(old, eg.constant(np.ones(3)))
    assert len(tracing.walk([new])) == 4
    assert len(tracing.walk([new], stop_below=old.nid)) == 2


# the traced run on small inputs: one classification and one link workload
SMALL = {
    "tree": {"data": ("tree", {"depth": 3}),
             "model": {"hidden_dim": 4, "layers": 2, "variant": "convex",
                       "decoder": "classification"},
             "integration": {"method": "rk4", "horizon": 1.0, "step": 0.5},
             "train": {"lr": 0.01, "weight_decay": 0.001, "task": "classification"}},
    "grid-link": {"data": ("grid", {"side": 5}),
                  "model": {"hidden_dim": 4, "layers": 2, "variant": "flexible",
                            "decoder": "link"},
                  "integration": {"method": "euler", "horizon": 1.0, "step": 0.5},
                  "train": {"lr": 0.01, "weight_decay": 0.001, "task": "link"}},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(tmp_path, name, monkeypatch):
    monkeypatch.setattr(worker, "TRACE_EPOCHS", 4)
    workload = SMALL[name]
    kind, options = workload["data"]
    gen.write(tmp_path / "d", *getattr(gen, kind)(2, **options))
    runs = [worker.run_traced(name, workload, tmp_path / "d", 2, None) for _ in range(2)]
    for metrics, checks, *_ in runs:
        assert checks.failed == 0, checks.results
    counts = [{k: v for k, (v, unit) in metrics.items() if unit in ("count", "B", "flop")}
              for metrics, *_ in runs]
    assert counts[0] == counts[1]
    assert counts[0]["engine.graph_nodes"] > 0
    per_epoch_gradients = counts[0]["engine.gradient_all_calls"]
    assert per_epoch_gradients == (1.0 if workload["train"]["task"] == "link" else 0.0)


def test_benchmark_json_matches_the_workload_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS.values():
        intervals = (workload["epochs"] - 1
                     + (workload["min_fits"] - 1) * (workload["short_epochs"] - 1))
        assert intervals * (100 - workload["tail_pct"]) >= 10 * 100


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cora-class",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

#!/usr/bin/env python3
"""What ``engine.evaluate`` plans for a benchmark workload's training graph.

Usage:
    python scripts/plan_report.py --workload cora-class [--seed 1]

Run from anywhere inside a source checkout.  The workload comes from
``perfbench/workloads.py``; its dataset is generated by ``perfbench/gen.py``
into a temporary directory, which is removed afterwards, and nothing else is
written.  A one-epoch ``train.fit`` builds the training graph, which is
caught at its ``engine.evaluate`` call.  The script prints one JSON object:

* ``n_row_nodes`` and ``n_row_reruns``: the computed nodes with one row per
  graph vertex (no leaf, no view) and how many of them the plan runs a
  second time; ``n_row_runs`` is their sum;
* ``recomputes``: every node the plan runs again, counted by op and shape;
* ``planned_peak``: the node at which the plan's live bytes are highest,
  and those bytes (views and leaves own none, a node run in place still
  counts as new bytes, so this over-counts);
* ``traced_peak_mb``: the ``tracemalloc`` peak of one warm evaluation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hamgnn import engine as eg  # noqa: E402


def _owned_bytes(node) -> int:
    if node.op in eg._LEAVES or node.op in eg._VIEWS:
        return 0
    return 8 * math.prod(node.shape)


def plan_report(outputs, rows: int) -> dict:
    """The plan of one evaluation of ``outputs``, read from the graph alone:
    n-row node counts, recomputes and the planned peak (see the module
    docstring).  ``rows`` is the number of graph vertices."""
    outputs = list(outputs)
    order = eg._reachable(outputs)
    free, redo = eg._plan(order, {o.nid for o in outputs})
    computed = [n for n in order if n.op not in eg._LEAVES and n.op not in eg._VIEWS]
    again = [n for runs in redo.values() for n, _ in runs]
    n_row = lambda n: n.shape[:1] == (rows,) and n.op not in eg._VIEWS
    live: dict[int, int] = {}
    total = top = 0
    peak = (None, -1)
    for i, node in enumerate(order):
        for other, gone in [*redo.get(i, ()), (node, free.get(i, ()))]:
            live[other.nid] = _owned_bytes(other)
            total += live[other.nid]
            if total > top:
                top, peak = total, (other, i)
            for nid in gone:
                total -= live.pop(nid)
    made, reruns = sum(n_row(n) for n in computed), sum(n_row(n) for n in again)
    return {
        "nodes": len(order),
        "n_row_nodes": made,
        "n_row_reruns": reruns,
        "n_row_runs": made + reruns,
        "recomputes": len(again),
        "recomputes_by_op_and_shape": {
            f"{op} {list(shape)}": k for (op, shape), k in
            sorted(Counter((n.op, n.shape) for n in again).items())},
        "planned_peak": {"node": repr(peak[0]), "position": peak[1], "mb": top / 2**20},
    }


def traced_peak_mb(outputs, bindings) -> float:
    """The ``tracemalloc`` peak of one evaluation after a warm-up one."""
    eg.evaluate(outputs, bindings)
    tracemalloc.start()
    try:
        eg.evaluate(outputs, bindings)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def training_graph(workload: dict, seed: int, data_dir: Path):
    """The outputs and bindings of the first training evaluation of a
    one-epoch fit of ``workload``, and the number of graph vertices."""
    import gen
    import tracing

    from hamgnn import graphdata as gd
    from hamgnn import train as tr
    from hamgnn.model import ModelConfig
    from hamgnn.odeint import IntegrationConfig
    from hamgnn.train import TrainConfig

    kind, options = workload["data"]
    gen.write(data_dir, *getattr(gen, kind)(seed, **options))
    dataset = gd.load_dataset(data_dir)
    model_cfg = ModelConfig(integration=IntegrationConfig(**workload["integration"]),
                            **workload["model"])
    train_cfg = TrainConfig(seed=seed, max_epochs=1, patience=1, **workload["train"])
    tracer = tracing.Tracer([(eg, "evaluate", "engine.evaluate")], keep=("engine.evaluate",))
    with tracer:
        tr.fit(model_cfg, train_cfg, dataset)
    _, args, kwargs, _ = tracer.calls[0]
    bindings = args[1] if len(args) > 1 else kwargs.get("bindings")
    return list(args[0]), bindings, dataset.n


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="plan of a workload's training evaluation")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="plan-report-") as tmp:
        outputs, bindings, rows = training_graph(WORKLOADS[args.workload], args.seed,
                                                 Path(tmp) / "data")
    report = plan_report(outputs, rows)
    report["traced_peak_mb"] = traced_peak_mb(outputs, bindings)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

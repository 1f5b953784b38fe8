"""scripts/plan_report.py: the plan of a training evaluation, read from the
graph, against what one evaluation runs."""

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hamgnn import engine as eg
from hamgnn import graphdata as gd
from hamgnn.model import ModelConfig

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "plan_report.py"
SBM_300 = {"sizes": (150, 150), "p_in": 0.1, "p_out": 0.01, "seed": 0}


@pytest.fixture(scope="module")
def plan_report():
    spec = importlib.util.spec_from_file_location("plan_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_report_counts_what_one_evaluation_runs(plan_report, training_outputs,
                                                   monkeypatch):
    ds = gd.synth_dataset("sbm", **SBM_300)
    cfg = ModelConfig(hidden_dim=16, layers=3, variant="flexible")
    outputs, bindings = training_outputs(cfg, ds)
    report = plan_report.plan_report(outputs, ds.n)
    runs = Counter()
    for op, rule in list(eg._FORWARD.items()):
        def spy(node, vals, rule=rule, **kw):
            runs[node.nid] += 1
            return rule(node, vals, **kw)
        monkeypatch.setitem(eg._FORWARD, op, spy)
    eg.evaluate(outputs, bindings)
    monkeypatch.undo()
    nodes = {n.nid: n for n in eg._reachable(outputs)}
    n_row = {nid for nid, n in nodes.items() if n.shape[:1] == (ds.n,)
             and n.op not in eg._VIEWS | eg._LEAVES}
    assert report["nodes"] == len(nodes)
    assert report["n_row_nodes"] == len(n_row) == 105
    assert report["n_row_runs"] == sum(runs[nid] for nid in n_row) == 120
    assert report["n_row_reruns"] == 15
    # every tanh slope with its square, three sums and nine (H, H) values
    assert report["recomputes"] == sum(k - 1 for k in runs.values()) == 24
    assert report["recomputes_by_op_and_shape"] == {
        "elementwise-add [300, 16]": 3, "elementwise-mul [16, 16]": 6,
        "elementwise-mul [300, 16]": 6, "elementwise-sub [300, 16]": 6,
        "expand [16, 16]": 3}
    # the planned peak counts each in-place value as new bytes, so it
    # over-counts the traced one a little
    peak = report["planned_peak"]
    assert peak["node"] == repr(list(nodes.values())[peak["position"]])
    traced = plan_report.traced_peak_mb(outputs, bindings)
    assert 0.9 * peak["mb"] < traced < peak["mb"]


def test_the_script_reports_a_workload_and_leaves_no_file(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--workload", "cora-class"],
                          cwd=tmp_path, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    assert report["workload"] == "cora-class" and report["n_row_runs"] == 120
    assert report["recomputes"] == 24 and report["traced_peak_mb"] > 0
    assert list(tmp_path.iterdir()) == []

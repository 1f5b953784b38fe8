"""One workload, measured in a fresh process.

Started by ``run.py`` with the BLAS thread variables already in the
environment, so they take effect before numpy loads.  Prints a readable
report, then the result as one JSON object on the last line.

    python3 perfbench/worker.py --workload NAME --dataset DIR --seed N \
        --seconds S --trace 0|1 [--trace-out FILE]

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it makes one untraced and one traced fit of ``TRACE_EPOCHS`` epochs and
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

from hamgnn import engine as eg
from hamgnn import graphdata as gd
from hamgnn import hamiltonian as ham
from hamgnn import model as md
from hamgnn import train as tr
from hamgnn.model import ModelConfig
from hamgnn.odeint import IntegrationConfig
from hamgnn.train import TrainConfig

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
EXPECTED_LOSS = HERE / "expected_loss.json"
TRACE_EPOCHS = 11
STAGE_ROUNDS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Tolerances of the recorded-loss checks.  The first-epoch loss is one
# forward pass at the seeded initial parameters, so only summation order can
# move it.  The final loss comes after many Adam steps, which amplify
# round-off; the tolerance admits a reordered sum and still catches a wrong
# gradient, which moves the loss in the leading digits.
FIRST_LOSS_RTOL = 1e-9
FINAL_LOSS_RTOL = 1e-4
LOSS_ATOL = 1e-9

now = time.perf_counter


def configs(workload: dict, seed: int, epochs: int) -> tuple[ModelConfig, TrainConfig]:
    model = ModelConfig(integration=IntegrationConfig(**workload["integration"]),
                        **workload["model"])
    train = TrainConfig(seed=seed, max_epochs=epochs, patience=epochs,
                        **workload["train"])
    return model, train


@dataclasses.dataclass
class Fit:
    """One closed-loop fit: load the dataset, train, time every epoch."""

    dataset: gd.GraphDataset
    params: md.ModelParams
    history: tr.TrainHistory
    start: float
    stamps: list

    @property
    def setup_s(self) -> float:
        return self.stamps[0] - self.start

    @property
    def intervals(self) -> list:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]

    @property
    def losses(self) -> list:
        return [r["train_loss"] for r in self.history.records]


def fit_once(data_dir, model_cfg, train_cfg) -> Fit:
    stamps = []
    start = now()
    dataset = gd.load_dataset(data_dir)
    params, history = tr.fit(model_cfg, train_cfg, dataset,
                             log=lambda _line: stamps.append(now()))
    return Fit(dataset, params, history, start, stamps)


class Checks:
    """Output checks; each one counts as an attempted operation."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= LOSS_ATOL + rtol * abs(b)


def check_recorded_loss(checks: Checks, name: str, seed: int, fit: Fit,
                        full_length: bool) -> None:
    recorded = json.loads(EXPECTED_LOSS.read_text(encoding="utf-8"))
    entry = recorded.get(name, {}).get(str(seed))
    if entry is None:
        print(f"note no recorded loss for {name} seed {seed}; "
              "recorded-loss checks skipped")
        return
    first = fit.losses[0]
    checks.add("first_loss_recorded", close(first, entry["first"], FIRST_LOSS_RTOL),
               f"{first!r} vs {entry['first']!r}")
    if full_length:
        final = fit.losses[-1]
        checks.add("final_loss_recorded",
                   close(final, entry["final"], FINAL_LOSS_RTOL),
                   f"{final!r} vs {entry['final']!r}")


def test_metric(fit: Fit, model_cfg, train_cfg, checks: Checks) -> tuple[float, float]:
    """(leak-free test metric, fit's own reported test metric).

    Classification: test accuracy of ``encode`` on the returned parameters,
    which must reproduce the figure ``fit`` reported.  Link: ``fit`` lets
    held-out edges into the neighbour mean, so the reported AUC is only
    reproduced as a check; the metric encodes with the training edges of
    ``make_link_split`` and scores its test pairs.
    """
    ds, params, reported = fit.dataset, fit.params, fit.history.test_at_best
    z = md.encode(params, model_cfg, ds)
    if train_cfg.task == "classification":
        preds = md.predict_classes(md.decode_class(params.head, z).array)
        value = tr.accuracy(preds, ds.labels, ds.test_mask)
        checks.add("fit_metric_reproduced", value == reported, f"{value!r} vs {reported!r}")
        return value, reported
    split = tr.make_link_split(ds, train_cfg.seed)

    def auc(z_val):
        scores = np.concatenate([md.decode_link(z_val, split.test_edges),
                                 md.decode_link(z_val, split.test_negatives)])
        labels = np.array([1] * len(split.test_edges) + [0] * len(split.test_negatives))
        return tr.roc_auc(scores, labels)

    leaky = auc(z)
    checks.add("fit_metric_reproduced", leaky == reported, f"{leaky!r} vs {reported!r}")
    train_only = gd.GraphDataset(ds.name, ds.features, ds.labels, list(split.train_edges),
                                 ds.train_mask, ds.val_mask, ds.test_mask)
    held_out = set(split.val_edges) | set(split.test_edges)
    checks.add("link_encode_train_edges_only", not held_out & set(train_only.edges))
    return auc(md.encode(params, model_cfg, train_only)), reported


def time_encodes(fit: Fit, model_cfg, count: int, checks: Checks) -> list:
    times, values = [], []
    for _ in range(count):
        # start every encode from a collected heap, as a fresh ``hamgnn eval``
        # would, so that a collection of the previous call's garbage is not
        # charged to this one
        gc.collect()
        start = now()
        values.append(md.encode(fit.params, model_cfg, fit.dataset))
        times.append(now() - start)
    same = all(np.array_equal(values[0], v) for v in values[1:])
    checks.add("encode_repeat", same and bool(np.all(np.isfinite(values[0]))))
    return times


def tail(samples: list, pct: int) -> tuple[float, int]:
    value = float(np.percentile(samples, pct))
    return value, sum(s > value for s in samples)


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "machine": platform.machine(),
    }


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine from /proc/stat, where the
    kernel reports them.  Steal is time the hypervisor ran something else on
    this machine's virtual CPUs; a run that saw much of it ran slow."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def peak_alloc_mb(data_dir, model_cfg, train_cfg) -> tuple[float, list]:
    """Peak of the memory Python and numpy allocate over one fit and one
    encode, as tracemalloc counts it, and the fit's train losses.

    Peak RSS is not used: in some runs it rose by 35-45 MB at random, with
    the same seed and code, while these allocations are deterministic.  The
    dataset is loaded before tracing starts, because tracing the parse of
    the feature table alone takes over ten seconds at Cora size.
    """
    dataset = gd.load_dataset(data_dir)
    gc.collect()
    tracemalloc.start()
    try:
        params, history = tr.fit(model_cfg, train_cfg, dataset)
        md.encode(params, model_cfg, dataset)
        return (tracemalloc.get_traced_memory()[1] / 2**20,
                [r["train_loss"] for r in history.records])
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_untraced(name: str, workload: dict, data_dir, seed: int, seconds: float):
    epochs, short_epochs = workload["epochs"], workload["short_epochs"]
    model_cfg, train_cfg = configs(workload, seed, epochs)
    short_cfg = dataclasses.replace(train_cfg, max_epochs=short_epochs, patience=short_epochs)
    checks = Checks()
    attempted_epochs = failed_epochs = 0
    setups, intervals, encodes, first_losses, short_final_losses = [], [], [], [], []
    begin = now()
    # a one-epoch fit: tracing slows it, so it is kept short and untimed
    one_epoch = dataclasses.replace(train_cfg, max_epochs=1, patience=1)
    peak_alloc, losses = peak_alloc_mb(data_dir, model_cfg, one_epoch)
    attempted_epochs += 1
    failed_epochs += 1 - len(losses)
    first_losses.extend(losses[:1])

    # The run opens with one full-length fit: its final loss is checked
    # against the recorded one and its parameters give test_metric.  Short
    # fits follow while the time budget allows.  Each fit gives one set-up
    # sample, its epoch intervals and ``encodes`` encodes, so every kind of
    # sample is spread over the whole run and a slow spell of the machine
    # does not fall on one metric only.
    fits = 0
    while True:
        started = now()
        cfg = short_cfg if fits else train_cfg
        # drop the previous fit first: a run holds one dataset and model at
        # a time, as a training process would.  Its graph holds reference
        # cycles, so it is collected here; left to the cyclic collector's
        # own schedule, it would sometimes outlive the next fit's set-up and
        # add a whole graph to the peak RSS.
        fit = None
        gc.collect()
        attempted_epochs += cfg.max_epochs
        fit = fit_once(data_dir, model_cfg, cfg)
        failed_epochs += cfg.max_epochs - len(fit.stamps)
        if len(fit.stamps) < cfg.max_epochs:
            break
        setups.append(fit.setup_s)
        intervals.extend(fit.intervals)
        first_losses.append(fit.losses[0])
        encodes.extend(time_encodes(fit, model_cfg, workload["encodes"], checks))
        if fits:
            short_final_losses.append(fit.losses[-1])
        else:
            metric, reported = test_metric(fit, model_cfg, train_cfg, checks)
            check_recorded_loss(checks, name, seed, fit, full_length=True)
            final_loss = fit.losses[-1]
        fits += 1
        if fits >= workload["min_fits"] and now() - begin + (now() - started) > seconds:
            break

    if fits < workload["min_fits"]:
        raise RuntimeError(f"fit {fits + 1} stopped after {len(fit.stamps)} "
                           f"of {cfg.max_epochs} epochs")
    checks.add("first_loss_repeat", len(set(first_losses)) == 1,
               f"{len(first_losses)} fits")
    checks.add("short_final_loss_repeat", len(set(short_final_losses)) == 1,
               f"{fits - 1} short fits")

    tail_value, above = tail(intervals, workload["tail_pct"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "epoch_s.p50": (statistics.median(intervals), "s"),
        "epoch_s.tail": (tail_value, "s"),
        "encode_s.p50": (statistics.median(encodes), "s"),
        "peak_alloc_mb": (peak_alloc, "MB"),
        "test_metric": (metric, "ratio"),
    }
    notes = [
        f"epoch_s.tail is p{workload['tail_pct']} of {len(intervals)} epoch "
        f"intervals from one fit of {epochs} epochs and {fits - 1} of {short_epochs}; "
        f"{above} above it",
        f"setup_s is the median of {len(setups)} set-ups; encode_s.p50 of "
        f"{len(encodes)} encodes",
        "peak_alloc_mb is traced over a one-epoch fit and one encode, after loading",
        f"test_metric is {'leak-free test AUC' if train_cfg.task == 'link' else 'test accuracy'}"
        f" after {epochs} epochs; fit reported {reported!r}",
        f"final train loss {final_loss!r}, first-epoch loss {first_losses[0]!r}",
    ]
    return metrics, checks, attempted_epochs, failed_epochs, notes


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def trace_targets():
    # The library's modules look these names up at call time, so replacing
    # the module attributes reaches every internal caller.  ``integrate_nodes``
    # is imported by name into ``model``, which is where it is replaced.
    return [
        (gd, "load_dataset", "graphdata.load_dataset"),
        (md, "encode", "model.encode"),
        (md, "encode_nodes", "model.encode_nodes"),
        (md, "aggregation_matrix", "model.aggregation_matrix"),
        (md, "integrate_nodes", "odeint.integrate_nodes"),
        (md, "decode_link", "model.decode_link"),
        (ham, "phase_velocity_nodes", "hamiltonian.phase_velocity_nodes"),
        (eg, "evaluate", "engine.evaluate"),
        (eg, "gradient_all", "engine.gradient_all"),
        (tr, "fit", "train.fit"),
        (tr, "adam_step", "train.adam_step"),
        (tr, "negative_sample", "train.negative_sample"),
        (tr, "accuracy", "train.accuracy"),
        (tr, "roc_auc", "train.roc_auc"),
    ]


def timed(func) -> float:
    """Seconds one call takes, with the cyclic garbage collector paused so
    that a collection of unrelated objects is not charged to one stage."""
    gc.disable()
    try:
        start = now()
        func()
        return now() - start
    finally:
        gc.enable()


def stage_split(outputs, bindings, layers: int):
    """Forward time per stage, from timing the program's own graph up to its
    labelled boundaries and differencing.

    Each round times every boundary once, in graph order, and turns the
    differences into stage times; the result is the median over rounds, so
    that a slow spell of the machine shifts one round, not one stage.
    Returns the stage times and the embedding the staged graph computes.
    """
    loss, z = outputs[0], outputs[1]
    by_label = {n.attrs.get("label"): n for n in tracing.walk([z])
                if n.attrs.get("label")}
    compress = by_label["compress layer 0"]
    momentum = [by_label[f"layer{i}.momentum layer 0"] for i in range(layers)]
    orbit = [by_label[f"layer {i} orbit end"] for i in range(layers)]
    # a layer's output is the next layer's momentum input; the last is z
    layer_out = [m.inputs[0] for m in momentum[1:]] + [z]

    rounds = []
    for _ in range(STAGE_ROUNDS):
        t = {node.nid: timed(lambda: eg.evaluate(node, bindings))
             for node in [compress, *momentum, *orbit, *layer_out, loss]}
        stage = {"model.stage.compress_s": t[compress.nid],
                 "model.stage.momentum_s": 0.0, "odeint.stage.orbit_s": 0.0,
                 "model.stage.neighbor_mean_s": 0.0,
                 "model.stage.head_loss_s": t[loss.nid] - t[z.nid]}
        before = compress
        for i in range(layers):
            stage["model.stage.momentum_s"] += t[momentum[i].nid] - t[before.nid]
            stage["odeint.stage.orbit_s"] += t[orbit[i].nid] - t[momentum[i].nid]
            stage["model.stage.neighbor_mean_s"] += t[layer_out[i].nid] - t[orbit[i].nid]
            before = layer_out[i]
        rounds.append(stage)
    stages = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    return stages, eg.evaluate(z, bindings)


def forward_backward(outputs, forward_only, bindings) -> tuple[float, float]:
    """(forward, backward) seconds: forward-only outputs against the full
    output list, alternated; medians over rounds."""
    fwd, bwd = [], []
    for _ in range(STAGE_ROUNDS):
        f = timed(lambda: eg.evaluate(forward_only, bindings))
        fwd.append(f)
        bwd.append(timed(lambda: eg.evaluate(outputs, bindings)) - f)
    return statistics.median(fwd), statistics.median(bwd)


GRAPH_OPS = ("affine", "elementwise-add", "elementwise-mul", "gather-rows",
             "scatter-rows", "stack-rows", "solve", "constant")


def graph_counts(outputs) -> dict:
    nodes = tracing.walk(outputs)
    ops = Counter(n.op for n in nodes)
    means = [n for n in nodes if n.op == "constant"
             and n.attrs.get("label") == "neighbor mean"]
    mean_ids = {n.nid for n in means}
    affines = [n for n in nodes if n.op == "affine"]
    out = {"engine.graph_nodes": len(nodes)}
    out.update({f"engine.graph_nodes.{op}": ops.get(op, 0) for op in GRAPH_OPS})
    out["engine.constant_bytes"] = tracing.constant_bytes(nodes)
    out["engine.affine_flops"] = sum(tracing.affine_flops(n) for n in affines)
    out["engine.affine_flops.neighbor_mean"] = sum(
        tracing.affine_flops(n) for n in affines
        if any(i.nid in mean_ids for i in n.inputs))
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_calls") or "nodes" in name:
        return "count"
    for suffix, unit in (("_bytes", "B"), ("us_per_node", "us")):
        if name.endswith(suffix):
            return unit
    return "flop" if "flops" in name else "ratio"


def run_traced(name: str, workload: dict, data_dir, seed: int, trace_out):
    model_cfg, train_cfg = configs(workload, seed, TRACE_EPOCHS)
    checks = Checks()
    layers = model_cfg.layers

    plain = fit_once(data_dir, model_cfg, train_cfg)
    tracer = tracing.Tracer(trace_targets(), keep=("engine.evaluate",
                                                   "hamiltonian.phase_velocity_nodes"))
    with tracer:
        fit = fit_once(data_dir, model_cfg, train_cfg)
        encode_start = len(tracer.spans)
        encoded = md.encode(fit.params, model_cfg, fit.dataset)
    for f in (plain, fit):
        if len(f.stamps) != TRACE_EPOCHS:
            raise RuntimeError(f"fit stopped after {len(f.stamps)} of {TRACE_EPOCHS} epochs")
    if trace_out:
        tracer.dump(trace_out)
    check_recorded_loss(checks, name, seed, fit, full_length=False)
    checks.add("first_loss_repeat", plain.losses[0] == fit.losses[0])

    spans = tracer.spans
    setup = (fit.start, fit.stamps[0])
    epochs = (fit.stamps[0], fit.stamps[-1])
    n_epochs = len(fit.stamps) - 1
    selfs = tracing.self_times(spans)
    epoch_selfs = tracing.self_times(spans, epochs)

    def total(span_name, window, per=1):
        picked = [s for s in spans if s[0] == span_name and tracing.in_window(s, window)]
        return sum(s[2] - s[1] for s in picked) / per, len(picked) / per

    def total_in(span_name, first, last):
        picked = [s for s in spans[first:last] if s[0] == span_name]
        return sum(s[2] - s[1] for s in picked)

    m = {}
    m["graphdata.load_dataset_s"] = total("graphdata.load_dataset", setup)[0]
    m["model.encode_nodes_s"] = total("model.encode_nodes", setup)[0]
    m["model.aggregation_matrix_s"] = total("model.aggregation_matrix", setup)[0]
    m["model.encode_nodes_per_encode_s"] = total_in("model.encode_nodes", encode_start, len(spans))
    m["model.aggregation_matrix_per_encode_s"] = total_in(
        "model.aggregation_matrix", encode_start, len(spans))

    # the training graph of the last epoch, and the parameters it was bound to
    fit_evals = [(i, a, k) for i, a, k, _ in tracer.calls
                 if spans[i][0] == "engine.evaluate" and tracing.in_window(spans[i], epochs)]
    _, eval_args, eval_kwargs = fit_evals[-1]
    outputs = list(eval_args[0])
    bindings = eval_args[1] if len(eval_args) > 1 else eval_kwargs.get("bindings")

    stages, staged_z = stage_split(outputs, fit.params.bindings(), layers)
    m.update(stages)
    checks.add("stage_split_reproduces_encode",
               np.allclose(staged_z, encoded, rtol=1e-12, atol=1e-12))

    forward_only = outputs[:2] + (outputs[-1:] if train_cfg.task == "classification" else [])
    m["train.forward_s"], m["train.backward_s"] = forward_backward(
        outputs, forward_only, bindings)

    eval_s, eval_calls = total("engine.evaluate", epochs, n_epochs)
    nodes_cache = {}
    evaluated = 0
    for _, args, kwargs in fit_evals:
        outs = [args[0]] if isinstance(args[0], eg.Node) else list(args[0])
        key = tuple(o.nid for o in outs)
        if key not in nodes_cache:
            nodes_cache[key] = len(tracing.walk(outs))
        evaluated += nodes_cache[key]
    m["engine.evaluate_s"] = eval_s
    m["engine.evaluate_calls"] = eval_calls
    m["engine.us_per_node"] = 1e6 * eval_s * n_epochs / evaluated
    m["engine.gradient_all_setup_s"], m["engine.gradient_all_setup_calls"] = \
        total("engine.gradient_all", setup)
    m["engine.gradient_all_s"], m["engine.gradient_all_calls"] = \
        total("engine.gradient_all", epochs, n_epochs)
    m.update(graph_counts(outputs))

    fields = [(i, a, r) for i, a, _, r in tracer.calls
              if spans[i][0] == "hamiltonian.phase_velocity_nodes"
              and tracing.in_window(spans[i], setup)]
    new_nodes = [len(tracing.walk(list(r), stop_below=max(a[1].nid, a[2].nid)))
                 for _, a, r in fields]
    m["hamiltonian.phase_velocity_nodes_s"], m["hamiltonian.phase_velocity_nodes_calls"] = \
        total("hamiltonian.phase_velocity_nodes", setup)
    m["hamiltonian.field_nodes"] = statistics.mean(new_nodes)
    m["odeint.integrate_nodes_self_s"] = sum(
        t for s, t in zip(spans, selfs)
        if s[0] == "odeint.integrate_nodes" and tracing.in_window(s, setup))

    m["train.adam_step_s"] = total("train.adam_step", epochs, n_epochs)[0]
    m["train.negative_sample_s"] = total("train.negative_sample", epochs, n_epochs)[0]
    m["train.metrics_s"] = sum(total(k, epochs, n_epochs)[0] for k in
                               ("train.accuracy", "train.roc_auc", "model.decode_link"))
    m["train.fit_self_s"] = sum(t for s, t in zip(spans, epoch_selfs)
                                if s[0] == "train.fit") / n_epochs
    m["train.reported_test_metric"] = fit.history.test_at_best
    plain_p50 = statistics.median(plain.intervals)
    m["trace.overhead"] = statistics.median(fit.intervals) / plain_p50 - 1.0

    metrics = {k: (v, unit_of(k)) for k, v in m.items()}
    notes = [
        f"per-epoch figures average {n_epochs} epochs of a {TRACE_EPOCHS}-epoch traced fit; "
        "set-up figures cover load_dataset to the first epoch record",
        "engine.affine_flops* are computed from node shapes, not measured",
        "not measured: time per engine op and per node, which needs a hook inside "
        "engine.evaluate; op counts are given instead",
        "stage times and train.forward_s/backward_s are medians over "
        f"{STAGE_ROUNDS} rounds of differenced evaluations of the last epoch's graph, "
        "with the garbage collector paused",
        f"trace.overhead compares epoch medians: traced {statistics.median(fit.intervals)!r} s"
        f" vs untraced {plain_p50!r} s",
    ]
    return metrics, checks, 2 * TRACE_EPOCHS, 0, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    print("facts " + json.dumps(machine_facts(), sort_keys=True))
    jiffies = cpu_jiffies()
    if args.trace:
        metrics, checks, attempted, failed_epochs, notes = run_traced(
            args.workload, workload, args.dataset, args.seed, args.trace_out)
    else:
        metrics, checks, attempted, failed_epochs, notes = run_untraced(
            args.workload, workload, args.dataset, args.seed, args.seconds)

    if jiffies and (after := cpu_jiffies()) and after[1] > jiffies[1]:
        notes.append(f"steal share of machine CPU time during the run: "
                     f"{(after[0] - jiffies[0]) / (after[1] - jiffies[1]):.3f}")
    attempted += len(checks.results)
    failed = failed_epochs + checks.failed
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value!r} {unit}")
    for line in notes:
        print(f"note {line}")
    for check, ok, detail in checks.results:
        print(f"check {check} {'ok' if ok else 'FAILED'} {detail}".rstrip())
    print(f"failed_share {failed}/{attempted} = {failed / attempted!r} "
          f"(base: {attempted} operations = epochs attempted + output checks)")
    result = {"correct": checks.failed == 0 and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 7-10 need converted public datasets (see README, "Converting public
datasets").  They look under ``data/<name>`` next to this repository (or
``$HAMGNN_DATA/<name>``) and skip with a visible marker when absent.
"""

import json
import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from hamgnn import engine as eg
from hamgnn import graphdata as gd
from hamgnn import hamiltonian as ham
from hamgnn import model as md
from hamgnn import odeint as oi
from hamgnn import train as tr
from hamgnn.cli import main as cli_main
from hamgnn.hamiltonian import PhaseState
from hamgnn.model import ModelConfig
from hamgnn.odeint import AnalyticDiagMetric, IntegrationConfig
from hamgnn.train import TrainConfig

DATA_ROOT = Path(os.environ.get("HAMGNN_DATA", Path(__file__).parent.parent / "data"))


def _report(number: int, description: str, passed: bool, started: float,
            budget_s: float):
    elapsed = time.time() - started
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {verdict} ({elapsed:.1f}s / budget {budget_s:.0f}s)"
          f" - {description}")
    assert passed, f"criterion {number} failed: {description}"
    assert elapsed < budget_s, f"criterion {number} exceeded its runtime budget"


def _require_dataset(number: int, name: str) -> gd.GraphDataset:
    path = DATA_ROOT / name
    if not (path / "nodes.csv").exists():
        marker = (f"[criterion {number}] SKIPPED - converted {name!r} dataset "
                  f"not found at {path} (see README: converting public datasets)")
        print(marker)
        pytest.skip(marker)
    return gd.load_dataset(path)


def _canonical_symplectic(d, rng):
    coeff = np.zeros((2 * d, 2 * d))
    coeff[:d, d:] = np.eye(d)
    return ham.LearnedSymplecticForm(
        eg.MlpParams.init((2 * d, 16, 1), ("tanh", None), rng),
        eg.MlpParams([(coeff, np.zeros(2 * d), None)]), eps=1e-12)


def test_criterion_1_field_partials_match_energy_differences():
    """Every Hamiltonian variant: field vs central differences of the energy,
    relative error <= 1e-5, >= 100 seeded states per variant, d in {2,8,16}."""
    started = time.time()
    rng = np.random.default_rng(101)
    worst = {}
    for tag in ("geodesic", "flexible", "convex", "relaxed", "geodesic_relaxed",
                "symplectic"):
        top = 0.0
        for d in (2, 8, 16):
            spec = (_canonical_symplectic(d, rng) if tag == "symplectic"
                    else ham.make_spec(tag, d, 16, rng))
            rep = ham.check_field_gradients(spec, 34, rng, tol=1e-5)
            top = max(top, rep["max_relative_error"])
        worst[tag] = top
    passed = all(v <= 1e-5 for v in worst.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _report(1, f"field partials vs energy differences ({detail})", passed,
            started, 60)


def test_criterion_2_end_to_end_gradient_gate():
    """Gradient of the training loss w.r.t. every parameter tensor through the
    encoder (n=8, d=4, L=1, 2 explicit Euler steps) vs finite differences."""
    started = time.time()
    dataset = gd.synth_dataset("sbm", sizes=(4, 4), p_in=0.9, p_out=0.2, seed=11)
    cfg = ModelConfig(hidden_dim=4, layers=1, variant="flexible",
                      integration=IntegrationConfig("euler", 1.0, 0.5),
                      net_hidden=8)
    params = md.init_params(cfg, dataset.num_features, dataset.num_classes,
                            seed=12)
    z_node, binds = md.encode_nodes(params, cfg, dataset)
    logits = params.head.graph(z_node, "head")
    loss = tr.cross_entropy_node(logits, dataset.labels, dataset.train_mask)

    worst = 0.0
    for name, arr in params.param_items():
        leaf = eg.parameter(name, arr.shape)
        rep = eg.check_gradient(loss, leaf, binds, fd_step=1e-6, tol=1e-4)
        worst = max(worst, rep.max_relative_error)
    _report(2, f"loss gradients vs finite differences (max rel err {worst:.1e})",
            worst <= 1e-4, started, 60)


def test_criterion_3_energy_conservation(oscillator):
    """Harmonic oscillator: rk4 drift <= 1e-8 over a full turn; explicit Euler
    drift halves with the step; random learned energy: rk4 drift <= 1e-3."""
    started = time.time()
    rng = np.random.default_rng(103)
    osc = oscillator(ham.make_spec("flexible", 1, 4, rng))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 2*pi is not an exact step multiple
        traj = oi.integrate(osc, PhaseState([1.0], [0.0]),
                            IntegrationConfig("rk4", 2 * math.pi, 0.01))
    rk4_drift = oi.energy_drift(osc, traj)["relative_drift"]

    def euler_drift(h):
        t = oi.integrate(osc, PhaseState([1.0], [0.0]),
                         IntegrationConfig("euler", 1.0, h))
        return oi.energy_drift(osc, t)["max_abs_drift"]

    ratio = euler_drift(0.02) / euler_drift(0.01)

    learned = ham.make_spec("flexible", 8, 16, rng)
    traj2 = oi.integrate(learned,
                         PhaseState(rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)),
                         IntegrationConfig("rk4", 1.0, 0.01))
    learned_drift = oi.energy_drift(learned, traj2)["relative_drift"]

    passed = rk4_drift <= 1e-8 and 1.8 <= ratio <= 2.2 and learned_drift <= 1e-3
    _report(3, f"rk4 drift {rk4_drift:.1e}, euler halving ratio {ratio:.2f}, "
               f"learned-energy drift {learned_drift:.1e}", passed, started, 60)


def test_criterion_4_geodesic_oracle():
    """Cogeodesic flow: the hyperbolic half-plane orbit stays on the unit
    semicircle within 1e-4; the identity metric yields exact straight lines."""
    started = time.time()
    half = AnalyticDiagMetric(
        2, lambda q: np.array([q[1] ** 2, q[1] ** 2]),
        lambda q: np.array([[0.0, 0.0], [2 * q[1], 2 * q[1]]]))
    rep = oi.reference_geodesic_check(half, [0.0, 1.0], [1.0, 0.0],
                                      IntegrationConfig("rk4", 1.0, 1e-3))
    qs = rep["positions"]
    circle_dev = float(np.max(np.abs(qs[:, 0] ** 2 + qs[:, 1] ** 2 - 1.0)))

    ident = AnalyticDiagMetric(2, lambda q: np.ones(2),
                               lambda q: np.zeros((2, 2)))
    rep2 = oi.reference_geodesic_check(ident, [0.2, -0.1], [0.7, 0.3],
                                       IntegrationConfig("rk4", 1.0, 0.01))
    times = np.linspace(0.0, 1.0, len(rep2["positions"]))
    line_dev = float(np.max(np.abs(
        rep2["positions"] - (np.array([0.2, -0.1]) + np.outer(times, [0.7, 0.3])))))

    passed = circle_dev <= 1e-4 and rep2["max_residual"] <= 1e-6 and line_dev <= 1e-9
    _report(4, f"semicircle deviation {circle_dev:.1e}, straight-line deviation "
               f"{line_dev:.1e}", passed, started, 60)


def test_criterion_5_hyperbolicity():
    """Trees are exactly 0-hyperbolic, the 4-cycle scores 1, and sampling all
    quadruples equals exact enumeration on 50 random graphs with n <= 20."""
    started = time.time()
    trees = [
        gd.GraphDataset("star", np.eye(6), np.zeros(6, int),
                        [(0, i) for i in range(1, 6)], [], [], []),
        gd.GraphDataset("path", np.eye(7), np.zeros(7, int),
                        [(i, i + 1) for i in range(6)], [], [], []),
        gd.synth_dataset("tree", depth=4, branching=2, seed=0),
    ]
    trees_zero = all(gd.delta_hyperbolicity(t)["max_delta"] == 0.0 for t in trees)

    c4 = gd.GraphDataset("c4", np.eye(4), np.zeros(4, int),
                         [(0, 1), (1, 2), (2, 3), (0, 3)], [], [], [])
    c4_value = gd.delta_hyperbolicity(c4)["max_delta"]

    rng = np.random.default_rng(105)
    agree = True
    for trial in range(50):
        n = int(rng.integers(5, 21))
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        for _ in range(int(rng.integers(0, n))):
            u, v = rng.integers(0, n, 2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        ds = gd.GraphDataset("r", np.eye(n), np.zeros(n, int), sorted(edges),
                             [], [], [])
        exact = gd.delta_hyperbolicity(ds, "exact")
        sampled = gd.delta_hyperbolicity(ds, "sampled", samples=10 ** 9,
                                         seed=trial)
        agree = agree and sampled == exact

    passed = trees_zero and c4_value == 1.0 and agree
    _report(5, f"trees 0.0, four-cycle {c4_value}, sampled==exact on 50 graphs",
            passed, started, 60)


def test_criterion_6_synthetic_learning():
    """Two-block stochastic block model reaches test accuracy >= 0.95 within
    200 epochs."""
    started = time.time()
    dataset = gd.synth_dataset("sbm", sizes=(20, 20), p_in=0.5, p_out=0.01,
                               seed=0)
    cfg = ModelConfig(hidden_dim=16, layers=2, variant="flexible",
                      integration=IntegrationConfig("euler", 1.0, 0.5),
                      net_hidden=16)
    tcfg = TrainConfig(lr=0.01, weight_decay=0.001, max_epochs=200,
                       patience=100, seed=1)
    _, history = tr.fit(cfg, tcfg, dataset)
    _report(6, f"block-model test accuracy {history.test_at_best:.3f}",
            history.test_at_best >= 0.95, started, 120)


def _cora_model(layers, variant, decoder="classification"):
    return ModelConfig(hidden_dim=64, layers=layers, variant=variant,
                       integration=IntegrationConfig("euler", 1.0, 0.5),
                       decoder=decoder)


def test_criterion_7_cora_node_classification():
    """Node classification on converted Cora reaches test accuracy >= 0.75."""
    started = time.time()
    cora = _require_dataset(7, "cora")
    cfg = _cora_model(3, "flexible")
    tcfg = TrainConfig(lr=0.01, weight_decay=0.001, max_epochs=200,
                       patience=100, seed=0)
    _, history = tr.fit(cfg, tcfg, cora)
    _report(7, f"citation-graph test accuracy {history.test_at_best:.3f}",
            history.test_at_best >= 0.75, started, 600)


def test_criterion_8_cora_link_prediction():
    """Link prediction on converted Cora reaches ROC-AUC >= 0.90."""
    started = time.time()
    cora = _require_dataset(8, "cora")
    cfg = _cora_model(3, "flexible", decoder="link")
    tcfg = TrainConfig(lr=0.01, weight_decay=0.001, max_epochs=200,
                       patience=100, seed=0, task="link")
    _, history = tr.fit(cfg, tcfg, cora)
    _report(8, f"citation-graph link ROC-AUC {history.test_at_best:.3f}",
            history.test_at_best >= 0.90, started, 600)


def _fit_zero_dynamics(layers, dataset, tcfg):
    """Ablation: frozen zero fields and momenta, so the encoder is pure
    iterated aggregation; only the compressor and head train."""
    cfg = _cora_model(layers, "flexible")
    params = md.init_params(cfg, dataset.num_features, dataset.num_classes,
                            seed=tcfg.seed)
    for spec in params.field_specs:
        for _, net in ham._spec_nets(spec):
            for w, b, _ in net.layers:
                w[...] = 0.0
                b[...] = 0.0
    for qnet in params.momentum_nets:
        for w, b, _ in qnet.layers:
            w[...] = 0.0
            b[...] = 0.0
    trainable = [(n, a) for n, a in params.param_items()
                 if n.startswith(("compress", "head"))]
    z_node, _ = md.encode_nodes(params, cfg, dataset)
    logits_node = params.head.graph(z_node, "head")
    loss_node = tr.cross_entropy_node(logits_node, dataset.labels,
                                      dataset.train_mask)
    leaves = [eg.parameter(n, a.shape) for n, a in trainable]
    grad_nodes = eg.gradient_all(loss_node, leaves, allow_unused=True)
    state = tr.AdamState(params.param_items())
    best_val, test_at_best = -1.0, 0.0
    for _ in range(tcfg.max_epochs):
        values = eg.evaluate([loss_node, logits_node] + grad_nodes,
                             params.bindings())
        preds = md.predict_classes(values[1])
        val = tr.accuracy(preds, dataset.labels, dataset.val_mask)
        if val > best_val:
            best_val = val
            test_at_best = tr.accuracy(preds, dataset.labels, dataset.test_mask)
        grads = {n: g for (n, _), g in zip(trainable, values[2:])}
        tr.adam_step(params, grads, state, tcfg.lr, tcfg.weight_decay)
    return test_at_best


def test_criterion_9_over_smoothing_resilience():
    """Convex-energy model holds accuracy from 3 to 10 layers within 3 points
    while the zero-dynamics ablation loses more than 10."""
    started = time.time()
    cora = _require_dataset(9, "cora")
    tcfg = TrainConfig(lr=0.01, weight_decay=0.001, max_epochs=200,
                       patience=100, seed=0)
    accs = {}
    for layers in (3, 10):
        cfg = _cora_model(layers, "convex")
        _, history = tr.fit(cfg, tcfg, cora)
        accs[layers] = history.test_at_best
    gap = abs(accs[3] - accs[10])

    ablation = {layers: _fit_zero_dynamics(layers, cora, tcfg)
                for layers in (3, 10)}
    ablation_drop = ablation[3] - ablation[10]

    passed = gap <= 0.03 and ablation_drop > 0.10
    _report(9, f"deep-vs-shallow gap {gap:.3f}; zero-dynamics drop "
               f"{ablation_drop:.3f}", passed, started, 1800)


def test_criterion_10_mixed_geometry_pipeline(tmp_path):
    """Mixing the airport and citation graphs yields 5896 nodes with no cross
    edges, and training on the mixture beats the topology-blind baseline."""
    started = time.time()
    airport = _require_dataset(10, "airport")
    _require_dataset(10, "cora")
    rc = cli_main(["mix", "--dataset-a", str(DATA_ROOT / "airport"),
                   "--dataset-b", str(DATA_ROOT / "cora"),
                   "--out", str(tmp_path / "mixed"), "--seed", "0"])
    assert rc == 0
    mixed = gd.load_dataset(tmp_path / "mixed")
    crossing = [e for e in mixed.edges
                if (e[0] < airport.n) != (e[1] < airport.n)]

    cfg = _cora_model(3, "flexible")
    tcfg = TrainConfig(lr=0.01, weight_decay=0.001, max_epochs=200,
                       patience=100, seed=0)
    _, history = tr.fit(cfg, tcfg, mixed)

    mlp = md.baseline_mlp_params(mixed.num_features, mixed.num_classes, 64,
                                 seed=0)
    state = tr.AdamState([(n, a) for n, a in mlp.param_items("mlp")])
    logits_node, binds = md.baseline_mlp_nodes(mlp, mixed)
    loss_node = tr.cross_entropy_node(logits_node, mixed.labels,
                                      mixed.train_mask)
    leaves = [eg.parameter(n, a.shape) for n, a in mlp.param_items("mlp")]
    grad_nodes = eg.gradient_all(loss_node, leaves, allow_unused=True)

    class _Wrap:
        def param_items(self):
            return mlp.param_items("mlp")

        def project_feasible(self):
            pass

    wrap = _Wrap()
    best_val, mlp_test = -1.0, 0.0
    for _ in range(200):
        values = eg.evaluate([logits_node] + grad_nodes, mlp.bindings("mlp"))
        preds = md.predict_classes(values[0])
        val = tr.accuracy(preds, mixed.labels, mixed.val_mask)
        if val > best_val:
            best_val = val
            mlp_test = tr.accuracy(preds, mixed.labels, mixed.test_mask)
        grads = {n: g for (n, _), g in zip(mlp.param_items("mlp"), values[1:])}
        tr.adam_step(wrap, grads, state, 0.01, 0.001)

    passed = (mixed.n == 5896 and not crossing
              and history.test_at_best > mlp_test)
    _report(10, f"{mixed.n} nodes, {len(crossing)} cross edges, model "
                f"{history.test_at_best:.3f} vs baseline {mlp_test:.3f}",
            passed, started, 1800)

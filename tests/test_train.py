"""Losses, optimizer, sampling, metrics, and the training loop."""

import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hamgnn import engine as eg
from hamgnn import graphdata as gd
from hamgnn import hamiltonian as ham
from hamgnn import model as md
from hamgnn import train as tr
from hamgnn.model import ModelConfig
from hamgnn.odeint import IntegrationConfig
from hamgnn.train import TrainConfig


def small_model(**kw):
    base = dict(hidden_dim=8, layers=2, variant="flexible",
                integration=IntegrationConfig("euler", 1.0, 0.5), net_hidden=8)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# cross entropy


def cross_entropy(logits, labels, mask) -> float:
    """The masked mean negative log-likelihood of a logits array, evaluated
    through ``cross_entropy_node``."""
    leaf = eg.parameter("logits", np.shape(logits))
    return float(eg.evaluate(tr.cross_entropy_node(leaf, labels, mask), {"logits": logits}))


def test_cross_entropy_uniform_logits():
    logits = np.zeros((3, 4))
    loss = cross_entropy(logits, [0, 1, 2], [0, 1, 2])
    assert loss == pytest.approx(math.log(4.0), abs=1e-12)


def test_cross_entropy_decreases_with_margin():
    losses = []
    for margin in (1.0, 5.0, 10.0):
        logits = np.zeros((2, 3))
        logits[0, 1] = margin
        logits[1, 2] = margin
        losses.append(cross_entropy(logits, [1, 2], [0, 1]))
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-4


def test_cross_entropy_matches_extended_precision(rng):
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    mask = np.arange(5)
    ld = np.longdouble(logits)
    shifted = ld - ld.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(5), labels]
    oracle = float((log_z - picked).mean())
    assert abs(cross_entropy(logits, labels, mask) - oracle) <= 1e-12


def test_cross_entropy_empty_mask():
    with pytest.raises(ValueError, match="empty mask"):
        cross_entropy(np.zeros((2, 2)), [0, 1], [])


# ---------------------------------------------------------------------------
# negative sampling


def test_negative_sample_enumerates_tiny_graph():
    got = tr.negative_sample(3, 2, 0, {(0, 1)})
    assert sorted(got) == [(0, 2), (1, 2)]


def test_negative_sample_complete_graph_errors():
    with pytest.raises(ValueError, match="too dense"):
        tr.negative_sample(3, 1, 0, {(0, 1), (0, 2), (1, 2)})


def test_negative_sample_deterministic():
    a = tr.negative_sample(30, 12, 77, {(0, 1)})
    b = tr.negative_sample(30, 12, 77, {(0, 1)})
    assert a == b
    assert len(set(a)) == 12
    assert all(u != v and (u, v) != (0, 1) for u, v in a)


def _scalar_negative_sample(n_nodes, count, seed, forbidden):
    """The one-pair-at-a-time sampler ``negative_sample`` must reproduce."""
    forbidden = {(min(u, v), max(u, v)) for u, v in forbidden}
    possible = n_nodes * (n_nodes - 1) // 2 - len(forbidden)
    rng = np.random.default_rng(seed)
    if count > possible // 2:
        pool = [(u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes)
                if (u, v) not in forbidden]
        idx = rng.choice(len(pool), size=count, replace=False)
        return [pool[i] for i in sorted(idx)]
    picked, out = set(), []
    while len(out) < count:
        u = int(rng.integers(0, n_nodes))
        v = int(rng.integers(0, n_nodes))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in forbidden or key in picked:
            continue
        picked.add(key)
        out.append(key)
    return out


@pytest.mark.parametrize("form", ["set", "list", "array"])
def test_negative_sample_equals_scalar_reference(form):
    rng = np.random.default_rng(31)
    branches = set()
    for trial in range(60):
        n = int(rng.integers(3, 40))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, n * 2)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        listed = [tuple(p) for p in pairs.tolist()]  # repeats, either order
        forbidden = {"set": set(listed), "list": listed, "array": pairs}[form]
        possible = n * (n - 1) // 2 - len({(min(p), max(p)) for p in listed})
        if possible < 1:
            continue
        count = int(rng.integers(1, possible + 1))
        seed = [trial, 3, int(rng.integers(0, 100))]
        got = tr.negative_sample(n, count, seed, forbidden)
        assert got == _scalar_negative_sample(n, count, seed, listed)
        assert all(type(u) is int and type(v) is int for u, v in got)
        branches.add(count > possible // 2)
    assert branches == {False, True}


def test_negative_sample_equals_scalar_reference_at_scale():
    ds = gd.synth_dataset("sbm", sizes=(150, 150), p_in=0.05, p_out=0.005, seed=2)
    edges = np.array(ds.edges)
    for epoch in (1, 2):
        got = tr.negative_sample(ds.n, len(ds.edges), [7, 3, epoch], edges)
        assert got == _scalar_negative_sample(ds.n, len(ds.edges), [7, 3, epoch],
                                              ds.edges)


def test_negative_sample_rejects_pairs_outside_the_graph():
    for bad in ([(0, 5)], np.array([[-1, 2]])):
        with pytest.raises(ValueError, match=r"outside \[0, 5\)"):
            tr.negative_sample(5, 2, 0, bad)


def test_link_split_properties(sbm_dataset):
    split = tr.make_link_split(sbm_dataset, seed=3)
    n_edges = len(sbm_dataset.edges)
    assert len(split.train_edges) + len(split.val_edges) + len(split.test_edges) == n_edges
    edge_set = set(sbm_dataset.edges)
    for pair in split.val_negatives + split.test_negatives:
        assert pair not in edge_set
        assert pair[0] != pair[1]
    assert set(split.val_negatives).isdisjoint(split.test_negatives)
    again = tr.make_link_split(sbm_dataset, seed=3)
    assert again == split


# ---------------------------------------------------------------------------
# adam


class _OneTensor:
    def __init__(self, value):
        self.w = np.array(value, dtype=np.float64)

    def param_items(self):
        return [("w", self.w)]

    def project_feasible(self):
        pass


def test_adam_zero_gradient_is_noop():
    p = _OneTensor([[1.5, -2.0]])
    state = tr.AdamState(p.param_items())
    tr.adam_step(p, {"w": np.zeros((1, 2))}, state, lr=0.1, weight_decay=0.0)
    assert p.w.tolist() == [[1.5, -2.0]]


def test_adam_first_step_is_learning_rate():
    p = _OneTensor([[0.0]])
    state = tr.AdamState(p.param_items())
    tr.adam_step(p, {"w": np.ones((1, 1))}, state, lr=0.1)
    assert p.w[0, 0] == pytest.approx(-0.1, rel=1e-6)


class _TwoTensors(_OneTensor):
    def __init__(self, first, second):
        super().__init__(first)
        self.u = np.array(second, dtype=np.float64)

    def param_items(self):
        return [("u", self.u), ("w", self.w)]


def test_an_overflowing_adam_step_raises_naming_the_tensor_and_changes_nothing():
    p = _TwoTensors([[0.5, -1.0]], [[2.0]])
    u, w = p.u, p.w
    state = tr.AdamState(p.param_items())
    tr.adam_step(p, {"u": np.ones((1, 1)), "w": np.ones((1, 2))}, state, lr=0.1)
    assert p.u is u and p.w is w and u[0, 0] != 2.0  # stepped in place
    arrays = [u, w, state.m["u"], state.m["w"], state.v["u"], state.v["w"]]
    kept = [a.tobytes() for a in arrays]
    # the squared gradient of w overflows; u, which comes first, is not
    # stepped either
    grads = {"u": np.ones((1, 1)), "w": np.array([[1e200, 1.0]])}
    with pytest.raises(FloatingPointError, match="^Adam step overflows in 'w'$"):
        tr.adam_step(p, grads, state, lr=0.1, weight_decay=0.01)
    assert state.t == 1
    now = [p.u, p.w, state.m["u"], state.m["w"], state.v["u"], state.v["w"]]
    assert [a.tobytes() for a in now] == kept


def test_adam_converges_on_quadratic():
    p = _OneTensor([[0.0]])
    state = tr.AdamState(p.param_items())
    for _ in range(100):
        tr.adam_step(p, {"w": 2.0 * (p.w - 3.0)}, state, lr=0.1)
    assert abs(p.w[0, 0] - 3.0) <= 0.1


@pytest.mark.parametrize("decay_biases", [False, True])
def test_decay_biases_switches_the_decay_of_every_bias(sbm_dataset, decay_biases):
    params = md.init_params(small_model(), sbm_dataset.num_features,
                            sbm_dataset.num_classes, seed=0)
    items = params.param_items()
    biases = {name for name, _ in items if name.rsplit(".", 1)[1].startswith("b")}
    assert biases and all(name.rsplit(".", 1)[1].startswith("w")
                          for name, _ in items if name not in biases)
    for _, arr in items:
        arr[...] = 1.5
    # with zero gradients a step is the decay alone
    tr.adam_step(params, {name: np.zeros_like(arr) for name, arr in items},
                 tr.AdamState(items), lr=0.1, weight_decay=0.5, decay_biases=decay_biases)
    for name, arr in params.param_items():
        kept = name in biases and not decay_biases
        assert np.all(arr == (1.5 if kept else 1.5 - 0.1 * 0.5 * 1.5)), name


def test_adam_weight_decay_is_decoupled():
    p = _OneTensor([[2.0]])
    state = tr.AdamState(p.param_items())
    tr.adam_step(p, {"w": np.zeros((1, 1))}, state, lr=0.1, weight_decay=0.5)
    # pure decay (zero gradient): w <- w - lr * wd * w
    assert p.w[0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_adam_rejects_a_gradient_of_the_wrong_shape():
    p = _OneTensor([[1.5, -2.0]])
    state = tr.AdamState(p.param_items())
    with pytest.raises(ValueError, match=r"^gradient for 'w' has shape \(2,\), "
                                         r"expected \(1, 2\)$"):
        tr.adam_step(p, {"w": np.zeros(2)}, state, lr=0.1)
    assert p.w.tolist() == [[1.5, -2.0]]


def test_adam_reprojects_convex_variant(rng):
    cfg = small_model(variant="convex", layers=1)
    params = md.init_params(cfg, 4, 2, seed=0)
    state = tr.AdamState(params.param_items())
    grads = {name: rng.normal(size=arr.shape) * 10
             for name, arr in params.param_items()}
    tr.adam_step(params, grads, state, lr=0.5)
    spec = params.field_specs[0]
    for w, _, _ in spec.energy_net.layers[1:]:
        assert np.all(w >= 0.0)


# ---------------------------------------------------------------------------
# metrics


def test_roc_auc_perfect_separation():
    assert tr.roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_roc_auc_pair_counting():
    # positives {0.9, 0.7}, negatives {0.8, 0.6}: 3 of 4 pairs concordant
    assert tr.roc_auc([0.9, 0.7, 0.8, 0.6], [1, 1, 0, 0]) == 0.75


def test_roc_auc_all_ties():
    assert tr.roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5


def test_roc_auc_equals_pair_count_with_ties():
    # heavy ties, and -0.0 tied with 0.0; ranks and pair counts are exact
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        scores = np.where(rng.random(n) < 0.7,
                          rng.choice([-1.0, -0.0, 0.0, 0.25, 1.0], size=n),
                          rng.random(n))
        labels = rng.permutation(np.r_[0, 1, rng.integers(0, 2, n - 2)])
        pos, neg = scores[labels == 1], scores[labels == 0]
        pairs = sum(1.0 if a > b else 0.5 if a == b else 0.0
                    for a in pos for b in neg)
        assert tr.roc_auc(scores, labels) == pairs / (pos.size * neg.size)


def test_roc_auc_single_class_errors():
    with pytest.raises(ValueError, match="both classes"):
        tr.roc_auc([0.5, 0.6], [1, 1])


def test_accuracy_examples():
    assert tr.accuracy([1, 0, 2], [1, 0, 2], [0, 1, 2]) == 1.0
    assert tr.accuracy([1, 0], [0, 1], [0, 1]) == 0.0
    assert tr.accuracy([1] * 10, [1] * 5 + [0] * 5, np.arange(10)) == 0.5
    with pytest.raises(ValueError, match="empty mask"):
        tr.accuracy([1], [1], [])


# ---------------------------------------------------------------------------
# fit


def test_fit_separable_blocks(sbm_dataset):
    cfg = small_model(hidden_dim=16, net_hidden=16)
    tcfg = TrainConfig(lr=0.01, weight_decay=0.001, max_epochs=200,
                       patience=100, seed=1)
    _, history = tr.fit(cfg, tcfg, sbm_dataset)
    assert history.test_at_best >= 0.95


def test_fit_zero_learning_rate_is_constant(sbm_dataset):
    cfg = small_model()
    tcfg = TrainConfig(lr=0.0, max_epochs=5, patience=5, seed=1)
    params, history = tr.fit(cfg, tcfg, sbm_dataset)
    losses = {r["train_loss"] for r in history.records}
    assert len(losses) == 1
    fresh = md.init_params(cfg, sbm_dataset.num_features,
                           sbm_dataset.num_classes, seed=1)
    for (_, a), (_, b) in zip(params.param_items(), fresh.param_items()):
        assert np.array_equal(a, b)


def test_fit_deterministic_per_seed(sbm_dataset):
    cfg = small_model()
    tcfg = TrainConfig(lr=0.01, max_epochs=20, patience=20, seed=9)
    _, h1 = tr.fit(cfg, tcfg, sbm_dataset)
    _, h2 = tr.fit(cfg, tcfg, sbm_dataset)
    assert h1.records == h2.records
    assert h1.best_epoch == h2.best_epoch


def test_fit_reports_test_at_best_val(sbm_dataset):
    cfg = small_model()
    tcfg = TrainConfig(lr=0.01, max_epochs=30, patience=30, seed=4)
    best_params, history = tr.fit(cfg, tcfg, sbm_dataset)
    rec = history.records[history.best_epoch - 1]
    assert rec["val_metric"] == history.best_val
    replay, _ = tr.evaluate_params(best_params, cfg, tcfg, sbm_dataset)
    assert replay["test_accuracy"] == history.test_at_best
    assert replay["val_accuracy"] == history.best_val


def test_fit_early_stops_on_patience(sbm_dataset):
    cfg = small_model()
    tcfg = TrainConfig(lr=0.01, max_epochs=200, patience=3, seed=2)
    _, history = tr.fit(cfg, tcfg, sbm_dataset)
    assert len(history.records) < 200
    assert len(history.records) >= history.best_epoch + 3 or \
        history.best_epoch == len(history.records)


def test_fit_convex_weights_stay_feasible(sbm_dataset):
    cfg = small_model(variant="convex", layers=1)
    tcfg = TrainConfig(lr=0.05, max_epochs=15, patience=15, seed=0)
    params, _ = tr.fit(cfg, tcfg, sbm_dataset)
    for spec in params.field_specs:
        for w, _, _ in spec.energy_net.layers[1:]:
            assert np.all(w >= 0.0)


def test_fit_link_task(sbm_dataset):
    cfg = small_model(hidden_dim=16, net_hidden=16, decoder="link")
    tcfg = TrainConfig(lr=0.01, max_epochs=40, patience=40, seed=2, task="link")
    _, history = tr.fit(cfg, tcfg, sbm_dataset)
    assert 0.0 <= history.test_at_best <= 1.0
    assert history.best_val > 0.5  # better than chance on validation pairs


def test_fit_with_rk4_solver(sbm_dataset):
    cfg = small_model(integration=IntegrationConfig("rk4", 1.0, 0.5))
    tcfg = TrainConfig(lr=0.01, max_epochs=25, patience=25, seed=3)
    _, history = tr.fit(cfg, tcfg, sbm_dataset)
    assert history.records[-1]["train_loss"] < history.records[0]["train_loss"]
    assert history.best_val > 0.5


def test_fit_higher_dim_momentum_with_wider_momentum(sbm_dataset):
    cfg = small_model(variant="higher_dim", momentum_dim=12, layers=1)
    params = md.init_params(cfg, sbm_dataset.num_features,
                            sbm_dataset.num_classes, seed=0)
    assert params.momentum_nets[0].output_dim == 12
    z = md.encode(params, cfg, sbm_dataset)
    assert z.shape == (sbm_dataset.n, cfg.hidden_dim)
    tcfg = TrainConfig(lr=0.01, max_epochs=20, patience=20, seed=0)
    _, history = tr.fit(cfg, tcfg, sbm_dataset)
    assert history.records[-1]["train_loss"] < history.records[0]["train_loss"]


def test_end_to_end_gradients_through_metric_variant(rng):
    # the cogeodesic field couples the metric network's derivatives into the
    # flow; the loss gradient must still match finite differences
    ds = gd.synth_dataset("sbm", sizes=(4, 4), p_in=0.9, p_out=0.2, seed=21)
    cfg = ModelConfig(hidden_dim=4, layers=1, variant="geodesic",
                      integration=IntegrationConfig("euler", 1.0, 0.5),
                      net_hidden=6)
    params = md.init_params(cfg, ds.num_features, ds.num_classes, seed=22)
    z_node, binds = md.encode_nodes(params, cfg, ds)
    logits = params.head.graph(z_node, "head")
    loss = tr.cross_entropy_node(logits, ds.labels, ds.train_mask)
    for name, arr in params.param_items():
        if "metric" in name or name.startswith("compress"):
            leaf = eg.parameter(name, arr.shape)
            rep = eg.check_gradient(loss, leaf, binds, fd_step=1e-5, tol=1e-4)
            assert rep["passed"], (name, rep)


def test_loss_decreases_for_every_variant():
    ds = gd.synth_dataset("sbm", sizes=(10, 10), p_in=0.6, p_out=0.05, seed=5)
    for tag in ham.VARIANTS:
        cfg = ModelConfig(hidden_dim=4, layers=1, variant=tag,
                          integration=IntegrationConfig("euler", 1.0, 1.0),
                          net_hidden=4)
        tcfg = TrainConfig(lr=0.01, weight_decay=0.0, max_epochs=50,
                           patience=50, seed=6)
        _, history = tr.fit(cfg, tcfg, ds)
        first = history.records[0]["train_loss"]
        last = history.records[-1]["train_loss"]
        assert last < first, (tag, first, last)


def test_fit_divergence_aborts_with_best_checkpoint(sbm_dataset):
    # an absurd learning rate overflows the forward pass after one step;
    # training must record the epoch and hand back the last good checkpoint
    cfg = small_model()
    tcfg = TrainConfig(lr=1e200, weight_decay=0.0, max_epochs=10, patience=10,
                       seed=1)
    params, history = tr.fit(cfg, tcfg, sbm_dataset)
    assert history.diverged_at is not None
    assert len(history.records) >= 1
    for _, arr in params.param_items():
        assert np.all(np.isfinite(arr))
    replay, _ = tr.evaluate_params(params, cfg,
                                   TrainConfig(lr=0.01, seed=1), sbm_dataset)
    assert replay["val_accuracy"] == history.best_val


@pytest.mark.parametrize("slot, what", [
    ("train", "training"), ("val", "validation"), ("test", "test")])
def test_fit_rejects_an_empty_mask_before_building_a_graph(
        sbm_dataset, monkeypatch, slot, what):
    masks = {"train": sbm_dataset.train_mask, "val": sbm_dataset.val_mask,
             "test": sbm_dataset.test_mask, slot: []}
    ds = gd.GraphDataset("x", sbm_dataset.features, sbm_dataset.labels, sbm_dataset.edges,
                         masks["train"], masks["val"], masks["test"])
    monkeypatch.setattr(md, "encode_nodes", None)  # a call would raise TypeError
    with pytest.raises(ValueError, match=f"^dataset has no {what} nodes$"):
        tr.fit(small_model(), TrainConfig(max_epochs=2, patience=2), ds)


@pytest.mark.parametrize("task, decoder", [("link", "classification"),
                                           ("classification", "link")])
def test_fit_rejects_a_decoder_its_task_does_not_read_before_building_a_graph(
        sbm_dataset, monkeypatch, task, decoder):
    monkeypatch.setattr(md, "encode_nodes", None)  # a call would raise TypeError
    monkeypatch.setattr(md, "init_params", None)
    with pytest.raises(ValueError, match=f"^{task} task needs the {task} decoder$"):
        tr.fit(small_model(decoder=decoder),
               TrainConfig(max_epochs=2, patience=2, task=task), sbm_dataset)


def test_a_link_split_without_validation_pairs_fails_by_edge_count(monkeypatch):
    grid = gd.synth_dataset("grid", width=3, height=3)  # 12 edges: 5% is 0.6
    cfg = small_model(decoder="link")
    tcfg = TrainConfig(max_epochs=2, patience=2, task="link")
    message = "^a link split of 12 edges leaves no validation pair$"
    with pytest.raises(ValueError, match=message):
        tr.make_link_split(grid, 0)
    params = md.init_params(cfg, grid.num_features, grid.num_classes, seed=0)
    with pytest.raises(ValueError, match=message):
        tr.evaluate_params(params, cfg, tcfg, grid)
    monkeypatch.setattr(md, "encode_nodes", None)
    with pytest.raises(ValueError, match=message):
        tr.fit(cfg, tcfg, grid)


@pytest.mark.parametrize("ratio", [1, 2])
def test_negative_ratio_sets_the_negatives_per_link_epoch(sbm_dataset, monkeypatch, ratio):
    drawn = []
    sample = tr.negative_sample

    def spy(n_nodes, count, seed, forbidden):
        drawn.append((seed, count))
        return sample(n_nodes, count, seed, forbidden)

    monkeypatch.setattr(tr, "negative_sample", spy)
    cfg = small_model(decoder="link")
    tcfg = TrainConfig(max_epochs=2, patience=2, seed=1, task="link", negative_ratio=ratio)
    _, history = tr.fit(cfg, tcfg, sbm_dataset)
    positives = len(tr.make_link_split(sbm_dataset, 1).train_edges)
    assert [(seed, count) for seed, count in drawn if seed[1] == 3] == [
        ([1, 3, epoch], ratio * positives) for epoch in (1, 2)]
    assert len(history.records) == 2


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    for key in ("lr", "weight_decay"):
        with pytest.raises(ValueError, match="non-negative"):
            TrainConfig(**{key: math.nan})
    with pytest.raises(ValueError):
        TrainConfig(patience=300, max_epochs=200)
    with pytest.raises(ValueError):
        TrainConfig(task="regression")


def test_layer_sweep_single_and_deterministic(sbm_dataset):
    cfg = small_model()
    tcfg = TrainConfig(lr=0.01, max_epochs=15, patience=15, seed=3)
    rows = tr.layer_sweep(cfg, tcfg, sbm_dataset, [1])
    assert len(rows) == 1
    assert rows[0]["layers"] == 1
    rows2 = tr.layer_sweep(cfg, tcfg, sbm_dataset, [1])
    assert rows == rows2
    with pytest.raises(ValueError, match="at least one"):
        tr.layer_sweep(cfg, tcfg, sbm_dataset, [])


def test_history_csv(tmp_path, sbm_dataset):
    cfg = small_model()
    tcfg = TrainConfig(lr=0.01, max_epochs=5, patience=5, seed=0)
    _, history = tr.fit(cfg, tcfg, sbm_dataset)
    out = tmp_path / "history.csv"
    history.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_metric,test_metric"
    assert len(lines) == len(history.records) + 1


# sha256 of fit's history and of encode on the returned parameters, on the
# 40-node SBM fixture.  Taken with the one-pair-at-a-time sampler and
# scale-by-zero fills, so equal digests show that the block sampler and
# zeros_like keep every bit.  Re-pinned once when the compressor came to
# multiply only the feature table's non-zeros and the energy nets' first
# layer to take q and p apart, which reorders sums: the losses moved by at
# most 2 ulp, and the test metrics kept their bits.  Re-pinned once more
# when the backward sweep came to add adjoints in descending node id, the
# sigmoid became ``scipy.special.expit`` and the symplectic field came to
# take grad H from the canonical field: flexible-classification, both
# geodesic and both symplectic digests moved, no loss by more than 2 ulp,
# and no test metric did.  The flexible digests were re-pinned once more
# when the orbit came to move in the energy net's first-layer chart: two
# classification losses and one link loss moved, by at most 2 ulp, and no
# test metric did.  A re-pinned entry takes its variant and task as its test
# id, so a later re-pin does not rename it; the others keep the id pytest
# derives until their next re-pin.  The convex, relaxed, geodesic_relaxed and
# higher_dim entries were pinned before broadcasts became explicit expands,
# so that change is checked to keep the training bits of all eight variants.
# The flexible and convex digests were re-pinned when the momentum map came
# to fold into the chart's start: one flexible link loss moved by 1 ulp and
# one convex loss by 2, the flexible classification losses kept their bits
# (its embeddings did not), and no test metric moved.  The flexible digests
# were re-pinned when the energy's output row and the step size came to fold
# into the chart's matrices: every loss and test metric kept its bits, and
# 63 of the 320 encoded entries moved, by at most 8.9e-16.
# The symplectic variant is kept small: its field takes a Jacobian row by row.
FIT_DIGESTS = [
    pytest.param("flexible", "classification",
                 "104ccb743759dee59887a270a0235cffd6bec13da97388b5204a7210f6089562",
                 id="flexible-classification"),
    pytest.param("flexible", "link",
                 "439cbefd9b4f958ca3696fc25ecb714d68965d6b019e1573f657e3e47df7cb46",
                 id="flexible-link"),
    ("geodesic", "classification",
     "0b971822b04748a4f877c0daa5823779115d47cb421891b5b1c2b71aec142922"),
    ("geodesic", "link", "957b52b714b4f3714199894f040f34e2d7115cdc7bbe1470cb75699494b84575"),
    ("symplectic", "classification",
     "7a9cc3afa491cdbefffc75b0dc7f7d6645f5ddfbc2f21b39bc90954560f8fdb6"),
    ("symplectic", "link", "9f656133a20ae435c98c47fea0fba2cb5146dddd04bf672f4edc8efbda616632"),
    ("vanilla_ode", "classification",
     "c3c559194fc38600b87b996fd7af683753f98b535f3ba9bf7334f53cd358b0b7"),
    ("vanilla_ode", "link", "9d8b520a5e47d611aad49359b700806f1ebd9c237203e7b12ecc00328bef9484"),
    pytest.param("convex", "classification",
                 "051ea1c1f40f1bfaf5cec1591173ffe4555d72fbfcd46070cf36479b9438f32a",
                 id="convex-classification"),
    pytest.param("relaxed", "classification",
                 "3d22f67d8709af0a5f6f8b21ce831939fd74c7d024b5d1d63eb04ebecc884fc7",
                 id="relaxed-classification"),
    pytest.param("geodesic_relaxed", "classification",
                 "01c22ccc0497e2576c299194e94f4937eb342270c0e4c4657e3404dbe746b5ab",
                 id="geodesic_relaxed-classification"),
    pytest.param("higher_dim", "classification",
                 "12d3c27f79f8bd3aaf9b00f9af1808d4d032040564dcb889ddc24b5c09f2a73e",
                 id="higher_dim-classification"),
]


@pytest.mark.parametrize("variant, task, digest", FIT_DIGESTS)
def test_fit_and_encode_digest_is_pinned(sbm_dataset, variant, task, digest):
    small = variant == "symplectic"
    cfg = small_model(hidden_dim=4 if small else 8, layers=1 if small else 2,
                      net_hidden=4 if small else 8, variant=variant,
                      decoder="link" if task == "link" else "classification")
    epochs = 4 if small else 6
    tcfg = TrainConfig(lr=0.01, max_epochs=epochs, patience=epochs, seed=5, task=task)
    params, history = tr.fit(cfg, tcfg, sbm_dataset)
    h = hashlib.sha256()
    h.update(repr((history.records, history.best_epoch, history.best_val,
                   history.test_at_best, history.diverged_at)).encode())
    h.update(np.ascontiguousarray(md.encode(params, cfg, sbm_dataset), dtype="<f8").tobytes())
    assert h.hexdigest() == digest


def test_flexible_training_graph_builds_no_half_zero_adjoint_sums(
        sbm_dataset, training_outputs):
    cfg = small_model()
    nodes = eg._reachable(training_outputs(cfg, sbm_dataset)[0])
    assert not [n for n in nodes if n.op == "slice" and n.inputs[0].op == "concat"]
    # the energy net's first layer takes q and p apart, so no (n, 2d) state
    # q‖p is built; the one concat per layer is the adjoint of that layer's
    # first energy weight, whose two column blocks meet as one concat of
    # their parts, summed over the solver steps part by part
    concats = [n for n in nodes if n.op == "concat"]
    assert [n.shape for n in concats] == [(cfg.field_hidden, 2 * cfg.hidden_dim)] * cfg.layers
    assert not [n for n in nodes
                if n.op == "elementwise-add" and "concat" in [i.op for i in n.inputs]]
    # and no half of an adjoint is padded with zeros
    assert not [n for n in concats if any(eg._is_zero_fill(i) for i in n.inputs)]


def _inner_dim(node):
    return node.inputs[0].shape[-1]


def _is_ones(node):
    return node.op == "constant" and bool(np.all(node.attrs["value"] == 1.0))


def _is_outer(node):
    """Whether ``node`` is an ``outer(u, v)``: a column-expanded ``u`` times
    the row ``v`` expanded over the rows."""
    if node.op != "elementwise-mul":
        return False
    u, v = node.inputs
    return (u.op == v.op == "expand" and u.attrs["column"] and not v.attrs["column"]
            and len(v.inputs[0].shape) == 1)


def _link_training_outputs(cfg, dataset):
    params = md.init_params(cfg, dataset.num_features, dataset.num_classes, seed=0)
    z, _ = md.encode_nodes(params, cfg, dataset)
    positives = np.array(tr.make_link_split(dataset, 0).train_edges).reshape(-1, 2)
    negatives = tr.negative_sample(dataset.n, len(positives), [0, 3, 1],
                                   np.array(dataset.edges).reshape(-1, 2))
    loss = tr._link_loss_node(z, positives, negatives)
    leaves = [eg.parameter(name, arr.shape) for name, arr in params.param_items()]
    return [loss, z, *eg.gradient_all(loss, leaves, allow_unused=True)], params.bindings()


@pytest.mark.parametrize("task", ["classification", "link"])
@pytest.mark.parametrize("variant", ["flexible", "geodesic", "convex"])
def test_training_graph_evaluates_no_materialised_broadcast(
        sbm_dataset, training_outputs, variant, task):
    cfg = small_model(variant=variant,
                      decoder="link" if task == "link" else "classification")
    build = training_outputs if task == "classification" else _link_training_outputs
    outputs, bindings = build(cfg, sbm_dataset)
    evaluated = eg._reachable(outputs)
    # each summed energy's seed reaches the last energy layer as an expanded
    # row, not as a K = 1 product of a ones column with that layer's weight
    assert not [n for n in evaluated if n.op == "affine" and _inner_dim(n) == 1]
    assert not [n for n in evaluated if _is_outer(n) and (
        _is_ones(n.inputs[0].inputs[0]) or _is_ones(n.inputs[1].inputs[0]))]
    assert "expand" in {n.op for n in evaluated}
    # a tanh's slope 1 - t*t is built where it is read, by the field and by
    # the training sweep.  The flexible chart's field reads every tanh's
    # slope; geodesic's reads the metric's slope for the momentum update,
    # which nothing reads after a layer's last step
    tanhs = [n.nid for n in evaluated if n.op == "tanh"]
    squares = [Counter(n.inputs[0].nid for n in nodes
                       if n.op == "elementwise-mul" and n.inputs[0] is n.inputs[1])
               for nodes in (evaluated, eg._reachable([outputs[1]]))]  # and the encode
    assert [[count[t] for t in tanhs] for count in squares] == {
        "flexible": [[2, 2, 2, 2], [1, 1, 1, 1]],
        "geodesic": [[2, 1, 2, 1], [1, 0, 1, 0]],
        "convex": [[], []]}[variant]
    assert all(np.isfinite(v).all() for v in eg.evaluate(outputs, bindings))


@pytest.mark.parametrize("task", ["classification", "link"])
@pytest.mark.parametrize("variant", ["flexible", "geodesic", "convex"])
def test_training_graph_evaluates_one_op_per_job(sbm_dataset, training_outputs, variant, task):
    cfg = small_model(variant=variant,
                      decoder="link" if task == "link" else "classification")
    build = training_outputs if task == "classification" else _link_training_outputs
    evaluated = eg._reachable(build(cfg, sbm_dataset)[0])
    ops = {n.op for n in evaluated}
    # zero fills are expands of one scalar, negations are scales by -1, and
    # a difference is one node, not a sum with a negated temporary
    assert not ops & {"zeros-like", "negate", "dot"}
    assert "elementwise-sub" in ops
    assert not [n for n in evaluated if n.op == "elementwise-add" and any(
        i.op == "scale" and i.attrs["factor"] == -1.0 for i in n.inputs)]


def _link_sbm():
    return gd.synth_dataset("sbm", sizes=(150, 150), p_in=0.1, p_out=0.01, seed=0)


def _link_model(variant="flexible", method="euler"):
    return ModelConfig(hidden_dim=16, layers=3, variant=variant, decoder="link",
                       integration=IntegrationConfig(method, 1.0, 0.5))


def test_link_training_graph_holds_no_pair_sized_rows():
    ds, cfg = _link_sbm(), _link_model()
    outputs, _ = _link_training_outputs(cfg, ds)
    pairs = 2 * len(tr.make_link_split(ds, 0).train_edges)  # one negative per positive
    graph = eg._reachable(outputs)
    assert not [n for n in graph if n.shape == (pairs, cfg.hidden_dim)]
    (scores,) = [n for n in graph if n.op == "pair-dot"]
    assert scores.shape == (pairs,)


# Peak of one link training evaluation on the 300-node SBM (4,218 training
# pairs), in units of one (n, d) array.  Measured: flexible 32.5x with Euler
# and 95x with RK4, convex 63.5x with Euler.  Scoring the pairs through two
# gathered (pairs, d) row tables and their product, with two more such
# products and two scatters in the backward sweep, needed 64x, 125x and 95x.
@pytest.mark.parametrize("variant, method, bound", [
    ("flexible", "euler", 35), ("flexible", "rk4", 101), ("convex", "euler", 67)])
def test_link_training_evaluation_peak_memory_is_bounded(variant, method, bound):
    ds, cfg = _link_sbm(), _link_model(variant, method)
    outputs, bindings = _link_training_outputs(cfg, ds)
    eg.evaluate(outputs, bindings)  # the sparse plans are built on first use
    tracemalloc.start()
    try:
        eg.evaluate(outputs, bindings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * ds.n * cfg.hidden_dim * 8


# Peak of one training evaluation in units of one (n, d) array.  Measured:
# flexible about 31x with Euler and 94x with RK4, geodesic 42x and 156x,
# convex 62x and 219x.  Holding every tanh slope 1 - t*t and its product with
# the field's adjoint from the forward pass to the backward sweep, instead of
# running them again after the peak, needs 41x and 136x for flexible, 62x and
# 281x for geodesic and 83x and 306x for convex; materialising the broadcast
# adjoints and a depth-first schedule need more still.
@pytest.mark.parametrize("variant, method, bound", [
    ("flexible", "euler", 33), ("flexible", "rk4", 101),
    ("geodesic", "euler", 45), ("geodesic", "rk4", 168),
    ("convex", "euler", 67), ("convex", "rk4", 237)])
def test_training_evaluation_peak_memory_is_bounded(training_outputs, variant, method, bound):
    ds = gd.synth_dataset("sbm", sizes=(150, 150), p_in=0.1, p_out=0.01, seed=0)
    cfg = ModelConfig(hidden_dim=16, layers=3, variant=variant,
                      integration=IntegrationConfig(method, 1.0, 0.5))
    outputs, bindings = training_outputs(cfg, ds)
    eg.evaluate(outputs, bindings)  # the sparse plans are built on first use
    tracemalloc.start()
    try:
        eg.evaluate(outputs, bindings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * ds.n * cfg.hidden_dim * 8

"""Model assembly: compression, momentum, aggregation, encoding, decoders,
the baseline, and checkpoints."""

import json
import tracemalloc

import numpy as np
import pytest

from hamgnn import engine as eg
from hamgnn import graphdata as gd
from hamgnn import hamiltonian as ham
from hamgnn import model as md
from hamgnn import odeint as oi
from hamgnn.hamiltonian import PhaseState
from hamgnn.model import ModelConfig
from hamgnn.odeint import IntegrationConfig


def small_config(**kw):
    base = dict(hidden_dim=4, layers=2, variant="flexible",
                integration=IntegrationConfig("euler", 1.0, 0.5), net_hidden=6)
    base.update(kw)
    return ModelConfig(**base)


def dense_neighbor_mean(n, edges):
    """Reference neighbor-mean operator, dense and built edge by edge: row u
    holds 1/|N(u)| at u's neighbors; isolated nodes get an all-zero row."""
    mat = np.zeros((n, n))
    degree = np.zeros(n)
    for u, v in edges:
        mat[u, v] = 1.0
        mat[v, u] = 1.0
        degree[u] += 1.0
        degree[v] += 1.0
    nonzero = degree > 0
    mat[nonzero] /= degree[nonzero, None]
    return mat


def assert_roundoff_close(got, expected):
    """Equal up to float64 round-off of a reordered sum."""
    bound = 1e-12 * max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(got - expected)) <= bound


def graph_nodes(output):
    seen, stack = {}, [output]
    while stack:
        node = stack.pop()
        if node.nid not in seen:
            seen[node.nid] = node
            stack.extend(node.inputs)
    return list(seen.values())


def zero_fields(params):
    for spec in params.field_specs:
        for name, net in ham._spec_nets(spec):
            for w, b, _ in net.layers:
                w[...] = 0.0
                b[...] = 0.0
    return params


# ---------------------------------------------------------------------------
# config


def test_model_config_validation():
    with pytest.raises(ValueError, match="unknown variant"):
        small_config(variant="nope")
    with pytest.raises(ValueError, match="signature"):
        small_config(variant="geodesic", signature=ham.Signature(1, 1))
    with pytest.raises(ValueError, match="decoder"):
        small_config(decoder="regression")


# Parameter names of one layer's field spec, in order.  Checkpoints store
# tensors under these names, so they must not change.
FIELD_PARAM_NAMES = {
    "geodesic": "metric.w0 metric.b0 metric.w1 metric.b1",
    "flexible": "energy.w0 energy.b0 energy.w1 energy.b1",
    "convex": "energy.w0 energy.b0 energy.w1 energy.b1 energy.w2 energy.b2",
    "relaxed": "energy.w0 energy.b0 energy.w1 energy.b1 "
               "bias.w0 bias.b0 bias.w1 bias.b1",
    "symplectic": "energy.w0 energy.b0 energy.w1 energy.b1 "
                  "form.w0 form.b0 form.w1 form.b1",
    "geodesic_relaxed": "metric.w0 metric.b0 metric.w1 metric.b1 "
                        "bias.w0 bias.b0 bias.w1 bias.b1",
    "higher_dim": "h1.w0 h1.b0 h1.w1 h1.b1 h2.w0 h2.b0 h2.w1 h2.b1",
    "vanilla_ode": "f.w0 f.b0 f.w1 f.b1",
}


@pytest.mark.parametrize("tag", ham.VARIANT_TAGS)
def test_param_names_per_variant(tag):
    params = md.init_params(small_config(variant=tag), 3, 2, seed=0)
    expected = ["compress.w0", "compress.b0"]
    for i in range(2):
        expected += [f"layer{i}.momentum.w0", f"layer{i}.momentum.b0"]
        expected += [f"layer{i}.field.{name}" for name in FIELD_PARAM_NAMES[tag].split()]
    expected += ["head.w0", "head.b0"]
    assert [name for name, _ in params.param_items()] == expected


# ---------------------------------------------------------------------------
# compress / momentum


def test_compress_zero_params_gives_zero(sbm_dataset):
    cfg = small_config()
    params = md.init_params(cfg, sbm_dataset.num_features, 2, seed=0)
    w, b, _ = params.compressor.layers[0]
    w[...] = 0.0
    b[...] = 0.0
    out = md.compress(params, sbm_dataset.features)
    assert np.all(out.array == 0.0)
    assert out.shape == (sbm_dataset.n, cfg.hidden_dim)


def test_compress_identity():
    cfg = small_config()
    params = md.init_params(cfg, 4, 2, seed=0)
    w, b, _ = params.compressor.layers[0]
    w[...] = np.eye(4)
    b[...] = 0.0
    x = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(md.compress(params, x).array, x)


def test_compress_batch_matches_rowwise(rng):
    cfg = small_config()
    params = md.init_params(cfg, 5, 2, seed=1)
    x = rng.normal(size=(7, 5))
    batch = md.compress(params, x).array
    for i in range(7):
        row = md.compress(params, x[i]).array
        # batched and single-row products may differ in the final ulp
        assert eg.relative_error(batch[i], row) <= 1e-14


def test_init_momentum_examples(rng):
    zero = eg.MlpParams([(np.zeros((3, 3)), np.zeros(3), None)])
    assert md.init_momentum(zero, [1.0, 2.0, 3.0]).tolist() == [0.0, 0.0, 0.0]
    ident = eg.MlpParams([(np.eye(3), np.zeros(3), None)])
    assert md.init_momentum(ident, [1.0, 2.0, 3.0]).tolist() == [1.0, 2.0, 3.0]
    w = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    net = eg.MlpParams([(w, b, None)])
    q = rng.normal(size=3)
    assert eg.relative_error(md.init_momentum(net, q).array, w @ q + b) <= 1e-12


def test_zero_momentum_freezes_metric_orbit(rng):
    # with p = 0 the cogeodesic field is dq = g * 0 = 0: the position is fixed
    spec = ham.make_spec("geodesic", 3, 6, rng)
    q0 = rng.normal(size=3)
    traj = oi.integrate(spec, PhaseState(q0, np.zeros(3)),
                        IntegrationConfig("rk4", 1.0, 0.25))
    assert np.max(np.abs(traj.last.q - q0)) <= 1e-12


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_path_example(path3_dataset):
    out = md.aggregate(path3_dataset.features, path3_dataset.edges)
    assert out.array.ravel().tolist() == [3.0, 4.0, 5.0]


def test_aggregate_equal_features_double():
    feats = np.full((4, 3), 2.5)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    out = md.aggregate(feats, edges)
    assert np.allclose(out.array, 5.0)


def test_aggregate_isolated_node_unchanged():
    feats = np.array([[7.0], [1.0], [1.0]])
    out = md.aggregate(feats, [(1, 2)])
    assert out.array.ravel().tolist() == [7.0, 2.0, 2.0]


@pytest.mark.parametrize("width", [None, 5])
def test_neighbor_mean_matches_dense_reference(rng, width):
    n, isolated = 30, 4
    pool = [(u, v) for u in range(n - isolated) for v in range(u + 1, n - isolated)]
    for _ in range(5):
        edges = [pool[i] for i in rng.choice(len(pool), size=40, replace=False)]
        rows, cols, weights = md.aggregation_matrix(n, edges)
        assert rows.size == 2 * len(edges)
        assert max(rows.max(), cols.max()) < n - isolated
        x = rng.normal(size=(n,) if width is None else (n, width))
        leaf = eg.parameter("x", x.shape)
        got = eg.evaluate(eg.sparse_matmul(leaf, rows, cols, weights, n), {"x": x})
        assert_roundoff_close(got, dense_neighbor_mean(n, edges) @ x)
        assert np.all(got[n - isolated:] == 0.0)


# ---------------------------------------------------------------------------
# encode


def test_encode_zero_dynamics_is_iterated_aggregation(sbm_dataset):
    cfg = small_config(layers=3)
    params = md.init_params(cfg, sbm_dataset.num_features,
                            sbm_dataset.num_classes, seed=2)
    zero_fields(params)
    z = md.encode(params, cfg, sbm_dataset)
    expected = md.compress(params, sbm_dataset.features).array
    mat = dense_neighbor_mean(sbm_dataset.n, sbm_dataset.edges)
    for _ in range(3):
        expected = expected + mat @ expected
    assert_roundoff_close(z, expected)


def test_encode_graph_holds_no_quadratic_constant():
    ds = gd.synth_dataset("grid", width=12, height=10, seed=0)
    cfg = small_config()
    params = md.init_params(cfg, ds.num_features, ds.num_classes, seed=0)
    z, _ = md.encode_nodes(params, cfg, ds)
    sizes = [node.attrs["value"].size for node in graph_nodes(z)
             if node.op == "constant"]
    assert max(sizes) == ds.features.size < ds.n * ds.n


def test_encode_peak_memory_is_linear_in_graph_size():
    # a dense n x n operator would take 128 MB at this size
    ds = gd.synth_dataset("grid", width=64, height=63, seed=0)
    cfg = small_config(hidden_dim=16, layers=1, net_hidden=16)
    params = md.init_params(cfg, ds.num_features, ds.num_classes, seed=0)
    tracemalloc.start()
    try:
        md.encode(params, cfg, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_encode_single_isolated_node_is_orbit_endpoint(rng):
    cfg = small_config(layers=1)
    ds = gd.GraphDataset("one", rng.normal(size=(1, 3)), [0], [], [0], [], [])
    params = md.init_params(cfg, 3, 1, seed=4)
    z = md.encode(params, cfg, ds)
    q0 = md.compress(params, ds.features).array[0]
    p0 = md.init_momentum(params.momentum_nets[0], q0).array
    traj = oi.integrate(params.field_specs[0], PhaseState(q0, p0),
                        cfg.integration)
    assert eg.relative_error(z[0], traj.last.q) <= 1e-12


def test_encode_matches_straight_line_reimplementation(rng):
    # independent oracle: plain numpy forward pass with hand-derived
    # derivatives of the single-hidden-layer energy network
    cfg = small_config(layers=2)
    ds = gd.synth_dataset("sbm", sizes=(3, 2), p_in=0.9, p_out=0.3, seed=6)
    params = md.init_params(cfg, ds.num_features, ds.num_classes, seed=7)

    wc, bc, _ = params.compressor.layers[0]
    h = ds.features @ wc.T + bc
    mat = dense_neighbor_mean(ds.n, ds.edges)
    n_steps = cfg.integration.n_steps
    dt = cfg.integration.horizon / n_steps
    for qnet, spec in zip(params.momentum_nets, params.field_specs):
        wq, bq, _ = qnet.layers[0]
        p = h @ wq.T + bq
        q = h.copy()
        (w0, b0, _), (w1, b1, _) = spec.energy_net.layers
        for _ in range(n_steps):
            z = np.concatenate([q, p], axis=1)
            t = np.tanh(z @ w0.T + b0)
            gz = ((1.0 - t * t) * w1[0]) @ w0
            d = q.shape[1]
            q, p = q + dt * gz[:, d:], p - dt * gz[:, :d]
        h = q + mat @ q

    got = md.encode(params, cfg, ds)
    assert np.max(np.abs(got - h)) <= 1e-10


def test_encode_permutation_equivariance(rng, sbm_dataset):
    cfg = small_config()
    params = md.init_params(cfg, sbm_dataset.num_features,
                            sbm_dataset.num_classes, seed=8)
    z = md.encode(params, cfg, sbm_dataset)

    perm = rng.permutation(sbm_dataset.n)
    inv = np.argsort(perm)
    permuted = gd.GraphDataset(
        "perm", sbm_dataset.features[perm], sbm_dataset.labels[perm],
        [(int(inv[u]), int(inv[v])) for u, v in sbm_dataset.edges],
        inv[sbm_dataset.train_mask], inv[sbm_dataset.val_mask],
        inv[sbm_dataset.test_mask])
    z_perm = md.encode(params, cfg, permuted)
    assert np.max(np.abs(z_perm - z[perm])) <= 1e-12


def test_encode_feature_dimension_mismatch(sbm_dataset):
    cfg = small_config()
    params = md.init_params(cfg, sbm_dataset.num_features + 1, 2, seed=0)
    with pytest.raises(ValueError, match="features"):
        md.encode(params, cfg, sbm_dataset)


def test_encode_divergence_names_layer_and_rows(rng, sbm_dataset):
    cfg = small_config(layers=1, variant="vanilla_ode",
                       integration=IntegrationConfig("euler", 8.0, 1.0))
    params = md.init_params(cfg, sbm_dataset.num_features,
                            sbm_dataset.num_classes, seed=0)
    big = 1e80
    params.field_specs[0] = ham.VanillaOde(eg.MlpParams(
        [(np.full((4, 4), big), np.zeros(4), "relu"),
         (np.full((4, 4), big), np.zeros(4), None)]))
    with pytest.raises(FloatingPointError) as err:
        md.encode(params, cfg, sbm_dataset)
    message = str(err.value)
    assert "layer0.field" in message
    assert "rows" in message


def test_per_node_energy_conservation_along_layers(rng):
    # desk-scale conservation: every node's orbit keeps its energy
    ds = gd.synth_dataset("sbm", sizes=(3, 3), p_in=0.8, p_out=0.2, seed=1)
    cfg = small_config(layers=2,
                       integration=IntegrationConfig("rk4", 1.0, 0.01))
    params = md.init_params(cfg, ds.num_features, ds.num_classes, seed=3)
    h = md.compress(params, ds.features).array
    mat = dense_neighbor_mean(ds.n, ds.edges)
    for qnet, spec in zip(params.momentum_nets, params.field_specs):
        ends = []
        for i in range(ds.n):
            p0 = md.init_momentum(qnet, h[i]).array
            traj = oi.integrate(spec, PhaseState(h[i], p0), cfg.integration)
            drift = oi.energy_drift(spec, traj)
            assert drift["relative_drift"] <= 1e-3
            ends.append(traj.last.q)
        q_end = np.array(ends)
        h = q_end + mat @ q_end


def test_euler_drift_ratio_along_orbit(rng):
    spec = ham.make_spec("flexible", 4, 8, rng)
    st = PhaseState(rng.normal(size=4), rng.normal(size=4))

    def drift(h):
        traj = oi.integrate(spec, st, IntegrationConfig("euler", 1.0, h))
        return oi.energy_drift(spec, traj)["max_abs_drift"]

    ratio = drift(0.02) / drift(0.01)
    assert 1.8 <= ratio <= 2.2


def test_quadratic_energy_norm_is_stable(rng, oscillator):
    # conserved H = (|q|^2 + |p|^2) / 2 pins the phase-space norm
    spec = oscillator(ham.make_spec("flexible", 3, 4, rng))
    st = PhaseState(rng.normal(size=3), rng.normal(size=3))
    traj = oi.integrate(spec, st, IntegrationConfig("rk4", 2.0, 0.01))
    norms = [np.hypot(np.linalg.norm(s.q), np.linalg.norm(s.p))
             for s in traj.states]
    assert max(norms) - min(norms) <= 1e-8 * max(norms)


# ---------------------------------------------------------------------------
# decoders and baseline


def test_decode_class_uniform_ties_break_low():
    head = eg.MlpParams([(np.zeros((3, 4)), np.zeros(3), None)])
    logits = md.decode_class(head, np.ones((5, 4)))
    assert md.predict_classes(logits).tolist() == [0, 0, 0, 0, 0]


def test_decode_class_one_hot_selector(rng):
    head = eg.MlpParams([(np.eye(3), np.zeros(3), None)])
    z = rng.normal(size=(6, 3))
    logits = md.decode_class(head, z)
    assert np.array_equal(md.predict_classes(logits), np.argmax(z, axis=1))


def test_decode_class_matches_rowwise(rng):
    head = eg.MlpParams([(rng.normal(size=(4, 5)), rng.normal(size=4), None)])
    z = rng.normal(size=(6, 5))
    batch = md.decode_class(head, z).array
    for i in range(6):
        assert eg.relative_error(batch[i], md.decode_class(head, z[i]).array) <= 1e-14


def test_decode_link_values(rng):
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert md.decode_link(z, [(0, 1)]) == pytest.approx([0.5])
    v = np.sqrt(np.log(3.0) / 2.0)
    z2 = np.array([[v, v], [v, v]])
    assert md.decode_link(z2, [(0, 1)]) == pytest.approx([0.75])
    z3 = rng.normal(size=(10, 4))
    probs = md.decode_link(z3, [(i, j) for i in range(10) for j in range(i)])
    assert np.all(probs > 0.0)
    assert np.all(probs < 1.0)
    with pytest.raises(ValueError, match="unknown node"):
        md.decode_link(z, [(0, 7)])


def test_baseline_mlp_zero_params_uniform(sbm_dataset):
    params = md.baseline_mlp_params(sbm_dataset.num_features, 2, 8, seed=0)
    for w, b, _ in params.layers:
        w[...] = 0.0
        b[...] = 0.0
    logits = md.baseline_mlp(params, sbm_dataset).array
    assert np.all(logits == 0.0)


def test_baseline_mlp_ignores_topology(sbm_dataset):
    params = md.baseline_mlp_params(sbm_dataset.num_features,
                                    sbm_dataset.num_classes, 8, seed=1)
    with_edges = md.baseline_mlp(params, sbm_dataset).array
    stripped = gd.GraphDataset("bare", sbm_dataset.features, sbm_dataset.labels,
                               [], sbm_dataset.train_mask, sbm_dataset.val_mask,
                               sbm_dataset.test_mask)
    assert np.array_equal(with_edges, md.baseline_mlp(params, stripped).array)


def test_baseline_mlp_matches_rowwise(rng, sbm_dataset):
    params = md.baseline_mlp_params(sbm_dataset.num_features,
                                    sbm_dataset.num_classes, 8, seed=2)
    batch = md.baseline_mlp(params, sbm_dataset).array
    leaf = eg.parameter("x", (sbm_dataset.num_features,))
    node = params.graph(leaf, "mlp")
    for i in range(0, sbm_dataset.n, 7):
        row = eg.evaluate(node, {"x": sbm_dataset.features[i],
                                 **params.bindings("mlp")})
        assert eg.relative_error(batch[i], row) <= 1e-14


# ---------------------------------------------------------------------------
# checkpoints


def saved_checkpoint(root, dataset):
    params = md.init_params(small_config(), dataset.num_features,
                            dataset.num_classes, seed=5)
    # the complete echo, as `hamgnn train` writes it
    echo = {"model": {"hidden_dim": 4, "layers": 2, "variant": "flexible",
                      "signature": None, "decoder": "classification",
                      "net_hidden": 6, "rho": 0.1, "phi": "tanh", "eps": 0.001,
                      "momentum_dim": None, "convex_activation": "rehu"},
            "integration": {"method": "euler", "horizon": 1.0, "step": 0.5},
            "num_features": dataset.num_features,
            "num_classes": dataset.num_classes, "seed": 5}
    md.save_checkpoint(params, echo, root)
    return params


def edit_manifest_config(root, edit):
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["config"])
    path.write_text(json.dumps(manifest))


def test_checkpoint_roundtrip(tmp_path, sbm_dataset):
    cfg = small_config()
    params = saved_checkpoint(tmp_path / "ckpt", sbm_dataset)
    loaded, manifest = md.load_checkpoint(tmp_path / "ckpt")
    for (name, arr), (name2, arr2) in zip(params.param_items(),
                                          loaded.param_items()):
        assert name == name2
        assert np.array_equal(arr, arr2)
    z1 = md.encode(params, cfg, sbm_dataset)
    z2 = md.encode(loaded, cfg, sbm_dataset)
    assert np.array_equal(z1, z2)
    assert manifest["config"]["seed"] == 5


def test_checkpoint_manifest_must_list_every_tensor_once(tmp_path, sbm_dataset):
    saved_checkpoint(tmp_path, sbm_dataset)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    tensors = manifest["tensors"]
    path.write_text(json.dumps({**manifest, "tensors": tensors[:1]}))
    with pytest.raises(ValueError, match="missing tensors"):
        md.load_checkpoint(tmp_path)
    twice = [tensors[0], {**tensors[0], "offset": tensors[1]["offset"]}] + tensors[2:]
    path.write_text(json.dumps({**manifest, "tensors": twice}))
    with pytest.raises(ValueError, match="listed twice"):
        md.load_checkpoint(tmp_path)


def test_checkpoint_rejects_trailing_bytes(tmp_path, sbm_dataset):
    saved_checkpoint(tmp_path, sbm_dataset)
    blob = tmp_path / "params.bin"
    blob.write_bytes(blob.read_bytes() + bytes(16))
    with pytest.raises(ValueError, match="params.bin holds"):
        md.load_checkpoint(tmp_path)


def test_checkpoint_rejects_missing_model_field(tmp_path, sbm_dataset):
    saved_checkpoint(tmp_path, sbm_dataset)
    edit_manifest_config(tmp_path, lambda cfg: cfg["model"].pop("hidden_dim"))
    with pytest.raises(ValueError, match=r"missing key model\.hidden_dim"):
        md.load_checkpoint(tmp_path)


def test_checkpoint_rejects_missing_field_with_default(tmp_path, sbm_dataset):
    saved_checkpoint(tmp_path, sbm_dataset)
    edit_manifest_config(tmp_path, lambda cfg: cfg["model"].pop("rho"))
    with pytest.raises(ValueError, match=r"missing key model\.rho"):
        md.load_checkpoint(tmp_path)


def test_checkpoint_rejects_extra_integration_field(tmp_path, sbm_dataset):
    saved_checkpoint(tmp_path, sbm_dataset)
    edit_manifest_config(tmp_path, lambda cfg: cfg["integration"].update(order=4))
    with pytest.raises(ValueError, match=r"unknown key integration\.order"):
        md.load_checkpoint(tmp_path)


@pytest.mark.parametrize("key", ["seed", "num_features", "num_classes"])
def test_checkpoint_rejects_missing_top_level_key(tmp_path, sbm_dataset, key):
    saved_checkpoint(tmp_path, sbm_dataset)
    edit_manifest_config(tmp_path, lambda cfg: cfg.pop(key))
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        md.load_checkpoint(tmp_path)

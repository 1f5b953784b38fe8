"""Model assembly: compression, momentum, aggregation, encoding, decoders,
the baseline, and checkpoints."""

import gc
import hashlib
import json
import tracemalloc
from dataclasses import fields

import numpy as np
import scipy.special
import pytest

from hamgnn import engine as eg
from hamgnn import graphdata as gd
from hamgnn import hamiltonian as ham
from hamgnn import model as md
from hamgnn import odeint as oi
from hamgnn.hamiltonian import PhaseState
from hamgnn.model import ModelConfig
from hamgnn.odeint import IntegrationConfig
from oracles import (LOGISTIC_GRID, baseline_mlp_nodes, baseline_mlp_params,
                     canonical_encode_nodes, delta_chart_encode_nodes, dense_encode_nodes,
                     three_pass_logistic, unfolded_encode_nodes)


def affine_rows(net, name, x):
    """``net`` on the rows of ``x`` (or on one vector), through the graph that
    ``encode_nodes`` builds for the compressor and the momentum maps."""
    return eg.evaluate(net.graph(eg.constant(x), name), net.bindings(name))


def neighbour_mean_step(x, edges):
    """``x`` plus the neighbour mean of ``x``, as one layer of ``encode_nodes``
    adds it."""
    leaf = eg.constant(x)
    mean = eg.sparse_matmul(leaf, md.aggregation_matrix(len(x), edges))
    return eg.evaluate(eg.add(leaf, mean))


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
        for _, arr in spec.param_items("field"):
            arr[...] = 0.0
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


@pytest.mark.parametrize("key", ["net_hidden", "momentum_dim"])
def test_model_config_rejects_widths_below_one(key):
    for value in (0, -2):
        with pytest.raises(ValueError, match=f"{key} must be at least 1"):
            small_config(**{key: value})
    cfg = small_config(variant="higher_dim", **{key: None})  # null: hidden_dim
    assert cfg.field_hidden == (4 if key == "net_hidden" else 6)
    assert md.init_params(cfg, 3, 2).field_specs[0].p_dim == 4


@pytest.mark.parametrize("key, bad, good", [
    ("rho", [-3.0, -1e-12, float("nan")], [0.0, 0.5]),
    ("phi", ["bogus", "softmax"], ["sin", "relu"]),
    ("eps", [0.0, -1.0, float("nan")], [1e-12, 0.5]),
    ("convex_activation", ["tanh", "relu"], ["kappa", "rehu"]),
])
def test_model_config_rejects_bad_variant_settings_by_name(key, bad, good):
    # checked for every variant, also one that does not read the setting, so
    # no bad value is echoed into metrics or a checkpoint
    for value in bad:
        with pytest.raises(ValueError, match=f"^{key} must be "):
            small_config(**{key: value})
    for value in good:
        assert getattr(small_config(**{key: value}), key) == value


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


@pytest.mark.parametrize("tag", ham.VARIANTS)
def test_param_names_per_variant(tag):
    params = md.init_params(small_config(variant=tag), 3, 2, seed=0)
    expected = ["compress.w0", "compress.b0"]
    for i in range(2):
        expected += [f"layer{i}.momentum.w0", f"layer{i}.momentum.b0"]
        expected += [f"layer{i}.field.{name}" for name in FIELD_PARAM_NAMES[tag].split()]
    expected += ["head.w0", "head.b0"]
    assert [name for name, _ in params.param_items()] == expected


# sha256 of init_params(hidden_dim=4, layers=2, seed=7) for 5 features and 3
# classes: every parameter's name, shape and bytes, then each spec's fields
# with nets reduced to their activation tags.  Checkpoints reload by
# re-running init_params, so these pin each variant's draw order.
INIT_DIGESTS = [
    ("geodesic", {}, "676bfbc01de567d46c1ba242ec00a53bf7a997f7775457a065108233f325ea71"),
    ("flexible", {}, "0fa5e029d3b8e411faa82d3a0532a5471a28d31cf74f44b2234c154dd25c0cd5"),
    ("convex", {}, "4ac3985b093cdc50984af89516625c51aee59097b5e35c6524d9eed6b785d18e"),
    ("relaxed", {}, "c6cce44d4db01580ad33c6f70c43f70ffc9c15460d50d06214eec1700a6d2b62"),
    ("symplectic", {}, "f580a64f6b58088466ff5604748d2700e2fdc07bcba61b44947b02a9760a3351"),
    ("geodesic_relaxed", {}, "2f9ef4958464d38af503eaa0ed63d2199d8e40c484fea0217b78e9996722011e"),
    ("higher_dim", {}, "bfbd20e71240d2c1b6767f2487f76b8d450ca8ce8638990f9263aec2278edcb0"),
    ("vanilla_ode", {}, "7a0ada104ba424e4b5b058394be6ca56aed02f81ab0e9b78199c7fd81126c100"),
    ("geodesic", {"signature": ham.Signature(1, 3)},
     "9950190e1568df7f7f2878ff44bd4e1e99361e5e12d7b61030590260cf892a72"),
    ("geodesic_relaxed", {"signature": ham.Signature(2, 2)},
     "89911cac996b97bbf67c13e76417dab503188d0fbd959407d383829282bd8611"),
    ("higher_dim", {"momentum_dim": 6, "rho": 0.3, "phi": "sin"},
     "396f37cbb7a883737ca8f8b8e6ae069dc9302a74e851d0bce5f610003cd29ca3"),
    ("convex", {"convex_activation": "kappa"},
     "d7bbcb27072d9ef92526142b8d707c5de5857cb02c798fce2a02abe5b0aab618"),
    ("symplectic", {"eps": 0.01},
     "2f9f25b0dfdfe9da9101c1e38593a96d33a6ed95dc23c3c5a62a5aa106150e97"),
    ("flexible", {"net_hidden": 5},
     "eab5f1ad0fd922eb6188ce11052f864ad6a68c64f2c244238b6489be25770cb8"),
]


@pytest.mark.parametrize("variant, settings, digest", INIT_DIGESTS)
def test_init_params_digest_is_pinned(variant, settings, digest):
    def describe(value, convex):
        if isinstance(value, eg.MlpParams):
            return [act for _, _, act in value.layers], convex
        return value

    cfg = ModelConfig(hidden_dim=4, layers=2, variant=variant, **settings)
    params = md.init_params(cfg, 5, 3, seed=7)
    h = hashlib.sha256()
    for name, arr in params.param_items():
        h.update(f"{name}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    for spec in params.field_specs:
        # each field net is hashed with a convexity flag, true for the
        # convex energy only
        convex = isinstance(spec, ham.ConvexHamiltonian)
        h.update(repr([(f.name, describe(getattr(spec, f.name), convex))
                       for f in fields(spec)]).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("variant", ham.VARIANTS)
def test_project_feasible_clamps_only_negative_convex_weights(variant):
    params = md.init_params(small_config(variant=variant), 5, 2, seed=0)
    if variant == "convex":
        params.field_specs[1].energy_net.layers[1][0][0, 0] = -0.5
    before = [(n, a.copy()) for n, a in params.param_items()]
    params.project_feasible()
    changed = {n: new[old.view(np.uint64) != new.view(np.uint64)].tolist()
               for (n, old), (_, new) in zip(before, params.param_items())
               if old.tobytes() != new.tobytes()}
    assert changed == ({"layer1.field.energy.w1": [0.0]} if variant == "convex" else {})


# ---------------------------------------------------------------------------
# compress / momentum


def test_compress_zero_params_gives_zero(sbm_dataset):
    cfg = small_config()
    params = md.init_params(cfg, sbm_dataset.num_features, 2, seed=0)
    w, b, _ = params.compressor.layers[0]
    w[...] = 0.0
    b[...] = 0.0
    out = affine_rows(params.compressor, "compress", sbm_dataset.features)
    assert np.all(out == 0.0)
    assert out.shape == (sbm_dataset.n, cfg.hidden_dim)


def test_compress_identity():
    cfg = small_config()
    params = md.init_params(cfg, 4, 2, seed=0)
    w, b, _ = params.compressor.layers[0]
    w[...] = np.eye(4)
    b[...] = 0.0
    x = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(affine_rows(params.compressor, "compress", x), x)


def test_compress_batch_matches_rowwise(rng):
    cfg = small_config()
    params = md.init_params(cfg, 5, 2, seed=1)
    x = rng.normal(size=(7, 5))
    batch = affine_rows(params.compressor, "compress", x)
    for i in range(7):
        row = affine_rows(params.compressor, "compress", x[i])
        # batched and single-row products may differ in the final ulp
        assert eg.relative_error(batch[i], row) <= 1e-14


def test_init_momentum_examples(rng):
    zero = eg.MlpParams([(np.zeros((3, 3)), np.zeros(3), None)])
    assert affine_rows(zero, "momentum", [1.0, 2.0, 3.0]).tolist() == [0.0, 0.0, 0.0]
    ident = eg.MlpParams([(np.eye(3), np.zeros(3), None)])
    assert affine_rows(ident, "momentum", [1.0, 2.0, 3.0]).tolist() == [1.0, 2.0, 3.0]
    w = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    net = eg.MlpParams([(w, b, None)])
    q = rng.normal(size=3)
    assert eg.relative_error(affine_rows(net, "momentum", q), w @ q + b) <= 1e-12


def test_zero_momentum_freezes_metric_orbit(rng, new_spec):
    # with p = 0 the cogeodesic field is dq = g * 0 = 0: the position is fixed
    spec = new_spec("geodesic", 3, 6, rng)
    q0 = rng.normal(size=3)
    traj = oi.integrate(spec, PhaseState(q0, np.zeros(3)),
                        IntegrationConfig("rk4", 1.0, 0.25))
    assert np.max(np.abs(traj.states[-1].q - q0)) <= 1e-12


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_path_example(path3_dataset):
    out = neighbour_mean_step(path3_dataset.features, path3_dataset.edges)
    assert out.ravel().tolist() == [3.0, 4.0, 5.0]


def test_aggregate_equal_features_double():
    feats = np.full((4, 3), 2.5)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    out = neighbour_mean_step(feats, edges)
    assert np.allclose(out, 5.0)


def test_aggregate_isolated_node_unchanged():
    feats = np.array([[7.0], [1.0], [1.0]])
    out = neighbour_mean_step(feats, [(1, 2)])
    assert out.ravel().tolist() == [7.0, 2.0, 2.0]


@pytest.mark.parametrize("width", [None, 5])
def test_neighbor_mean_matches_dense_reference(rng, width):
    n, isolated = 30, 4
    pool = [(u, v) for u in range(n - isolated) for v in range(u + 1, n - isolated)]
    for _ in range(5):
        edges = [pool[i] for i in rng.choice(len(pool), size=40, replace=False)]
        mean = md.aggregation_matrix(n, edges)
        assert mean.shape == (n, n) and mean.rows.size == 2 * len(edges)
        assert max(mean.rows.max(), mean.cols.max()) < n - isolated
        x = rng.normal(size=(n,) if width is None else (n, width))
        leaf = eg.parameter("x", x.shape)
        got = eg.evaluate(eg.sparse_matmul(leaf, mean), {"x": x})
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
    expected = affine_rows(params.compressor, "compress", sbm_dataset.features)
    mat = dense_neighbor_mean(sbm_dataset.n, sbm_dataset.edges)
    for _ in range(3):
        expected = expected + mat @ expected
    assert_roundoff_close(z, expected)


def test_encode_graph_holds_no_quadratic_constant():
    ds = gd.synth_dataset("grid", width=12, height=10, seed=0)
    cfg = small_config()
    params = md.init_params(cfg, ds.num_features, ds.num_classes, seed=0)
    z, _ = md.encode_nodes(params, cfg, ds)
    nodes = graph_nodes(z)
    # no constant of the table's or the node set's size: the table and the
    # neighbour mean are sparse matrices of their non-zero entries
    sizes = [node.attrs["value"].size for node in nodes if node.op == "constant"]
    assert max(sizes) < ds.n
    matrices = {id(node.attrs["matrix"]): node.attrs["matrix"] for node in nodes
                if node.op == "sparse-matmul"}
    assert sorted(m.weights.size for m in matrices.values()) == sorted(
        [2 * len(ds.edges), np.count_nonzero(ds.features)])


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


def test_encode_refers_to_the_dataset_feature_table(sbm_dataset):
    cfg = small_config()
    params = md.init_params(cfg, sbm_dataset.num_features, sbm_dataset.num_classes, seed=0)
    nodes = graph_nodes(md.encode_nodes(params, cfg, sbm_dataset)[0])
    # the compressor multiplies the dataset's own sparse table, held by
    # identity, with the transposed first weight
    [product] = [node for node in nodes if node.op == "sparse-matmul"
                 and node.attrs["matrix"] is sbm_dataset.feature_matrix]
    [weight] = product.inputs[0].inputs
    assert product.inputs[0].op == "transpose" and weight.attrs["name"] == "compress.w0"
    assert not [node for node in nodes if node.op == "constant"
                and np.shares_memory(node.attrs["value"], sbm_dataset.features)]
    # the topology-blind baseline reads the dense table without a copy
    mlp = baseline_mlp_params(sbm_dataset.num_features, sbm_dataset.num_classes, 4)
    raw = [node for node in graph_nodes(baseline_mlp_nodes(mlp, sbm_dataset)[0])
           if node.attrs.get("label") == "raw features"]
    assert len(raw) == 1
    assert np.shares_memory(raw[0].attrs["value"], sbm_dataset.features)


def test_encode_multiplies_the_dataset_mean_matrix_and_builds_no_operator(
        sbm_dataset, monkeypatch):
    assert md.aggregation_matrix is gd.aggregation_matrix
    cfg = small_config(layers=3)
    params = md.init_params(cfg, sbm_dataset.num_features, sbm_dataset.num_classes, seed=0)
    nodes = graph_nodes(md.encode_nodes(params, cfg, sbm_dataset)[0])
    means = [node for node in nodes if node.attrs.get("label") == "neighbor mean"]
    assert len(means) == cfg.layers
    assert all(node.op == "sparse-matmul" and node.attrs["matrix"] is sbm_dataset.mean_matrix
               for node in means)
    first = md.encode(params, cfg, sbm_dataset)
    built = []
    init = eg.SparseMatrix.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(eg.SparseMatrix, "__init__", counted)
    second = md.encode(params, cfg, sbm_dataset)
    assert built == [] and second.tobytes() == first.tobytes()
    # the counter sees a construction
    gd.aggregation_matrix(sbm_dataset.n, sbm_dataset.edges)
    assert len(built) == 1


def binary_table_dataset():
    """12 nodes on a ring with a sparse 0/1 feature table; node 4 has no
    feature at all."""
    rng = np.random.default_rng(3)
    features = (rng.random((12, 9)) < 0.3).astype(np.float64)
    features[4] = 0.0
    return gd.GraphDataset("binary", features, np.arange(12) % 3,
                           [(i, (i + 1) % 12) for i in range(12)], [0, 1, 2], [3, 4], [5, 6])


def encode_and_gradients(encode_nodes, params, cfg, ds):
    """Embeddings and every parameter gradient of a fixed weighting of them."""
    z, bindings = encode_nodes(params, cfg, ds)
    weights = np.random.default_rng(5).normal(size=z.shape)
    loss = eg.reduce_sum(eg.mul(z, eg.constant(weights)))
    leaves = [eg.parameter(name, arr.shape) for name, arr in params.param_items()]
    return eg.evaluate([z, *eg.gradient_all(loss, leaves, allow_unused=True)], bindings)


@pytest.mark.parametrize("table", ["sbm", "binary"])
@pytest.mark.parametrize("variant", ["flexible", "convex", "relaxed"])
def test_encode_matches_the_dense_concat_reference(sbm_dataset, variant, table):
    ds = sbm_dataset if table == "sbm" else binary_table_dataset()
    cfg = small_config(variant=variant)
    params = md.init_params(cfg, ds.num_features, ds.num_classes, seed=2)
    got = encode_and_gradients(md.encode_nodes, params, cfg, ds)
    want = encode_and_gradients(dense_encode_nodes, params, cfg, ds)
    assert len(got) == len(want) == 1 + len(params.param_items())
    for name, g, w in zip(["z", *params.bindings()], got, want):
        assert eg.relative_error(g, w) <= 1e-12, name


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("variant", ["flexible", "convex"])
def test_encode_matches_the_canonical_orbit_reference(sbm_dataset, variant, method):
    cfg = small_config(variant=variant, integration=IntegrationConfig(method, 1.0, 0.5))
    params = md.init_params(cfg, sbm_dataset.num_features, sbm_dataset.num_classes, seed=2)
    got = encode_and_gradients(md.encode_nodes, params, cfg, sbm_dataset)
    want = encode_and_gradients(canonical_encode_nodes, params, cfg, sbm_dataset)
    assert len(got) == len(want) == 1 + len(params.param_items())
    for name, g, w in zip(["z", *params.bindings()], got, want):
        assert eg.relative_error(g, w) <= 1e-12, name


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("variant", ["flexible", "convex"])
def test_folded_chart_start_matches_the_unfolded_one(
        sbm_dataset, training_outputs, variant, method):
    cfg = small_config(variant=variant, integration=IntegrationConfig(method, 1.0, 0.5))
    got, bindings = training_outputs(cfg, sbm_dataset)
    want, _ = training_outputs(cfg, sbm_dataset, unfolded_encode_nodes)
    params = md.init_params(cfg, sbm_dataset.num_features, sbm_dataset.num_classes, seed=0)
    names = ["loss", "z", *params.bindings(), "logits"]
    assert len(got) == len(want) == len(names)
    for name, g, w in zip(names, eg.evaluate(got, bindings), eg.evaluate(want, bindings)):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), name


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("variant", ["flexible", "convex"])
def test_folded_chart_matrices_match_the_delta_chart(
        sbm_dataset, training_outputs, variant, method):
    # the step size, and flexible's output row, act on the chart's (H, H)
    # and (H, d) matrices instead of on every step's (n, H) rates
    cfg = small_config(variant=variant, integration=IntegrationConfig(method, 1.0, 0.25))
    got, bindings = training_outputs(cfg, sbm_dataset)
    want, _ = training_outputs(cfg, sbm_dataset, delta_chart_encode_nodes)
    params = md.init_params(cfg, sbm_dataset.num_features, sbm_dataset.num_classes, seed=0)
    names = ["loss", "z", *params.bindings(), "logits"]
    assert len(got) == len(want) == len(names)
    for name, g, w in zip(names, eg.evaluate(got, bindings), eg.evaluate(want, bindings)):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), name


def test_the_momentum_label_is_built_only_where_z_reads_it(sbm_dataset, monkeypatch):
    # p0 = qnet(h) is built only where a chart reads it: the first-layer
    # chart's folded start carries the momentum layer's label, and the p0
    # its readout's p reads is built without it
    built = []
    init = eg.Node.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)
    monkeypatch.setattr(eg.Node, "__init__", record)
    for variant in ("flexible", "convex", "geodesic"):
        cfg = small_config(variant=variant)
        params = md.init_params(cfg, sbm_dataset.num_features, sbm_dataset.num_classes, seed=0)
        built.clear()
        z, _ = md.encode_nodes(params, cfg, sbm_dataset)
        reached = {n.nid for n in eg._reachable([z])}
        for i in range(cfg.layers):
            labelled = [n for n in built
                        if n.attrs.get("label") == f"layer{i}.momentum layer 0"]
            assert len(labelled) == 1 and labelled[0].nid in reached, variant


SBM_300 = {"sizes": (150, 150), "p_in": 0.1, "p_out": 0.01, "seed": 0}


def test_no_flexible_graph_scales_rows_or_multiplies_them_by_the_output_row(
        training_outputs):
    # the Euler step and the energy's output row w1 act on the chart's
    # matrices, so no (n, H) rate is scaled by h or multiplied by w1
    ds = gd.synth_dataset("sbm", **SBM_300)
    cfg = ModelConfig(hidden_dim=16, layers=3, variant="flexible")
    outputs, _ = training_outputs(cfg, ds)
    params = md.init_params(cfg, ds.num_features, ds.num_classes, seed=0)
    z, _ = md.encode_nodes(params, cfg, ds)
    for graph in (outputs, [z]):
        nodes = eg._reachable(graph)
        rows = [n for n in nodes if n.shape[:1] == (ds.n,)]
        assert not [n for n in rows if n.op == "scale"]
        leaves = [n for n in nodes if n.op == "parameter"
                  and n.attrs["name"].endswith(".energy.w1")]
        assert {n.attrs["name"] for n in leaves} == {
            f"layer{i}.field.energy.w1" for i in range(cfg.layers)}
        output_rows = {n.nid for n in leaves}
        small = [_viewed(i) for n in rows if n.op == "elementwise-mul" for i in n.inputs]
        small = [i for i in small if i.shape[:1] != (ds.n,)]
        assert not [i for i in small if output_rows & {m.nid for m in eg._reachable([i])}]


def test_only_a_linear_momentum_map_folds_into_the_chart(rng, new_spec):
    spec = new_spec("flexible", 4, 6, rng)
    q0, p0 = eg.parameter("q0", (5, 4)), eg.parameter("p0", (5, 4))
    net = eg.MlpParams.init((4, 4), ("tanh",), rng)
    with pytest.raises(ValueError, match="only a linear momentum map folds"):
        spec.chart(q0, None, "field", 0.5, (net, "momentum"))


def _viewed(node):
    while node.op in eg._VIEWS:
        node = node.inputs[0]
    return node


@pytest.mark.parametrize("variant, products, unfolded", [
    pytest.param("flexible", 21, 37, id="flexible"),
    pytest.param("convex", 49, 61, id="convex")])
def test_no_graph_holds_the_momentum_rows(sbm_dataset, training_outputs,
                                          variant, products, unfolded):
    # the momentum map folds into the chart's start on the parameters, so
    # no node with the dataset's rows reads a momentum weight or bias
    cfg = small_config(variant=variant)
    outputs, _ = training_outputs(cfg, sbm_dataset)
    params = md.init_params(cfg, sbm_dataset.num_features, sbm_dataset.num_classes, seed=0)
    z, _ = md.encode_nodes(params, cfg, sbm_dataset)
    n = sbm_dataset.n
    for graph in (outputs, [z]):
        nodes = eg._reachable(graph)
        momentum = [node for node in nodes
                    if node.op == "parameter" and ".momentum." in node.attrs["name"]]
        assert len(momentum) == 2 * cfg.layers
        assert not [node for node in nodes if node.shape[:1] == (n,)
                    and any(_viewed(i) in momentum for i in node.inputs)]
    # six n-row products fewer per layer: the momentum product, one of the
    # start's two, their two adjoints and two of the three weight gradients;
    # and for flexible, whose output row folds into the chart's matrices,
    # the ones-row product per step that summed that row's gradient
    rows = [node for node in eg._reachable(outputs)
            if node.op == "affine" and n in {i.shape[0] for i in node.inputs}]
    steps = cfg.integration.n_steps if variant == "flexible" else 0
    assert len(rows) == products == unfolded - (6 + steps) * cfg.layers


def test_encode_peak_memory_stays_below_the_feature_table(rng):
    # the table dominates: 1000 x 4000 doubles, 32 MB
    n, width = 1000, 4000
    ds = gd.GraphDataset("wide", rng.random((n, width)), np.arange(n) % 3,
                         [(i, i + 1) for i in range(n - 1)], [0], [1], [2])
    cfg = small_config(layers=1)
    params = md.init_params(cfg, width, 3, seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        md.encode(params, cfg, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.features.nbytes


def test_encode_single_isolated_node_is_orbit_endpoint(rng):
    cfg = small_config(layers=1)
    ds = gd.GraphDataset("one", rng.normal(size=(1, 3)), [0], [], [0], [], [])
    params = md.init_params(cfg, 3, 1, seed=4)
    z = md.encode(params, cfg, ds)
    q0 = affine_rows(params.compressor, "compress", ds.features)[0]
    p0 = affine_rows(params.momentum_nets[0], "momentum", q0)
    traj = oi.integrate(params.field_specs[0], PhaseState(q0, p0),
                        cfg.integration)
    assert eg.relative_error(z[0], traj.states[-1].q) <= 1e-12


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


@pytest.mark.parametrize("layer", [0, 1])
def test_a_chart_orbit_error_names_the_step_before_it(sbm_dataset, layer):
    # Euler 0.5 over 1.5: the last step adds the field, the tanh slope at
    # the chart state after step 2, to the chart's s
    cfg = small_config(layers=2, variant="flexible",
                       integration=IntegrationConfig("euler", 1.5, 0.5))
    params = md.init_params(cfg, sbm_dataset.num_features, sbm_dataset.num_classes, seed=0)
    z, _ = md.encode_nodes(params, cfg, sbm_dataset)
    last = [n for n in eg._reachable([z])
            if n.attrs.get("label") == f"layer{layer}.field chart state after step 3"]
    (s_end,) = last  # the chart's a after the last step is read by no readout
    field = s_end.inputs[1]
    assert eg._whereabouts(field).endswith(
        f" after 'layer{layer}.field chart state after step 2'")


def test_per_node_energy_conservation_along_layers(rng):
    # desk-scale conservation: every node's orbit keeps its energy
    ds = gd.synth_dataset("sbm", sizes=(3, 3), p_in=0.8, p_out=0.2, seed=1)
    cfg = small_config(layers=2,
                       integration=IntegrationConfig("rk4", 1.0, 0.01))
    params = md.init_params(cfg, ds.num_features, ds.num_classes, seed=3)
    h = affine_rows(params.compressor, "compress", ds.features)
    mat = dense_neighbor_mean(ds.n, ds.edges)
    for qnet, spec in zip(params.momentum_nets, params.field_specs):
        ends = []
        for i in range(ds.n):
            p0 = affine_rows(qnet, "momentum", h[i])
            traj = oi.integrate(spec, PhaseState(h[i], p0), cfg.integration)
            drift = oi.energy_drift(spec, traj)
            assert drift["relative_drift"] <= 1e-3
            ends.append(traj.states[-1].q)
        q_end = np.array(ends)
        h = q_end + mat @ q_end


def test_euler_drift_ratio_along_orbit(rng, new_spec):
    spec = new_spec("flexible", 4, 8, rng)
    st = PhaseState(rng.normal(size=4), rng.normal(size=4))

    def drift(h):
        traj = oi.integrate(spec, st, IntegrationConfig("euler", 1.0, h))
        return oi.energy_drift(spec, traj)["max_abs_drift"]

    ratio = drift(0.02) / drift(0.01)
    assert 1.8 <= ratio <= 2.2


def test_quadratic_energy_norm_is_stable(rng, oscillator, new_spec):
    # conserved H = (|q|^2 + |p|^2) / 2 pins the phase-space norm
    spec = oscillator(new_spec("flexible", 3, 4, rng))
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


def test_decode_link_equals_per_pair_dot(rng):
    for d in (1, 3, 64):
        z = rng.normal(size=(30, d)) * 3.0
        pairs = rng.integers(0, 30, size=(200, 2))
        s = np.array([float(z[u] @ z[v]) for u, v in pairs.tolist()])
        expected = scipy.special.expit(s)
        for form in (pairs, [tuple(p) for p in pairs.tolist()]):
            assert md.decode_link(z, form).tobytes() == expected.tobytes()
    assert md.decode_link(z, []).shape == (0,)


def test_decode_link_is_the_three_pass_logistic_within_an_ulp_and_never_overflows():
    # node 0 holds 1, so the pair (0, i) scores exactly node i's value
    z = np.concatenate([[1.0], LOGISTIC_GRID])[:, None]
    pairs = [(0, i) for i in range(1, z.shape[0])]
    with np.errstate(all="raise"):
        got = md.decode_link(z, pairs)
    assert np.abs(got - three_pass_logistic(LOGISTIC_GRID)).max() <= 2.3e-16


def test_decode_link_names_the_first_bad_pair():
    z = np.zeros((3, 2))
    for pairs, named in (([(0, 1), (0, 7), (9, 1)], r"\(0, 7\)"), ([(-1, 2)], r"\(-1, 2\)")):
        with pytest.raises(ValueError, match=rf"^pair {named} references an unknown node$"):
            md.decode_link(z, pairs)
    with pytest.raises(ValueError, match="integer node ids"):
        md.decode_link(z, [(1.9, 2.2)])


def test_baseline_mlp_zero_params_uniform(sbm_dataset):
    params = baseline_mlp_params(sbm_dataset.num_features, 2, 8, seed=0)
    for w, b, _ in params.layers:
        w[...] = 0.0
        b[...] = 0.0
    logits = eg.forward(*baseline_mlp_nodes(params, sbm_dataset)).array
    assert np.all(logits == 0.0)


def test_baseline_mlp_ignores_topology(sbm_dataset):
    params = baseline_mlp_params(sbm_dataset.num_features,
                                 sbm_dataset.num_classes, 8, seed=1)
    with_edges = eg.forward(*baseline_mlp_nodes(params, sbm_dataset)).array
    stripped = gd.GraphDataset("bare", sbm_dataset.features, sbm_dataset.labels,
                               [], sbm_dataset.train_mask, sbm_dataset.val_mask,
                               sbm_dataset.test_mask)
    assert np.array_equal(with_edges,
                          eg.forward(*baseline_mlp_nodes(params, stripped)).array)


def test_baseline_mlp_matches_rowwise(rng, sbm_dataset):
    params = baseline_mlp_params(sbm_dataset.num_features,
                                 sbm_dataset.num_classes, 8, seed=2)
    batch = eg.forward(*baseline_mlp_nodes(params, sbm_dataset)).array
    leaf = eg.parameter("x", (sbm_dataset.num_features,))
    node = params.graph(leaf, "mlp")
    for i in range(0, sbm_dataset.n, 7):
        row = eg.evaluate(node, {"x": sbm_dataset.features[i],
                                 **params.bindings("mlp")})
        assert eg.relative_error(batch[i], row) <= 1e-14


# ---------------------------------------------------------------------------
# checkpoints


def saved_checkpoint(root, dataset, variant="flexible"):
    params = md.init_params(small_config(variant=variant), dataset.num_features,
                            dataset.num_classes, seed=5)
    # the complete echo, as `hamgnn train` writes it
    echo = {"model": {"hidden_dim": 4, "layers": 2, "variant": variant,
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


def test_checkpoint_rejects_a_convex_energy_with_negative_weights(tmp_path, sbm_dataset):
    saved_checkpoint(tmp_path, sbm_dataset, variant="convex")
    md.load_checkpoint(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    (offset,) = [t["offset"] for t in manifest["tensors"]
                 if t["name"] == "layer0.field.energy.w1"]
    with open(tmp_path / "params.bin", "r+b") as fh:
        fh.seek(offset)
        fh.write(np.array([-1.38], dtype="<f8").tobytes())
    with pytest.raises(ValueError, match=r"^checkpoint layer0\.field: layer 2 has "
                                         "negative weights"):
        md.load_checkpoint(tmp_path)


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


@pytest.mark.parametrize("key, value, message", [
    ("shape", [2, 2], r"has shape \(2, 2\), expected \(4, \d+\)"),
    ("offset", 8, "starts at byte 8, expected 0"),
])
def test_checkpoint_rejects_a_tensor_of_the_wrong_shape_or_offset(
        tmp_path, sbm_dataset, key, value, message):
    saved_checkpoint(tmp_path, sbm_dataset)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["tensors"][0][key] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"^checkpoint tensor 'compress\.w0' {message}$"):
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


@pytest.mark.parametrize("section, key", [("model", "rho"), ("integration", "horizon")])
def test_checkpoint_rejects_a_non_finite_echo_value(tmp_path, sbm_dataset, section, key):
    saved_checkpoint(tmp_path, sbm_dataset)
    edit_manifest_config(tmp_path, lambda cfg: cfg[section].update({key: float("nan")}))
    with pytest.raises(ValueError, match=rf"^{section}\.{key} must be a finite number, got nan$"):
        md.load_checkpoint(tmp_path)


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


@pytest.mark.parametrize("edit, message", [
    (lambda m: "{", r"manifest\.json is not valid JSON: .*"),
    (lambda m: [m], r"manifest\.json must be a JSON object, got \[\{.*"),
    (lambda m: _without(m, "config"), r"manifest\.json config must be a JSON object, got None"),
    (lambda m: {**m, "tensors": {}}, r"manifest\.json tensors must be a list, got \{\}"),
    (lambda m: {**m, "tensors": [3] + m["tensors"]},
     r"manifest\.json tensors\[0\] must be a JSON object, got 3"),
    (lambda m: {**m, "tensors": [_without(t, "offset") for t in m["tensors"]]},
     r"manifest\.json tensors\[0\]\.offset must be an integer, got None"),
    (lambda m: {**m, "tensors": m["tensors"][:1] + [_without(m["tensors"][1], "shape")]},
     r"manifest\.json tensors\[1\]\.shape must be a list, got None"),
    (lambda m: {**m, "tensors": [{**t, "shape": [2.0]} for t in m["tensors"]]},
     r"manifest\.json tensors\[0\]\.shape must be an integer, got 2\.0"),
    (lambda m: {**m, "tensors": [_without(t, "name") for t in m["tensors"]]},
     r"manifest\.json tensors\[0\]\.name must be a string, got None"),
], ids=["invalid-json", "array", "no-config", "tensors-object", "tensor-number",
        "no-offset", "no-shape", "float-dim", "no-name"])
def test_checkpoint_names_the_key_of_a_malformed_manifest(tmp_path, sbm_dataset, edit, message):
    saved_checkpoint(tmp_path, sbm_dataset)
    path = tmp_path / "manifest.json"
    edited = edit(json.loads(path.read_text()))
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    with pytest.raises(ValueError, match=f"^{message}$"):
        md.load_checkpoint(tmp_path)


@pytest.mark.parametrize("key", ["seed", "num_features", "num_classes"])
def test_checkpoint_rejects_missing_top_level_key(tmp_path, sbm_dataset, key):
    saved_checkpoint(tmp_path, sbm_dataset)
    edit_manifest_config(tmp_path, lambda cfg: cfg.pop(key))
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        md.load_checkpoint(tmp_path)

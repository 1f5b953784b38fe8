"""The node-embedding model: feature compression, per-layer momentum
initialization, orbit integration, neighborhood aggregation, and the task
decoders, plus a topology-blind MLP baseline.

Per layer, every node's compressed feature is paired with a learned momentum,
the pair flows along the layer's phase-space orbit for the configured horizon,
the position at the end of the orbit is kept, and each node then adds the
unweighted mean of its neighbors' positions.  All of it is one expression
graph, so training differentiates through the whole stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import engine as eg
from . import hamiltonian as ham
from .engine import MlpParams, Node, Tensor
from .graphdata import GraphDataset
from .hamiltonian import Signature
from .odeint import IntegrationConfig, integrate_nodes
from .schema import check_json_value, config_from_dict

__all__ = [
    "ModelConfig", "ModelParams", "init_params",
    "compress", "init_momentum", "aggregate", "aggregation_matrix",
    "encode_nodes", "encode", "decode_class", "decode_link",
    "baseline_mlp_params", "baseline_mlp",
    "save_checkpoint", "load_checkpoint",
]


@dataclass
class ModelConfig:
    """Architecture and integration settings."""

    hidden_dim: int = 64
    layers: int = 3
    variant: str = "flexible"
    integration: IntegrationConfig = dc_field(default_factory=IntegrationConfig)
    signature: Signature | None = None
    decoder: str = "classification"
    net_hidden: int | None = None       # width inside the field networks
    rho: float = 0.1
    phi: str = "tanh"
    eps: float = 1e-3
    momentum_dim: int | None = None
    convex_activation: str = "rehu"

    def __post_init__(self):
        if self.hidden_dim < 1 or self.layers < 1:
            raise ValueError("hidden dimension and layer count must be positive")
        if self.variant not in ham.VARIANT_TAGS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"expected one of {ham.VARIANT_TAGS}")
        if self.decoder not in ("classification", "link"):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.signature is not None and self.signature.dim != self.hidden_dim:
            raise ValueError(
                f"signature ({self.signature.r}, {self.signature.s}) does not "
                f"match hidden dimension {self.hidden_dim}")

    @property
    def field_hidden(self) -> int:
        return self.net_hidden or self.hidden_dim


@dataclass
class ModelParams:
    """All trainable tensors, grouped by role.

    ``compressor`` maps raw features to the hidden dimension with no
    nonlinearity; ``momentum_nets`` are one affine map per layer; each layer
    owns its own field spec; the classification head is absent for the link
    decoder.
    """

    compressor: MlpParams
    momentum_nets: list
    field_specs: list
    head: MlpParams | None

    def __post_init__(self):
        if len(self.momentum_nets) != len(self.field_specs):
            raise ValueError("one momentum net per layer required")

    @property
    def layers(self) -> int:
        return len(self.field_specs)

    def param_items(self) -> list:
        items = list(self.compressor.param_items("compress"))
        for i, (qnet, spec) in enumerate(zip(self.momentum_nets, self.field_specs)):
            items.extend(qnet.param_items(f"layer{i}.momentum"))
            items.extend(ham.spec_param_items(spec, f"layer{i}.field"))
        if self.head is not None:
            items.extend(self.head.param_items("head"))
        return items

    def bindings(self) -> dict:
        return dict(self.param_items())

    def copy(self) -> "ModelParams":
        import copy as _copy
        return _copy.deepcopy(self)

    def project_feasible(self):
        """Re-impose per-variant weight constraints after an optimizer step."""
        for spec in self.field_specs:
            if isinstance(spec, ham.ConvexHamiltonian):
                ham.project_convex(spec)


def init_params(cfg: ModelConfig, num_features: int, num_classes: int,
                seed: int = 0) -> ModelParams:
    """Seeded parameter initialization for the configured architecture."""
    rng = np.random.default_rng(seed)
    d = cfg.hidden_dim
    compressor = MlpParams.init((num_features, d), (None,), rng)
    momentum_nets, field_specs = [], []
    for _ in range(cfg.layers):
        spec = ham.make_spec(cfg.variant, d, cfg.field_hidden, rng,
                             signature=cfg.signature, rho=cfg.rho, phi=cfg.phi,
                             eps=cfg.eps, momentum_dim=cfg.momentum_dim,
                             convex_activation=cfg.convex_activation)
        momentum_nets.append(MlpParams.init((d, spec.p_dim), (None,), rng))
        field_specs.append(spec)
    head = None
    if cfg.decoder == "classification":
        head = MlpParams.init((d, num_classes), (None,), rng)
    return ModelParams(compressor, momentum_nets, field_specs, head)


# ---------------------------------------------------------------------------
# building blocks


def compress(params: ModelParams, raw_features) -> Tensor:
    """Affine compression of raw features, rowwise, no nonlinearity."""
    x = eg.as_array(raw_features)
    leaf = eg.parameter("x", x.shape)
    node = params.compressor.graph(leaf, "compress")
    return eg.forward(node, {"x": x, **params.compressor.bindings("compress")})


def init_momentum(momentum_net: MlpParams, q) -> Tensor:
    """Learned momentum for a position: p = W q + b."""
    arr = eg.as_array(q)
    leaf = eg.parameter("q", arr.shape)
    node = momentum_net.graph(leaf, "momentum")
    return eg.forward(node, {"q": arr, **momentum_net.bindings("momentum")})


def aggregation_matrix(n: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Neighbor-mean operator in coordinate form: ``(rows, cols, weights)``.

    Each undirected edge {u, v} gives the entries (u, v) and (v, u), weighted
    1/|N(row)|.  Isolated nodes have no entries, so their mean term vanishes.
    """
    pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    degree = np.bincount(rows, minlength=n)
    return rows, cols, 1.0 / degree[rows]


def aggregate(features, edges) -> Tensor:
    """Each node keeps its vector and adds the mean of its neighbors'."""
    x = eg.as_array(features)
    leaf = eg.parameter("x", x.shape)
    mean = eg.sparse_matmul(leaf, *aggregation_matrix(x.shape[0], edges), x.shape[0])
    return eg.forward(eg.add(leaf, mean), {"x": x})


def encode_nodes(params: ModelParams, cfg: ModelConfig,
                 dataset: GraphDataset) -> tuple[Node, dict]:
    """Embedding graph over the whole node set; returns (Z node, bindings)."""
    if params.compressor.input_dim != dataset.num_features:
        raise ValueError(
            f"compressor expects {params.compressor.input_dim} features, "
            f"dataset has {dataset.num_features}")
    x = eg.constant(dataset.features, label="raw features")
    coo = aggregation_matrix(dataset.n, dataset.edges)
    h = params.compressor.graph(x, "compress")
    for i, (qnet, spec) in enumerate(zip(params.momentum_nets, params.field_specs)):
        p = qnet.graph(h, f"layer{i}.momentum")
        states = integrate_nodes(spec, h, p, cfg.integration,
                                 prefix=f"layer{i}.field")
        q_end = states[-1][0]
        q_end.attrs["label"] = f"layer {i} orbit end"
        h = eg.add(q_end, eg.sparse_matmul(q_end, *coo, dataset.n, label="neighbor mean"))
    return h, params.bindings()


def encode(params: ModelParams, cfg: ModelConfig,
           dataset: GraphDataset) -> np.ndarray:
    """Node embeddings (n, d); deterministic for fixed parameters."""
    node, binds = encode_nodes(params, cfg, dataset)
    return eg.evaluate(node, binds)


def decode_class(head: MlpParams, embeddings) -> Tensor:
    """Rowwise affine logits; predictions break argmax ties at the lowest index."""
    z = eg.as_array(embeddings)
    leaf = eg.parameter("z", z.shape)
    return eg.forward(head.graph(leaf, "head"), {"z": z, **head.bindings("head")})


def predict_classes(logits) -> np.ndarray:
    return np.argmax(eg.as_array(logits), axis=-1)


def decode_link(embeddings, pairs) -> np.ndarray:
    """Probability of an edge: logistic of the embedding dot product."""
    z = eg.as_array(embeddings)
    n = z.shape[0]
    scores = []
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"pair ({u}, {v}) references an unknown node")
        scores.append(float(z[u] @ z[v]))
    s = np.asarray(scores)
    e = np.exp(-np.abs(s))  # overflow-free logistic
    return np.where(s >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def baseline_mlp_params(num_features: int, num_classes: int, hidden: int,
                        seed: int = 0) -> MlpParams:
    """Three affine layers with interleaved rectifications, topology-blind."""
    rng = np.random.default_rng(seed)
    return MlpParams.init((num_features, hidden, hidden, num_classes),
                          ("relu", "relu", None), rng)


def baseline_mlp(params: MlpParams, dataset: GraphDataset) -> Tensor:
    """Logits of the baseline applied rowwise to raw features; never reads
    edges."""
    leaf = eg.parameter("x", dataset.features.shape)
    return eg.forward(params.graph(leaf, "mlp"),
                      {"x": dataset.features, **params.bindings("mlp")})


def baseline_mlp_nodes(params: MlpParams, dataset: GraphDataset) -> tuple[Node, dict]:
    x = eg.constant(dataset.features, label="raw features")
    return params.graph(x, "mlp"), params.bindings("mlp")


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params: ModelParams, config_echo: dict, path) -> None:
    """Write manifest.json plus params.bin (little-endian doubles, in
    manifest order)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    tensors, blobs, offset = [], [], 0
    for name, arr in params.param_items():
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    manifest = {"config": config_echo, "tensors": tensors}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                        encoding="utf-8")
    (root / "params.bin").write_bytes(b"".join(blobs))


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Rebuild parameters from a checkpoint directory; returns the manifest's
    config echo as well.  The echo's "model" and "integration" sections must
    list every config field, and its seed and sizes must be integers."""
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    echo = manifest["config"]
    integration = config_from_dict(IntegrationConfig, echo.get("integration"),
                                   "integration", complete=True)
    cfg = config_from_dict(ModelConfig, echo.get("model"), "model", complete=True,
                           integration=integration)
    num_features, num_classes, seed = (
        check_json_value(echo.get(key), int, key)  # a missing key reads as None
        for key in ("num_features", "num_classes", "seed"))
    params = init_params(cfg, num_features, num_classes, seed=seed)
    raw = (root / "params.bin").read_bytes()
    expected = dict(params.param_items())
    size = 8 * sum(arr.size for arr in expected.values())
    if len(raw) != size:
        raise ValueError(f"params.bin holds {len(raw)} bytes, the config needs {size}")
    # every tensor of the config is listed exactly once and packed back to
    # back in manifest order
    arrays, offset = dict(expected), 0
    for entry in manifest["tensors"]:
        name, shape = entry["name"], tuple(entry["shape"])
        if name not in arrays:
            cause = "is listed twice" if name in expected else "does not fit the config"
            raise ValueError(f"checkpoint tensor {name!r} {cause}")
        target = arrays.pop(name)
        if target.shape != shape:
            raise ValueError(f"checkpoint tensor {name!r} has shape {shape}, "
                             f"expected {target.shape}")
        if entry["offset"] != offset:
            raise ValueError(f"checkpoint tensor {name!r} starts at byte "
                             f"{entry['offset']}, expected {offset}")
        target[...] = np.frombuffer(raw, dtype="<f8", count=target.size,
                                    offset=offset).reshape(shape)
        offset += 8 * target.size
    if arrays:
        raise ValueError(f"checkpoint manifest is missing tensors {sorted(arrays)}")
    return params, manifest

"""The node-embedding model: feature compression, per-layer momentum
initialization, orbit integration, neighborhood aggregation, the task
decoders and checkpoints.

Per layer, every node's compressed feature is paired with a learned momentum,
the pair flows along the layer's phase-space orbit for the configured horizon,
the position at the end of the orbit is kept, and each node then adds the
unweighted mean of its neighbors' positions.  All of it is one expression
graph, so training differentiates through the whole stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np
import scipy.special

from . import engine as eg
from . import hamiltonian as ham
from .engine import MlpParams, Node, Tensor
from .graphdata import GraphDataset, aggregation_matrix
from .hamiltonian import Signature
from .odeint import IntegrationConfig, integrate_nodes
from .schema import check_json_value, config_from_dict, load_json_object

__all__ = [
    "ModelConfig", "ModelParams", "init_params", "aggregation_matrix",
    "encode_nodes", "encode", "decode_class", "decode_link",
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
        if self.variant not in ham.VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"expected one of {tuple(ham.VARIANTS)}")
        for key in ("net_hidden", "momentum_dim"):  # null means hidden_dim
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ValueError(f"{key} must be at least 1 or null, got {value}")
        if self.decoder not in ("classification", "link"):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if not self.rho >= 0.0:
            raise ValueError(f"rho must be non-negative, got {self.rho!r}")
        if self.phi not in eg.ACTIVATIONS:
            raise ValueError(f"phi must be one of {tuple(eg.ACTIVATIONS)}, "
                             f"got {self.phi!r}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps!r}")
        if self.convex_activation not in ham.CONVEX_ACTIVATIONS:
            raise ValueError(f"convex_activation must be one of "
                             f"{ham.CONVEX_ACTIVATIONS}, got {self.convex_activation!r}")
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

    ``compressor`` is one affine map from raw features to the hidden
    dimension, applied to the dataset's sparse ``feature_matrix``;
    ``momentum_nets`` are one affine map per layer; each layer owns its own
    field spec; the classification head is absent for the link decoder.
    """

    compressor: MlpParams
    momentum_nets: list
    field_specs: list
    head: MlpParams | None

    def __post_init__(self):
        if len(self.momentum_nets) != len(self.field_specs):
            raise ValueError("one momentum net per layer required")

    def param_items(self) -> list:
        items = list(self.compressor.param_items("compress"))
        for i, (qnet, spec) in enumerate(zip(self.momentum_nets, self.field_specs)):
            items.extend(qnet.param_items(f"layer{i}.momentum"))
            items.extend(spec.param_items(f"layer{i}.field"))
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
            spec.project()


def init_params(cfg: ModelConfig, num_features: int, num_classes: int,
                seed: int = 0) -> ModelParams:
    """Seeded parameter initialization for the configured architecture."""
    rng = np.random.default_rng(seed)
    d = cfg.hidden_dim
    compressor = MlpParams.init((num_features, d), (None,), rng)
    momentum_nets, field_specs = [], []
    for _ in range(cfg.layers):
        spec = ham.make_spec(cfg, rng)
        momentum_nets.append(MlpParams.init((d, spec.p_dim), (None,), rng))
        field_specs.append(spec)
    head = None
    if cfg.decoder == "classification":
        head = MlpParams.init((d, num_classes), (None,), rng)
    return ModelParams(compressor, momentum_nets, field_specs, head)


# ---------------------------------------------------------------------------
# building blocks


def encode_nodes(params: ModelParams, cfg: ModelConfig,
                 dataset: GraphDataset) -> tuple[Node, dict]:
    """Embedding graph over the whole node set; returns (Z node, bindings)."""
    if params.compressor.input_dim != dataset.num_features:
        raise ValueError(
            f"compressor expects {params.compressor.input_dim} features, "
            f"dataset has {dataset.num_features}")
    # the compressor multiplies only the table's non-zero cells
    [(w, b, _)] = params.compressor.layers
    weight = eg.parameter("compress.w0", w.shape)
    h = eg.add(eg.sparse_matmul(eg.transpose(weight), dataset.feature_matrix),
               eg.parameter("compress.b0", b.shape))
    h.attrs["label"] = "compress layer 0"
    mean = dataset.mean_matrix
    for i, (qnet, spec) in enumerate(zip(params.momentum_nets, params.field_specs)):
        # the chart builds p0 = qnet(h) where it reads it; a first-layer
        # chart folds the map into its start
        name = f"layer{i}.momentum"
        states = integrate_nodes(spec, h, None, cfg.integration,
                                 prefix=f"layer{i}.field", momentum=(qnet, name))
        q_end = states[-1][0]
        q_end.attrs["label"] = f"layer {i} orbit end"
        h = eg.add(q_end, eg.sparse_matmul(q_end, mean, label="neighbor mean"))
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
    idx = np.asarray(pairs)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"pairs must hold integer node ids, got {idx.dtype}")
    idx = idx.astype(np.intp, copy=False).reshape(-1, 2)
    bad = ((idx < 0) | (idx >= n)).any(axis=1)
    if bad.any():
        u, v = idx[np.argmax(bad)]
        raise ValueError(f"pair ({u}, {v}) references an unknown node")
    # one (1, d) @ (d, 1) product per pair, the same dot as z[u] @ z[v]
    s = (z[idx[:, 0], None, :] @ z[idx[:, 1], :, None]).reshape(-1)
    return scipy.special.expit(s)  # cannot overflow


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
    manifest = load_json_object(root / "manifest.json")
    echo, entries = (check_json_value(manifest.get(key), hint, f"manifest.json {key}")
                     for key, hint in (("config", dict), ("tensors", list)))
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
    for i, entry in enumerate(entries):
        where = f"manifest.json tensors[{i}]"
        entry = check_json_value(entry, dict, where)
        name, shape, start = (check_json_value(entry.get(key), hint, f"{where}.{key}")
                              for key, hint in (("name", str), ("shape", list), ("offset", int)))
        shape = tuple(check_json_value(n, int, f"{where}.shape") for n in shape)
        if name not in arrays:
            cause = "is listed twice" if name in expected else "does not fit the config"
            raise ValueError(f"checkpoint tensor {name!r} {cause}")
        target = arrays.pop(name)
        if target.shape != shape:
            raise ValueError(f"checkpoint tensor {name!r} has shape {shape}, "
                             f"expected {target.shape}")
        if start != offset:
            raise ValueError(f"checkpoint tensor {name!r} starts at byte "
                             f"{start}, expected {offset}")
        target[...] = np.frombuffer(raw, dtype="<f8", count=target.size,
                                    offset=offset).reshape(shape)
        offset += 8 * target.size
    if arrays:
        raise ValueError(f"checkpoint manifest is missing tensors {sorted(arrays)}")
    for i, spec in enumerate(params.field_specs):
        try:
            replace(spec)  # the spec's own checks, on the loaded weights
        except ValueError as exc:
            raise ValueError(f"checkpoint layer{i}.field: {exc}") from None
    return params, manifest

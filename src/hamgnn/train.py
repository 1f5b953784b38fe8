"""Losses, the Adam optimizer, negative sampling, metrics, and the training
loop with best-validation checkpointing.

Training is full batch: one expression graph produces the loss and, in the
same evaluation, the gradient of every parameter tensor (the solver is
unrolled, so these are exact gradients of the discrete trajectory).  The
reported test metric always belongs to the epoch with the best validation
metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import engine as eg
from . import model as md
from .engine import Node
from .graphdata import GraphDataset, LinkSplit
from .model import ModelConfig, ModelParams

__all__ = [
    "TrainConfig", "TrainHistory", "cross_entropy", "cross_entropy_node",
    "negative_sample", "AdamState", "adam_step", "roc_auc", "accuracy",
    "make_link_split", "fit", "layer_sweep",
]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings.  ``lr = 0`` is allowed and leaves parameters
    untouched (useful as a control)."""

    lr: float = 0.01
    weight_decay: float = 0.001
    max_epochs: int = 200
    patience: int = 100
    seed: int = 0
    task: str = "classification"
    negative_ratio: int = 1
    decay_biases: bool = True

    def __post_init__(self):
        if not (self.lr >= 0 and self.weight_decay >= 0):
            raise ValueError("learning rate and weight decay must be non-negative")
        if self.max_epochs < 1:
            raise ValueError("need at least one epoch")
        if not 1 <= self.patience <= self.max_epochs:
            raise ValueError("patience must lie in [1, max_epochs]")
        if self.task not in ("classification", "link"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.negative_ratio < 1:
            raise ValueError("negative ratio must be positive")


@dataclass
class TrainHistory:
    """Per-epoch record of (train loss, val metric, test metric at the best
    validation checkpoint so far)."""

    records: list = dc_field(default_factory=list)
    best_epoch: int = -1
    best_val: float = -math.inf
    test_at_best: float = math.nan
    diverged_at: int | None = None

    def append(self, epoch: int, train_loss: float, val_metric: float,
               test_metric: float):
        self.records.append({"epoch": epoch, "train_loss": train_loss,
                             "val_metric": val_metric,
                             "test_metric": test_metric})

    def to_csv(self, path) -> None:
        lines = ["epoch,train_loss,val_metric,test_metric"]
        for r in self.records:
            lines.append(f"{r['epoch']},{r['train_loss']!r},"
                         f"{r['val_metric']!r},{r['test_metric']!r}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# losses and metrics


def _onehot_mask(labels: np.ndarray, mask: np.ndarray, classes: int) -> np.ndarray:
    out = np.zeros((labels.size, classes))
    out[mask, labels[mask]] = 1.0
    return out


def cross_entropy_node(logits: Node, labels, mask) -> Node:
    """Masked mean of -log softmax(logits)[label], as a graph."""
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("empty mask")
    picked = _onehot_mask(labels, mask, logits.shape[1])
    total = eg.reduce_sum(eg.mul(eg.log_softmax(logits), eg.constant(picked)))
    return eg.scale(total, -1.0 / mask.size)


def cross_entropy(logits, labels, mask) -> float:
    """Masked mean negative log-likelihood, stabilized by max subtraction."""
    arr = eg.as_array(logits)
    leaf = eg.parameter("logits", arr.shape)
    return float(eg.evaluate(cross_entropy_node(leaf, labels, mask),
                             {"logits": arr}))


def accuracy(preds, labels, mask) -> float:
    """Exact-match fraction over the masked nodes."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("empty mask")
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    return float(np.mean(preds[mask] == labels[mask]))


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; ties count
    one half (rank statistic)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # a tie group's average 1-based rank
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    pos_rank_sum = float(ranks[pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# negative sampling and link splits


def _pair_keys(pairs, n_nodes: int) -> np.ndarray:
    """Sorted distinct keys ``min * n + max`` of unordered node pairs."""
    arr = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs),
                     dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= n_nodes):
        raise ValueError(f"forbidden pair references a node outside [0, {n_nodes})")
    u, v = arr.T
    keys = np.sort(np.minimum(u, v) * n_nodes + np.maximum(u, v))
    return keys[np.diff(keys, prepend=-1) != 0]


def _in_sorted(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each key occurs in the sorted array ``table``."""
    if not table.size:
        return np.zeros(keys.shape, dtype=bool)
    at = np.minimum(np.searchsorted(table, keys), table.size - 1)
    return table[at] == keys


def negative_sample(n_nodes: int, count: int, seed, forbidden) -> list:
    """Uniform distinct non-self pairs ``(u, v)``, ``u < v``, outside
    ``forbidden`` (pairs in either order: a set, a list or an ``(m, 2)``
    array).  Deterministic per seed; raises when the graph is too dense to
    supply them.

    Pairs are drawn as ``rng.integers(0, n_nodes, size=(k, 2))`` blocks, whose
    values are those of ``2k`` scalar draws, and the first new valid pairs are
    kept in draw order: the result is that of drawing one pair at a time and
    rejecting self, forbidden and repeated pairs.
    """
    if count < 1:
        raise ValueError("need a positive sample count")
    forbidden = _pair_keys(forbidden, n_nodes)
    possible = n_nodes * (n_nodes - 1) // 2 - forbidden.size
    if count > possible:
        raise ValueError(
            f"graph too dense: only {possible} candidate negatives, need {count}")
    rng = np.random.default_rng(seed)
    if count > possible // 2:
        u, v = np.triu_indices(n_nodes, 1)  # every pair, in lexicographic order
        free = ~_in_sorted(u * n_nodes + v, forbidden)
        u, v = u[free], v[free]
        idx = np.sort(rng.choice(u.size, size=count, replace=False))
        return list(zip(u[idx].tolist(), v[idx].tolist()))
    picked = np.empty(0, dtype=np.int64)  # keys of the kept pairs, in draw order
    while picked.size < count:
        need = count - picked.size
        u, v = rng.integers(0, n_nodes, size=(need + need // 4 + 16, 2)).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = (lo * n_nodes + hi)[lo != hi]
        keys = keys[~_in_sorted(keys, forbidden)]
        # a stable sort ranks each key's earliest draw first among its equals
        drawn = np.concatenate([picked, keys])
        order = np.argsort(drawn, kind="stable")
        first = np.empty(drawn.size, dtype=bool)
        first[order] = np.diff(drawn[order], prepend=-1) != 0
        picked = np.concatenate([picked, keys[first[picked.size:]][:need]])
    lo, hi = np.divmod(picked, n_nodes)
    return list(zip(lo.tolist(), hi.tolist()))


def make_link_split(dataset: GraphDataset, seed,
                    fractions=(0.85, 0.05, 0.10)) -> LinkSplit:
    """Edge split with fixed, disjoint validation/test negatives."""
    edges = list(dataset.edges)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(edges))
    n_val = int(math.floor(fractions[1] * len(edges)))
    n_test = int(math.floor(fractions[2] * len(edges)))
    for what, count in (("validation", n_val), ("test", n_test)):
        if not count:
            raise ValueError(f"a link split of {len(edges)} edges leaves no {what} pair")
    val = tuple(edges[i] for i in order[:n_val])
    test = tuple(edges[i] for i in order[n_val:n_val + n_test])
    train = tuple(edges[i] for i in order[n_val + n_test:])
    all_edges = set(edges)
    test_neg = negative_sample(dataset.n, n_test, [seed, 1], all_edges)
    val_neg = negative_sample(dataset.n, n_val, [seed, 2], all_edges | set(test_neg))
    return LinkSplit(train, val, test, tuple(val_neg), tuple(test_neg))


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    """First/second-moment accumulators, one slot per named tensor."""

    def __init__(self, param_items):
        self.m = {name: np.zeros_like(arr) for name, arr in param_items}
        self.v = {name: np.zeros_like(arr) for name, arr in param_items}
        self.t = 0


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float,
              weight_decay: float = 0.0, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8,
              decay_biases: bool = True) -> None:
    """One update, in place; decoupled weight decay runs before the moment
    update, and convexity-constrained specs are re-projected afterwards.

    Every tensor's new values are worked out before any array changes, so a
    step that overflows (a squared gradient above the largest double, say)
    raises ``FloatingPointError`` naming the tensor and changes nothing.
    """
    t = state.t + 1
    new = {}
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for name, arr in params.param_items():
            g = grads.get(name)
            if g is None:
                continue
            if g.shape != arr.shape:
                raise ValueError(f"gradient for {name!r} has shape {g.shape}, "
                                 f"expected {arr.shape}")
            try:
                decayed = arr
                if weight_decay and (decay_biases
                                     or not name.rsplit(".", 1)[-1].startswith("b")):
                    decayed = arr - lr * weight_decay * arr
                m = state.m[name] * beta1
                m += (1 - beta1) * g
                v = state.v[name] * beta2
                v += (1 - beta2) * g * g
                m_hat = m / (1 - beta1 ** t)
                v_hat = v / (1 - beta2 ** t)
                new[name] = decayed - lr * m_hat / (np.sqrt(v_hat) + eps), m, v
            except FloatingPointError:
                raise FloatingPointError(f"Adam step overflows in {name!r}") from None
    state.t = t
    for name, arr in params.param_items():
        if name in new:
            arr[...], state.m[name], state.v[name] = new[name]
    params.project_feasible()


# ---------------------------------------------------------------------------
# training loops


def _link_loss_node(z: Node, positives: np.ndarray, negatives) -> Node:
    # two-class logits [score, 0]: softmax class 0 equals the logistic of the
    # score, so the masked cross entropy below is exactly logistic loss
    negatives = np.asarray(negatives, dtype=np.intp).reshape(-1, 2)
    pairs = np.concatenate([positives, negatives])
    scores = eg.reduce_sum(eg.mul(eg.gather_rows(z, pairs[:, 0]),
                                  eg.gather_rows(z, pairs[:, 1])), axis=1)
    logits = eg.outer(scores, eg.constant([1.0, 0.0]))
    labels = np.repeat([0, 1], [len(positives), len(negatives)])
    return cross_entropy_node(logits, labels, np.arange(labels.size))


def _param_leaves(params: ModelParams) -> list[Node]:
    return [eg.parameter(name, arr.shape) for name, arr in params.param_items()]


def fit(model_cfg: ModelConfig, train_cfg: TrainConfig,
        dataset: GraphDataset, log=None) -> tuple[ModelParams, TrainHistory]:
    """Full-batch training with patience-based early stopping.

    Deterministic per seed.  On divergence (a non-finite value in an
    evaluation, or an Adam step that overflows, which counts against the
    epoch it would have fed) the epoch is recorded and the best checkpoint
    so far is returned.  ``log`` is called with one line per epoch when
    given.
    """
    task = train_cfg.task
    link_split = None
    if task == "classification":
        if model_cfg.decoder != "classification":
            raise ValueError("classification training needs the classification decoder")
        for what, mask in (("training", dataset.train_mask),
                           ("validation", dataset.val_mask), ("test", dataset.test_mask)):
            if not mask.size:
                raise ValueError(f"dataset has no {what} nodes")
    else:
        link_split = make_link_split(dataset, train_cfg.seed)

    params = md.init_params(model_cfg, dataset.num_features, dataset.num_classes,
                            seed=train_cfg.seed)
    state = AdamState(params.param_items())
    history = TrainHistory()
    best_params = params.copy()

    z_node, _ = md.encode_nodes(params, model_cfg, dataset)
    leaves = _param_leaves(params)

    logits_node = None
    loss_node = None
    grad_nodes = None
    if task == "classification":
        logits_node = params.head.graph(z_node, "head")
        loss_node = cross_entropy_node(logits_node, dataset.labels,
                                       dataset.train_mask)
        grad_nodes = eg.gradient_all(loss_node, leaves, allow_unused=True)
    else:
        positives = np.array(link_split.train_edges, dtype=np.intp).reshape(-1, 2)
        edges = np.array(dataset.edges, dtype=np.int64).reshape(-1, 2)

    stale = 0
    for epoch in range(1, train_cfg.max_epochs + 1):
        if task == "link":
            loss_node = _link_loss_node(z_node, positives, negative_sample(
                dataset.n, len(positives) * train_cfg.negative_ratio,
                [train_cfg.seed, 3, epoch], edges))
            grad_nodes = eg.gradient_all(loss_node, leaves, allow_unused=True)

        outputs = [loss_node, z_node] + grad_nodes
        if logits_node is not None:
            outputs.append(logits_node)
        try:
            values = eg.evaluate(outputs, params.bindings())
        except FloatingPointError:
            history.diverged_at = epoch
            break
        loss = float(values[0])
        z_val = values[1]
        grads = {name: g for (name, _), g in
                 zip(params.param_items(), values[2:2 + len(leaves)])}

        if task == "classification":
            preds = md.predict_classes(values[-1])
            val_metric = accuracy(preds, dataset.labels, dataset.val_mask)
            test_metric = accuracy(preds, dataset.labels, dataset.test_mask)
        else:
            val_metric = _link_auc(z_val, link_split.val_edges,
                                   link_split.val_negatives)
            test_metric = _link_auc(z_val, link_split.test_edges,
                                    link_split.test_negatives)

        if val_metric > history.best_val:
            history.best_val = val_metric
            history.best_epoch = epoch
            history.test_at_best = test_metric
            best_params = params.copy()
            stale = 0
        else:
            stale += 1

        history.append(epoch, loss, val_metric, history.test_at_best)
        if log is not None:
            log(f"epoch {epoch} loss {loss:.6f} val {val_metric:.4f} "
                f"test@best {history.test_at_best:.4f}")

        if stale >= train_cfg.patience:
            break
        try:
            adam_step(params, grads, state, train_cfg.lr, train_cfg.weight_decay,
                      decay_biases=train_cfg.decay_biases)
        except FloatingPointError:
            # the next epoch would run on the parameters the step could not make
            history.diverged_at = epoch + 1
            break

    return best_params, history


def _link_auc(z: np.ndarray, positives, negatives) -> float:
    scores = np.concatenate([md.decode_link(z, positives),
                             md.decode_link(z, negatives)])
    labels = np.array([1] * len(positives) + [0] * len(negatives))
    return roc_auc(scores, labels)


def evaluate_params(params: ModelParams, model_cfg: ModelConfig,
                    train_cfg: TrainConfig, dataset: GraphDataset) -> tuple[dict, np.ndarray]:
    """Metrics of a fixed parameter set (no training) and its embeddings.

    One evaluation of the graph ``fit`` trains gives the embeddings and,
    for classification, the logits and the training loss.
    """
    z_node, bindings = md.encode_nodes(params, model_cfg, dataset)
    if train_cfg.task == "link":
        split = make_link_split(dataset, train_cfg.seed)
        z = eg.evaluate(z_node, bindings)
        return {"val_roc_auc": _link_auc(z, split.val_edges, split.val_negatives),
                "test_roc_auc": _link_auc(z, split.test_edges, split.test_negatives)}, z
    if params.head is None:
        raise ValueError("parameters have no classification head")
    logits_node = params.head.graph(z_node, "head")
    outputs = [z_node, logits_node]
    if dataset.train_mask.size:
        outputs.append(cross_entropy_node(logits_node, dataset.labels, dataset.train_mask))
    z, logits, *loss = eg.evaluate(outputs, bindings)
    preds = md.predict_classes(logits)
    out = {f"{what}_accuracy": accuracy(preds, dataset.labels, mask) if mask.size else math.nan
           for what, mask in (("train", dataset.train_mask), ("val", dataset.val_mask),
                              ("test", dataset.test_mask))}
    out["train_loss"] = float(loss[0]) if loss else math.nan
    return out, z


def layer_sweep(model_cfg: ModelConfig, train_cfg: TrainConfig,
                dataset: GraphDataset, layer_counts) -> list:
    """Fit once per layer count with a shared seed; returns one row per L."""
    layer_counts = list(layer_counts)
    if not layer_counts:
        raise ValueError("need at least one layer count")
    rows = []
    for L in layer_counts:
        cfg = replace(model_cfg, layers=int(L))
        _, history = fit(cfg, train_cfg, dataset)
        rows.append({"layers": int(L),
                     "best_val": history.best_val,
                     "test_metric": history.test_at_best,
                     "epochs": len(history.records)})
    return rows

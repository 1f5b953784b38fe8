"""Seeded input generators for the benchmark.

Each generator writes a dataset directory in the library's portable format
(``nodes.csv``, ``edges.tsv``, ``splits.json``), so the program under test
receives only files and pays for the real ``load_dataset`` parse.  The
generators live here, not in the library, so that a change to the library
cannot change the benchmark's inputs.

* ``cora``: Cora-shaped citation graph.  2708 nodes, 1433 sparse binary
  bag-of-words features (written as 0.0/1.0, as the Cora converter does; the
  loader L1-normalises them), about 5.3k undirected edges with heavy-tailed
  degrees, 7 classes with Cora's class sizes, and a seeded 140/500/1000 split.
* ``tree``: complete binary tree; the label is the root subtree.
* ``grid``: square lattice; the label is the left or right half.

Everything is vectorised: generating the Cora-shaped graph takes well under a
second.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CORA_NODES = 2708
CORA_FEATURES = 1433
CORA_EDGES = 5278                       # undirected edges of the real Cora
CORA_CLASS_SIZES = (818, 426, 418, 351, 298, 217, 180)
CORA_SPLIT = (140, 500, 1000)
CORA_WORDS_PER_NODE = 18                # mean number of ones per row
# Shares below set how separable the classes are.  They are chosen so that a
# 3-layer model trained for the benchmark's epoch budget ends well below
# perfect test accuracy (a quality drop must be able to show).
CORA_TOPIC_SHARE = 0.22                 # share of a node's words from its class topic
CORA_TOPIC_WORDS = 60                   # words per class topic
CORA_HOMOPHILY = 0.75                   # share of edges drawn inside a class
CORA_DEGREE_EXPONENT = 2.2              # Pareto tail of the degree weights
# tree and grid: dense features, a one-hot class code plus half-normal noise
SMALL_WIDTH = 8
SMALL_NOISE = 0.3


def _cora_edges(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Chung-Lu style edges with class homophily: endpoints are drawn in
    proportion to Pareto weights, so degrees are heavy-tailed."""
    n = labels.size
    weight = rng.pareto(CORA_DEGREE_EXPONENT - 1.0, size=n) + 1.0
    classes = int(labels.max()) + 1
    members = [np.flatnonzero(labels == c) for c in range(classes)]
    member_p = [weight[m] / weight[m].sum() for m in members]
    all_p = weight / weight.sum()

    # the first round gives every node one citation, so (as in Cora) almost
    # no node is isolated; later rounds draw both endpoints by weight
    chunks, have, u = [], 0, np.arange(n)
    while have < CORA_EDGES:
        draws = u.size
        v = rng.choice(n, size=draws, p=all_p)
        inside = rng.random(draws) < CORA_HOMOPHILY
        for c in range(classes):
            pick = inside & (labels[u] == c)
            v[pick] = rng.choice(members[c], size=int(pick.sum()), p=member_p[c])
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        chunks.append(lo * n + hi)
        keys = np.concatenate(chunks)
        _, first = np.unique(keys, return_index=True)
        have = first.size
        u = rng.choice(n, size=2 * CORA_EDGES, p=all_p)
    keys = keys[np.sort(first)[:CORA_EDGES]]
    return np.stack([keys // n, keys % n], axis=1)


def _cora_features(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Binary bag of words: each word is drawn from the node's class topic
    with probability CORA_TOPIC_SHARE, else from a Zipf-like background.
    Class topics are disjoint word blocks whatever the seed, so that the
    task is equally hard on every seed."""
    n = labels.size
    classes = int(labels.max()) + 1
    topics = np.arange(classes * CORA_TOPIC_WORDS).reshape(classes, CORA_TOPIC_WORDS)
    popularity = 1.0 / (np.arange(CORA_FEATURES) + 10.0)
    background = rng.permutation(CORA_FEATURES)
    background_p = popularity / popularity.sum()

    counts = 1 + rng.poisson(CORA_WORDS_PER_NODE - 1, size=n)
    rows = np.repeat(np.arange(n), counts)
    from_topic = rng.random(rows.size) < CORA_TOPIC_SHARE
    words = background[rng.choice(CORA_FEATURES, size=rows.size, p=background_p)]
    slot = rng.integers(0, CORA_TOPIC_WORDS, size=rows.size)
    words[from_topic] = topics[labels[rows[from_topic]], slot[from_topic]]
    x = np.zeros((n, CORA_FEATURES), dtype=np.uint8)
    x[rows, words] = 1
    return x


def cora(seed: int):
    """(binary features, labels, edges, splits) of a Cora-shaped graph."""
    rng = np.random.default_rng([seed, 0xC0AA])
    labels = np.repeat(np.arange(len(CORA_CLASS_SIZES)), CORA_CLASS_SIZES)
    labels = labels[rng.permutation(labels.size)]
    edges = _cora_edges(labels, rng)
    features = _cora_features(labels, rng)
    order = rng.permutation(CORA_NODES)
    a, b, c = CORA_SPLIT
    splits = {"train": order[:a], "val": order[a:a + b],
              "test": order[a + b:a + b + c]}
    return features, labels, edges, splits


def _noisy_onehot(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = SMALL_NOISE * np.abs(rng.standard_normal((labels.size, SMALL_WIDTH)))
    out[np.arange(labels.size), labels] += 1.0
    return out


def _random_split(n: int, rng: np.random.Generator) -> dict:
    order = rng.permutation(n)
    a, b = int(0.6 * n), int(0.2 * n)
    return {"train": order[:a], "val": order[a:a + b], "test": order[a + b:]}


def tree(seed: int, depth: int):
    """Complete binary tree of the given depth, heap-numbered; the label is
    the root subtree a node hangs from (the root counts as the left one)."""
    rng = np.random.default_rng([seed, 0x7EE])
    n = 2 ** (depth + 1) - 1
    child = np.arange(1, n)
    edges = np.stack([(child - 1) // 2, child], axis=1)
    ids = np.arange(n) + 1
    level = np.floor(np.log2(ids)).astype(np.int64)
    # the bit below the leading one of the 1-based heap id picks the subtree
    labels = np.where(level == 0, 0, (ids >> np.maximum(level - 1, 0)) & 1)
    return _noisy_onehot(labels, rng), labels, edges, _random_split(n, rng)


def grid(seed: int, side: int):
    """side x side lattice; the label says which half a node lies in."""
    rng = np.random.default_rng([seed, 0x6A1D])
    r, c = np.divmod(np.arange(side * side), side)
    labels = (2 * c >= side).astype(np.int64)
    right = np.flatnonzero(c + 1 < side)
    down = np.flatnonzero(r + 1 < side)
    edges = np.concatenate([np.stack([right, right + 1], axis=1),
                            np.stack([down, down + side], axis=1)])
    return (_noisy_onehot(labels, rng), labels, edges,
            _random_split(side * side, rng))


def write(path, features, labels, edges, splits) -> None:
    """Write a dataset directory.  Binary features are written as 0.0/1.0
    without going through Python floats, which keeps Cora-size writes fast."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    n, width = features.shape
    header = ",".join(["id", "label"] + [f"f{i}" for i in range(width)]) + "\n"
    with open(root / "nodes.csv", "wb") as fh:
        fh.write(header.encode())
        if features.dtype == np.uint8:
            cells = np.empty((n, width, 4), dtype=np.uint8)
            cells[:, :, 0] = ord("0") + features
            cells[:, :, 1] = ord(".")
            cells[:, :, 2] = ord("0")
            cells[:, :, 3] = ord(",")
            cells[:, -1, 3] = ord("\n")
            for i in range(n):
                fh.write(f"{i},{int(labels[i])},".encode())
                fh.write(cells[i].tobytes())
        else:
            for i in range(n):
                fh.write((",".join([str(i), str(int(labels[i]))]
                                   + [repr(float(x)) for x in features[i]])
                          + "\n").encode())
    (root / "edges.tsv").write_text(
        "".join(f"{u}\t{v}\n" for u, v in edges.tolist()), encoding="utf-8")
    (root / "splits.json").write_text(
        json.dumps({k: sorted(int(i) for i in v) for k, v in splits.items()}) + "\n",
        encoding="utf-8")

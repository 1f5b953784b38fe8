"""Graph datasets: portable text format, preprocessing, mixing, synthetic
generators and Gromov delta-hyperbolicity analysis.

Directory format (all text UTF-8, LF endings, '.' decimal separator):

* ``nodes.csv``   — header ``id,label,f0,f1,...``; one row per node with
  ``id`` running 0..n-1 in order and a class label, an integer in [0, 2^63)
  (ids, labels and edge endpoints are an optional sign and ASCII digits).  Feature cells
  are finite ASCII decimals (no ``_`` separators), parsed by numpy's C
  reader, except that a cell reading exactly ``0.0`` is +0.0 without it; a
  bad cell is reported with its line.
* ``edges.tsv``   — two tab-separated node ids per line, undirected;
  self-loops, duplicates and reversed duplicates are rejected.
* ``splits.json`` — object with node-id arrays ``train``, ``val``, ``test``.

Features are L1 row-normalized at load time; all-zero rows stay zero.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse
from scipy.sparse import csgraph

from . import engine as eg
from .schema import load_json_object

__all__ = [
    "GraphDataset", "LinkSplit", "aggregation_matrix", "load_dataset", "save_dataset",
    "mix_datasets", "delta_hyperbolicity", "synth_dataset",
]


def _mask_ids(name: str, ids) -> np.ndarray:
    """The sorted int64 node ids of one split mask.  A float or bool id, or
    an id listed twice, raises naming the mask."""
    arr = np.asarray(ids)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu") or (
            not isinstance(ids, np.ndarray)
            and any(isinstance(i, (bool, np.bool_)) for i in ids)):
        raise ValueError(f"{name} mask must be a list of integer node ids")
    mask = np.sort(arr.astype(np.int64))
    repeated = mask[1:][mask[1:] == mask[:-1]]
    if repeated.size:
        raise ValueError(f"{name} mask lists node {repeated[0]} more than once")
    return mask


def aggregation_matrix(n: int, edges) -> eg.SparseMatrix:
    """Neighbor-mean operator as an (n, n) ``SparseMatrix``.

    Each undirected edge {u, v} gives the entries (u, v) and (v, u), weighted
    1/|N(row)|.  Isolated nodes have no entries, so their mean term vanishes.
    The entries run first over the edges as (u, v), then as (v, u), so row u
    of ``S @ x`` adds its terms ``x[v] / |N(u)|`` onto +0.0 in that order:
    the edges where u is the first endpoint, then those where it is the
    second, each in edge order.  ``GraphDataset.mean_matrix`` holds it for
    the dataset's edges, shared by every layer, graph and backward sweep.
    """
    pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    degree = np.bincount(rows, minlength=n)
    return eg.SparseMatrix(rows, cols, 1.0 / degree[rows], (n, n))


def _check_edges(edges, n: int) -> tuple[tuple | None, np.ndarray]:
    """Check a sequence of (u, v) node-id pairs against the nodes 0..n-1.

    Returns the first fault, in edge order, as (index, kind), where kind is
    ``"self-loop"``, ``"unknown"`` (a node outside 0..n-1) or
    ``"duplicate"`` (an earlier edge in either orientation), checked in that
    order for each edge; None if every edge is sound.  Also returns the
    (min, max) endpoint pairs in ascending order: with no fault, one row per
    edge.
    """
    try:
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an id past int64 names no node; -1 stands for it
        pairs = np.array([[x if -2**63 <= x < 2**63 else -1 for x in map(int, e)]
                          for e in edges], dtype=np.int64).reshape(-1, 2)
    canon = np.sort(pairs, axis=1)
    order = np.lexsort((canon[:, 1], canon[:, 0]))  # stable: a repeat follows its first
    canon = canon[order]
    repeat = np.zeros(len(pairs), dtype=bool)
    repeat[order[1:]] = (canon[1:] == canon[:-1]).all(axis=1)
    loop = pairs[:, 0] == pairs[:, 1]
    unknown = ((pairs < 0) | (pairs >= n)).any(axis=1)
    bad = np.flatnonzero(loop | unknown | repeat)
    if not bad.size:
        return None, canon
    i = int(bad[0])
    return (i, "self-loop" if loop[i] else "unknown" if unknown[i] else "duplicate"), canon


@dataclass
class GraphDataset:
    """Undirected graph with node features, labels and split masks.

    ``features`` is read-only once the dataset is built; copy it before
    editing.  A writable array passed in is copied (``engine.frozen_float64``),
    so a later write to it cannot reach the validated table.

    ``feature_matrix`` holds the table's non-zero cells as an
    ``engine.SparseMatrix`` of the table's shape, in row-major order, with
    its CSR copy built: model graphs multiply it, never the dense table.  It
    takes about 40 bytes per non-zero cell.  ``mean_matrix`` is the
    neighbour-mean operator ``aggregation_matrix(n, edges)``, CSR copy built.
    """

    name: str
    features: np.ndarray        # (n, F)
    labels: np.ndarray          # (n,) integer class ids
    edges: list                 # unordered pairs, stored as (u, v) with u < v
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    feature_matrix: eg.SparseMatrix = field(init=False, repr=False, compare=False)
    mean_matrix: eg.SparseMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.features = eg.frozen_float64(self.features)
        try:
            self.labels = np.asarray(self.labels, dtype=np.int64)
        except OverflowError:
            raise ValueError("labels must be class ids that fit in int64") from None
        n = self.features.shape[0]
        if self.features.ndim != 2 or self.labels.shape != (n,):
            raise ValueError("features must be (n, F) and labels (n,)")
        if not eg.all_finite(self.features):
            finite = np.isfinite(self.features).all(axis=1)
            raise ValueError(
                f"non-finite feature in row {int(np.flatnonzero(~finite)[0])}")
        # the coordinates np.nonzero gives, in a fifth of its time
        cells = np.flatnonzero(self.features != 0.0)
        rows, cols = np.divmod(cells, max(self.features.shape[1], 1))
        self.feature_matrix = eg.SparseMatrix(rows, cols, self.features.reshape(-1)[cells],
                                              self.features.shape)
        self.feature_matrix.csr()
        if np.any(self.labels < 0):
            raise ValueError("labels must be non-negative class ids")
        fault, canon = _check_edges(self.edges, n)
        if fault is not None:
            i, kind = fault
            u, v = (int(x) for x in self.edges[i])
            raise ValueError({"self-loop": f"self-loop at node {u}",
                              "unknown": f"edge ({u}, {v}) references an unknown node",
                              "duplicate": f"duplicate edge ({u}, {v})"}[kind])
        self.edges = list(zip(*canon.T.tolist()))
        self.mean_matrix = aggregation_matrix(n, self.edges)
        self.mean_matrix.csr()
        masks = []
        seen = set()
        for name, mask in (("train", self.train_mask), ("val", self.val_mask),
                           ("test", self.test_mask)):
            mask = _mask_ids(name, mask)
            if mask.size and (mask[0] < 0 or mask[-1] >= n):
                raise ValueError(f"{name} mask references an unknown node")
            if seen & set(mask.tolist()):
                raise ValueError("masks overlap")
            seen |= set(mask.tolist())
            masks.append(mask)
        self.train_mask, self.val_mask, self.test_mask = masks

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.n else 0


@dataclass(frozen=True)
class LinkSplit:
    """Edge split for link prediction with verified negative pairs."""

    train_edges: tuple
    val_edges: tuple
    test_edges: tuple
    val_negatives: tuple
    test_negatives: tuple

    def __post_init__(self):
        groups = (self.train_edges, self.val_edges, self.test_edges,
                  self.val_negatives, self.test_negatives)
        seen = set()
        for group in groups:
            pairs = set(group)
            if pairs & seen:
                raise ValueError("link split groups must be disjoint")
            seen |= pairs
        for u, v in self.val_negatives + self.test_negatives:
            if u == v:
                raise ValueError("negative pair is a self-pair")


def _l1_normalize_rows(features: np.ndarray) -> np.ndarray:
    """Divide each row by its L1 norm, in place.

    Rows already normalized (within round-off) stay bit-identical so that
    save -> load round-trips exactly; zero rows stay zero.  A norm is numpy's
    pairwise sum of the row, taken a block of rows at a time, and only
    non-zero cells are divided, so no table-sized temporary is built.
    """
    n, m = features.shape
    sums = np.empty(n)
    block = np.empty((min(n, _FEATURE_BLOCK_ROWS), m))
    for start in range(0, n, _FEATURE_BLOCK_ROWS):
        part = features[start:start + _FEATURE_BLOCK_ROWS]
        np.abs(part, out=block[:len(part)]).sum(axis=1, out=sums[start:start + len(part)])
    scale = ~((sums == 0.0) | (np.abs(sums - 1.0) <= 1e-12))
    rows, cols = np.divmod(np.flatnonzero(features != 0.0), m)  # faster than np.nonzero
    keep = scale[rows]
    features[rows[keep], cols[keep]] /= sums[rows[keep]]
    return features


# numpy's message for a cell its C reader cannot parse; row is 0-based,
# column 1-based
_LOADTXT_CELL_ERROR = re.compile(
    r"could not convert string (.*) to \w+ at row (\d+), column (\d+)")
# rows scanned at a time: the byte masks of a block stay in cache
_FEATURE_BLOCK_ROWS = 64
_COMMA, _DOT, _ZERO = b",.0"


def _parse_features(cells: list, linenos: list, header: list) -> np.ndarray:
    """Parse the comma-separated feature cells of each row.

    ``cells`` holds each row's feature part, with one cell per header column
    after ``id,label``, and ``linenos`` its line in nodes.csv.  A cell that
    reads exactly ``0.0`` (what ``save_dataset`` writes for +0.0) is +0.0,
    as numpy's C reader would give; byte compares find those, and only the
    other cells go through the reader, one line per block of rows.  The same
    scan counts each row's commas, so a ragged row is reported by its line
    before its block's cells are read.  An unparsable or non-finite cell is
    reported by its line and header column.
    """
    n_features = len(header) - 2
    features = np.zeros((len(linenos), n_features))
    flat = features.reshape(-1)
    for first in range(0, len(cells), _FEATURE_BLOCK_ROWS):
        # a comma leads the block and closes every cell, so a cell is 0.0
        # exactly where the bytes read ",0.0,"
        block = [cell.encode() for cell in cells[first:first + _FEATURE_BLOCK_ROWS]]
        b = np.frombuffer(b"," + b",".join(block) + b",", dtype=np.uint8)
        comma, zero = b == _COMMA, b == _ZERO
        # a row's commas: the one before its first cell and those between
        # its cells, one per feature
        starts = np.cumsum([0] + [len(row) + 1 for row in block[:-1]])
        row_commas = np.add.reduceat(comma[:-1], starts, dtype=np.int32)
        ragged = np.flatnonzero(row_commas != n_features)
        if ragged.size:
            r = ragged[0]
            raise ValueError(f"ragged feature row at line {linenos[first + r]}: "
                             f"{row_commas[r]} features, expected {n_features}")
        zero_cell = comma[:-4] & zero[1:-3] & (b[2:-2] == _DOT) & zero[3:-1] & comma[4:]
        drop = np.zeros(b.size, dtype=bool)  # each 0.0 cell and its closing comma
        for k in range(1, 5):
            drop[k:k + zero_cell.size] |= zero_cell
        keep = ~drop
        kept = b[keep]
        if kept.size == 1:  # the leading comma alone: every cell was 0.0
            continue
        # a kept cell's place in the block: the kept cells before it, plus
        # the 0.0 cells before it, which took four bytes each
        ends = np.flatnonzero(keep & comma)[1:]
        kept_ends = np.flatnonzero(kept == _COMMA)[1:]
        index = first * n_features + (ends - kept_ends) // 4 + np.arange(kept_ends.size)
        line = kept[1:-1].tobytes().decode()
        try:
            if not line:  # the reader would skip a lone empty cell as an empty line
                raise ValueError("could not convert string '' to float64 at row 0, column 1")
            # comments=None: a '#' must fail as a bad cell, not end the line
            flat[index] = np.loadtxt([line], delimiter=",", comments=None,
                                     dtype=np.float64, ndmin=1)
        except ValueError as exc:
            match = _LOADTXT_CELL_ERROR.match(str(exc))
            if match is None:
                raise ValueError(f"nodes.csv features: {exc}") from exc
            row, col = divmod(int(index[int(match.group(3)) - 1]), n_features)
            raise ValueError(f"unparsable feature {header[col + 2]} = {match.group(1)}"
                             f" at nodes.csv line {linenos[row]}") from None
    if not eg.all_finite(features):
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise ValueError(f"non-finite feature {header[col + 2]} = {float(features[row, col])!r}"
                         f" at nodes.csv line {linenos[row]}")
    return features


def _int_cell(cell: str, what: str, lineno: int, fname: str = "nodes.csv") -> int:
    try:
        # int() alone also reads "1_0" and non-ASCII digits such as "\u0663"
        if "_" not in cell and cell.strip().isascii():
            return int(cell)
    except ValueError:
        pass
    raise ValueError(f"{what} must be an integer; got {cell!r} at {fname} line {lineno}")


# at most 18 digits: every such cell fits in int64
_PLAIN_DIGITS = 18
_POWERS = 10 ** np.arange(_PLAIN_DIGITS, dtype=np.int64)


def _int_cells(cells: list) -> tuple[np.ndarray, np.ndarray]:
    """The values of the cells that are 1 to 18 ASCII digits, read in one
    vectorised pass over the cells' bytes, and a mask of those cells.  Such
    a cell is what ``int()`` reads it as; every other cell is left to
    ``_int_cell``, which reads or rejects it.  No cell holds a line break,
    so a newline closes each one."""
    if not cells:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    b = np.frombuffer(("\n".join(cells) + "\n").encode(), dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    starts = np.concatenate([[0], ends[:-1] + 1])
    digit = b - np.uint8(ord("0"))
    is_digit = digit <= 9  # bytes below "0" wrap past 9
    # a digit's place counted from its cell's last byte
    place = np.repeat(ends, np.diff(ends, prepend=-1)) - np.arange(b.size) - 1
    weight = np.where(is_digit & (place < _PLAIN_DIGITS),
                      _POWERS[np.minimum(place, _PLAIN_DIGITS - 1)], 0)
    values = np.add.reduceat(digit * weight, starts)
    length = ends - starts  # in bytes: a non-ASCII character takes more than one
    plain = ((length >= 1) & (length <= _PLAIN_DIGITS)
             & (np.add.reduceat(is_digit, starts, dtype=np.intp) == length))
    return values, plain


def load_dataset(path) -> GraphDataset:
    """Read a dataset directory, validate it, and L1-normalize the features."""
    root = Path(path)
    for fname in ("nodes.csv", "edges.tsv", "splits.json"):
        if not (root / fname).exists():
            raise FileNotFoundError(f"missing file {fname} in {root}")

    rows = (root / "nodes.csv").read_text(encoding="utf-8").splitlines()
    if not rows:
        raise ValueError("nodes.csv is empty")
    header = rows[0].split(",")
    if header[:2] != ["id", "label"]:
        raise ValueError("nodes.csv header must start with 'id,label'")
    n_features = len(header) - 2
    # one Python pass splits each row into its id, its label and its feature
    # part, up to the first ragged row; the ids and labels are then checked
    # together, and the feature cells parsed together, a block scan that
    # also finds the ragged rows among those that reach a feature cell
    linenos, id_cells, label_cells, cells, ragged = [], [], [], [], None
    for lineno, row in enumerate(rows[1:], start=2):
        if not row.strip():
            continue
        parts = row.split(",", 2)
        if len(parts) != (3 if n_features else 2):
            ragged = ValueError(
                f"ragged feature row at line {lineno}: {row.count(',') - 1} features,"
                f" expected {n_features}")
            break
        linenos.append(lineno)
        id_cells.append(parts[0])
        label_cells.append(parts[1])
        if n_features:
            cells.append(parts[2])
    ids, plain_ids = _int_cells(id_cells)
    labels, plain_labels = _int_cells(label_cells)
    # a plain label is below 10^18, so in range; any other row is checked
    # cell by cell, in line order, and the first fault is raised
    for i in np.flatnonzero(~plain_ids | ~plain_labels | (ids != np.arange(ids.size))):
        lineno = linenos[i]
        node_id = _int_cell(id_cells[i], "node id", lineno)
        if node_id != i:
            raise ValueError(
                f"node ids must run 0..n-1 in order; got {node_id} at line {lineno}")
        label = _int_cell(label_cells[i], "label", lineno)
        if not 0 <= label < 2**63:
            raise ValueError(f"label must be a non-negative integer that fits in int64;"
                             f" got {label} at nodes.csv line {lineno}")
        labels[i] = label
    if ragged is not None:
        raise ragged
    features = _parse_features(cells, linenos, header)
    n = len(linenos)

    # the first line that is not two integer ids is reported after any
    # fault of the edges before it
    ends, edge_lines, bad_line = [], [], None
    for lineno, row in enumerate(
            (root / "edges.tsv").read_text(encoding="utf-8").splitlines(), start=1):
        if not row.strip():
            continue
        parts = row.split("\t")
        if len(parts) != 2:
            bad_line = ValueError(f"edge line {lineno} must hold two tab-separated ids")
            break
        ends.extend(parts)
        edge_lines.append(lineno)
    values, plain = _int_cells(ends)
    edges = list(zip(values[0::2].tolist(), values[1::2].tolist()))
    for i in np.flatnonzero(~(plain[0::2] & plain[1::2])):
        try:
            edges[i] = tuple(_int_cell(cell, "node id", edge_lines[i], "edges.tsv")
                             for cell in ends[2 * i:2 * i + 2])
        except ValueError as exc:
            bad_line = exc
            del edges[i:], edge_lines[i:]
            break
    fault, _ = _check_edges(edges, n)
    if fault is not None:
        i, kind = fault
        node = next((x for x in edges[i] if not 0 <= x < n), None)
        raise ValueError({"self-loop": "self-loop", "unknown": f"unknown node id {node}",
                          "duplicate": "duplicate edge"}[kind] + f" at line {edge_lines[i]}")
    if bad_line is not None:
        raise bad_line

    splits = load_json_object(root / "splits.json")
    extra = set(splits) - {"train", "val", "test"}
    if extra:
        raise ValueError(f"splits.json has unknown keys: {sorted(extra)}")
    masks = {k: splits.get(k, []) for k in ("train", "val", "test")}

    features = _l1_normalize_rows(features)
    features.flags.writeable = False  # the dataset adopts it without a copy
    return GraphDataset(
        name=root.name,
        features=features,
        labels=labels,
        edges=edges,
        train_mask=masks["train"], val_mask=masks["val"], test_mask=masks["test"])


def save_dataset(dataset: GraphDataset, path) -> None:
    """Write a dataset in the portable directory format."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    header = ["id", "label"] + [f"f{i}" for i in range(dataset.num_features)]
    # repr once per distinct bit pattern (so -0.0 and 0.0 stay apart), then
    # every cell is a lookup into those strings.  Only cells other than +0.0
    # are sorted to find the patterns: a sparse table is mostly +0.0.
    bits = dataset.features.view(np.int64)
    nonzero = bits != 0
    patterns, which = np.unique(bits[nonzero], return_inverse=True)
    cell = np.zeros(bits.shape, dtype=np.intp)
    cell[nonzero] = which + 1
    text = np.array(["0.0"] + [repr(x) for x in patterns.view(np.float64).tolist()],
                    dtype=object)
    rows = text[cell].tolist()
    lines = [",".join(header)]
    for i, (label, row) in enumerate(zip(dataset.labels.tolist(), rows)):
        lines.append(",".join([f"{i},{label}", *row]))
    (root / "nodes.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "edges.tsv").write_text(
        "".join(f"{u}\t{v}\n" for u, v in dataset.edges), encoding="utf-8")
    (root / "splits.json").write_text(json.dumps({
        "train": dataset.train_mask.tolist(),
        "val": dataset.val_mask.tolist(),
        "test": dataset.test_mask.tolist()}, indent=0) + "\n", encoding="utf-8")


def _random_masks(n: int, proportions, rng: np.random.Generator):
    order = rng.permutation(n)
    n_train = int(math.floor(proportions[0] * n))
    n_val = int(math.floor(proportions[1] * n))
    return (order[:n_train], order[n_train:n_train + n_val],
            order[n_train + n_val:])


def mix_datasets(a: GraphDataset, b: GraphDataset, split=(0.6, 0.2, 0.2),
                 seed: int = 0) -> GraphDataset:
    """Disjoint union of two graphs: no new edges, features zero-padded on
    the right, the second graph's classes kept distinct, fresh random masks."""
    if len(split) != 3 or abs(sum(split) - 1.0) > 1e-9:
        raise ValueError("split proportions must sum to one")
    n = a.n + b.n
    width = max(a.num_features, b.num_features)
    features = np.zeros((n, width))
    features[:a.n, :a.num_features] = a.features
    features[a.n:, :b.num_features] = b.features
    labels = np.concatenate([a.labels, b.labels + a.num_classes])
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    rng = np.random.default_rng(seed)
    train, val, test = _random_masks(n, split, rng)
    return GraphDataset(name=f"{a.name}+{b.name}", features=features,
                        labels=labels, edges=edges,
                        train_mask=train, val_mask=val, test_mask=test)


# ---------------------------------------------------------------------------
# delta-hyperbolicity


def _quad_deltas(dist: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """The delta of each quadruple row (w, x, y, z): half the gap between the
    largest two of its three pair sums."""
    w, x, y, z = quads.T
    sums = np.sort([dist[w, x] + dist[y, z], dist[w, y] + dist[x, z],
                    dist[w, z] + dist[x, y]], axis=0)
    return (sums[2] - sums[1]) / 2.0


def _component_hops(dataset: GraphDataset) -> tuple[list, list]:
    """The components of at least 4 nodes, each listed in breadth-first order
    from its lowest id with neighbours visited in ascending id, and each
    one's hop distances between its list positions, which float64 holds
    exactly."""
    pairs = np.asarray(dataset.edges, dtype=np.intp).reshape(-1, 2)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adj = scipy.sparse.csr_array((np.ones(rows.size), (rows, cols)),
                                 shape=(dataset.n, dataset.n))
    adj.sort_indices()  # so a row lists its neighbours in ascending id
    seen = np.zeros(dataset.n, dtype=bool)
    comps, dists = [], []
    for start in range(dataset.n):
        if seen[start]:
            continue
        comp = csgraph.breadth_first_order(adj, start, return_predecessors=False)
        seen[comp] = True
        if comp.size >= 4:
            comps.append(comp)
            dists.append(csgraph.shortest_path(adj[comp][:, comp], unweighted=True))
    return comps, dists


def delta_hyperbolicity(dataset: GraphDataset, mode: str = "exact",
                        samples: int | None = None, seed: int = 0) -> dict:
    """Four-point hyperbolicity over quadruples drawn within components.

    ``exact`` enumerates every quadruple (n <= 60 only); ``sampled`` draws
    ``samples`` distinct quadruples uniformly, falling back to full
    enumeration when they are all requested.  Returns the maximum delta and a
    histogram of quadruple deltas.
    """
    if dataset.n < 4:
        raise ValueError("hyperbolicity needs at least 4 nodes")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and dataset.n > 60:
        raise ValueError("exact mode is limited to 60 nodes; use sampled")
    if mode == "sampled" and (samples is None or samples <= 0):
        raise ValueError("sampled mode needs a positive sample count")

    comps, dists = _component_hops(dataset)
    if not comps:
        raise ValueError("no connected component has 4 nodes")
    totals = [math.comb(len(c), 4) for c in comps]
    total_quads = sum(totals)

    if mode == "exact" or samples >= total_quads:
        quads = [np.fromiter(itertools.combinations(range(comp.size), 4),
                             np.dtype((np.intp, 4)), count=total)
                 for comp, total in zip(comps, totals)]
        count = total_quads
    else:
        rng = np.random.default_rng(seed)
        weights = np.array(totals, dtype=np.float64) / total_quads
        chosen: set = set()
        quads = [[] for _ in comps]
        while len(chosen) < samples:
            ci = int(rng.choice(len(comps), p=weights))
            quad = tuple(sorted(rng.choice(len(comps[ci]), size=4, replace=False)))
            if (ci, quad) not in chosen:
                chosen.add((ci, quad))
                quads[ci].append(quad)
        count = samples
    deltas = np.concatenate([_quad_deltas(dist, np.asarray(q, dtype=np.intp).reshape(-1, 4))
                             for dist, q in zip(dists, quads)])
    values, counts = np.unique(deltas, return_counts=True)
    return {"max_delta": values[-1].item(),
            "histogram": dict(zip(values.tolist(), counts.tolist())),
            "num_quadruples": count}


# ---------------------------------------------------------------------------
# synthetic generators


def _onehot_noise_features(labels: np.ndarray, rng: np.random.Generator,
                           noise: float = 0.05) -> np.ndarray:
    classes = int(labels.max()) + 1
    out = np.zeros((labels.size, classes))
    out[np.arange(labels.size), labels] = 1.0
    return out + noise * rng.standard_normal(out.shape)


def synth_dataset(kind: str, *, depth: int = 3, branching: int = 2,
                  sizes=(20, 20), p_in: float = 0.5, p_out: float = 0.01,
                  width: int = 3, height: int = 3, seed: int = 0) -> GraphDataset:
    """Deterministic synthetic graphs: complete trees, stochastic block
    models, and grid lattices."""
    rng = np.random.default_rng(seed)

    if kind == "tree":
        if depth < 1 or branching < 1:
            raise ValueError("tree needs positive depth and branching")
        edges = []
        levels = [0]
        nodes = [0]
        frontier = [0]
        for level in range(1, depth + 1):
            nxt = []
            for parent in frontier:
                for _ in range(branching):
                    child = len(nodes)
                    nodes.append(child)
                    levels.append(level)
                    edges.append((parent, child))
                    nxt.append(child)
            frontier = nxt
        labels = np.array(levels, dtype=np.int64) % 2
        name = f"tree{depth}x{branching}"

    elif kind == "sbm":
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("sbm needs at least two non-empty blocks")
        if not (0.0 <= p_out <= 1.0 and 0.0 <= p_in <= 1.0):
            raise ValueError("sbm probabilities must lie in [0, 1]")
        labels = np.concatenate([np.full(s, b, dtype=np.int64)
                                 for b, s in enumerate(sizes)])
        n = labels.size
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                p = p_in if labels[u] == labels[v] else p_out
                if rng.random() < p:
                    edges.append((u, v))
        name = "sbm" + "x".join(str(s) for s in sizes)

    elif kind == "grid":
        if width < 1 or height < 1:
            raise ValueError("grid needs positive extents")
        edges = []
        labels = np.zeros(width * height, dtype=np.int64)
        for r in range(height):
            for c in range(width):
                i = r * width + c
                labels[i] = (r + c) % 2
                if c + 1 < width:
                    edges.append((i, i + 1))
                if r + 1 < height:
                    edges.append((i, i + width))
        name = f"grid{width}x{height}"

    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")

    features = _onehot_noise_features(labels, rng)
    train, val, test = _random_masks(labels.size, (0.6, 0.2, 0.2), rng)
    return GraphDataset(name=name, features=features, labels=labels,
                        edges=edges, train_mask=train, val_mask=val,
                        test_mask=test)

"""Dense tensors and a reverse-mode differentiation core.

Computation is expressed as an immutable graph of ``Node`` objects built by the
functions in this module (``affine``, ``tanh``, ``concat``, ...).  A graph is
built once and evaluated many times against ``bindings`` that map parameter
names to arrays; evaluation state lives in a per-call workspace, so concurrent
evaluations of one graph are safe.

Differentiation is graph-to-graph: ``gradient`` returns new ``Node`` graphs
over the same leaves, and every operation's derivative rule is itself built
from graph operations, so gradients of gradients are available to any depth.
All arithmetic is double precision.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Sequence

import numpy as np
import scipy.sparse
import scipy.special

__all__ = [
    "Tensor", "Node", "MlpParams", "SparseMatrix",
    "constant", "parameter",
    "affine", "outer", "solve", "transpose",
    "gather_rows", "scatter_rows", "sparse_matmul",
    "tanh", "sigmoid", "sin", "relu", "rehu", "kappa", "step", "zeros_like",
    "expand", "softmax", "log_softmax",
    "add", "sub", "mul", "scale", "negate", "reduce_sum", "concat", "narrow",
    "forward", "evaluate", "gradient", "gradient_all",
    "check_gradient", "ACTIVATIONS", "all_finite", "frozen_float64",
]


def all_finite(arr) -> bool:
    """Whether every entry of ``arr`` is finite (no NaN, no +-inf).

    A C- or F-contiguous array is first checked with one BLAS pass over its
    sum of squares, which needs no temporary: the sum is finite only if every
    entry is, because NaN and +-inf propagate through it and no term is
    negative.  A non-finite sum also comes from finite entries whose squares
    overflow (|x| above about 1e154), so then, and for any other array, the
    elementwise scan decides.
    """
    arr = np.asarray(arr)
    if arr.flags.c_contiguous or arr.flags.f_contiguous:
        flat = arr.ravel(order="K")
        # vdot, unlike dot, leaves numpy's floating-point error state alone,
        # so an overflowing sum reaches the scan under any np.errstate
        if math.isfinite(np.vdot(flat, flat)):
            return True
    return bool(np.isfinite(arr).all())


def frozen_float64(values) -> np.ndarray:
    """A read-only, C-ordered float64 array holding ``values``.

    An array that is already float64, C-contiguous, read-only and owns its
    data is returned as it is; anything else is copied, so no writable array
    or view the caller keeps can change the result.
    """
    if (type(values) is np.ndarray and values.dtype == np.float64
            and values.flags.c_contiguous and values.flags.owndata
            and not values.flags.writeable):
        return values
    # ascontiguousarray would promote 0-d scalars to shape (1,)
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    arr.flags.writeable = False
    return arr


class Tensor:
    """A dense array of finite double-precision reals.

    Stores values row-major.  Construction rejects NaN/Inf so that bad numbers
    surface where they are produced, not deep inside a later computation.
    The values are copied unless ``frozen_float64`` may adopt them as they are.
    """

    __slots__ = ("array",)

    def __init__(self, values):
        arr = frozen_float64(values)
        if not all_finite(arr):
            raise ValueError("Tensor entries must be finite (got NaN or Inf)")
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple:
        return self.array.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, data={self.array!r})"


def as_array(value) -> np.ndarray:
    """Normalize Tensor / array-like / scalar to a float64 ndarray."""
    if isinstance(value, Tensor):
        return value.array
    return np.asarray(value, dtype=np.float64)


_node_ids = itertools.count()


class Node:
    """One operation in an expression graph.

    Immutable: ``op`` is the operation tag, ``inputs`` the predecessor nodes,
    ``attrs`` any static attributes (constant value, parameter name, slice
    bounds, ...), ``shape`` the statically inferred result shape.
    """

    __slots__ = ("op", "inputs", "attrs", "shape", "nid")

    def __init__(self, op: str, inputs: Sequence["Node"], attrs: dict, shape: tuple):
        self.op = op
        self.inputs = tuple(inputs)
        self.attrs = attrs
        self.shape = tuple(shape)
        self.nid = next(_node_ids)

    def __repr__(self):
        label = self.attrs.get("label") or self.attrs.get("name")
        tag = f" {label!r}" if label else ""
        return f"<Node {self.nid} {self.op}{tag} shape={self.shape}>"


# ---------------------------------------------------------------------------
# graph construction


def constant(value, label: str | None = None) -> Node:
    t = value if isinstance(value, Tensor) else Tensor(value)
    attrs = {"value": t.array}
    if label:
        attrs["label"] = label
    return Node("constant", (), attrs, t.shape)


_ZERO = constant(0.0)  # the operand of every zero fill


def parameter(name: str, shape: Sequence[int]) -> Node:
    """A named leaf bound to a value at evaluation time."""
    return Node("parameter", (), {"name": name}, tuple(shape))


def _check_vec_or_mat(shape, what):
    if len(shape) > 2:
        raise ValueError(f"{what} must be a scalar, vector or matrix, got shape {shape}")


def affine(x: Node, weight: Node, *, label: str | None = None) -> Node:
    """Matrix product ``x @ weight``; a bias is an ``add`` of its own.

    ``x`` may be a vector (one sample) or a matrix (rows are samples);
    ``weight`` may be a matrix or a vector (matrix-vector product).  A
    transposed operand is a ``transpose`` view.
    """
    xs, ws = x.shape, weight.shape
    _check_vec_or_mat(xs, "affine input")
    _check_vec_or_mat(ws, "affine weight")
    if len(xs) == 1 and len(ws) == 1:
        raise ValueError("vector-vector product: use reduce_sum(mul(a, b))")
    if xs[-1] != ws[0]:
        raise ValueError(f"affine inner dimensions differ: {xs} @ {ws}")
    return Node("affine", (x, weight), {"label": label} if label else {}, xs[:-1] + ws[1:])


def outer(u: Node, v: Node) -> Node:
    if len(u.shape) != 1 or len(v.shape) != 1:
        raise ValueError("outer expects two vectors")
    return Node("outer", (u, v), {}, (u.shape[0], v.shape[0]))


def solve(matrix: Node, rhs: Node) -> Node:
    """Solution of ``matrix @ y = rhs`` for a square matrix."""
    ms, rs = matrix.shape, rhs.shape
    if len(ms) != 2 or ms[0] != ms[1]:
        raise ValueError(f"solve needs a square matrix, got {ms}")
    if rs != (ms[0],):
        raise ValueError(f"solve rhs shape {rs} does not match matrix {ms}")
    return Node("solve", (matrix, rhs), {}, rs)


def transpose(x: Node) -> Node:
    """The transposed view of a matrix; ``transpose(transpose(x))`` is ``x``."""
    if len(x.shape) != 2:
        raise ValueError("transpose expects a matrix")
    if x.op == "transpose":
        return x.inputs[0]
    return Node("transpose", (x,), {}, (x.shape[1], x.shape[0]))


def gather_rows(x: Node, indices: Sequence[int]) -> Node:
    """Rows ``x[indices]``; the indices are kept as a read-only array."""
    idx = _index_array(indices, "gather_rows indices")
    if len(x.shape) not in (1, 2):
        raise ValueError("gather_rows expects a vector or matrix")
    n = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        bad = idx[(idx < 0) | (idx >= n)][0]
        raise ValueError(f"gather index {bad} out of range [0, {n})")
    return Node("gather-rows", (x,), {"indices": idx}, (idx.size,) + x.shape[1:])


def scatter_rows(x: Node, indices: Sequence[int], num_rows: int) -> Node:
    """Rows of ``x`` accumulated into a zero array of ``num_rows`` rows."""
    idx = _index_array(indices, "scatter_rows indices")
    if x.shape[0] != idx.size:
        raise ValueError("scatter_rows: one index per input row required")
    return sparse_matmul(x, SparseMatrix(idx, np.arange(idx.size), np.ones(idx.size),
                                         (num_rows, idx.size)))


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype).reshape(-1)
    arr.flags.writeable = False
    return arr


def _index_array(values, what: str) -> np.ndarray:
    """A read-only flat ``intp`` copy of integer ids; a float or bool id
    raises instead of being truncated."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got {arr.dtype}")
    return _frozen(arr, np.intp)


class SparseMatrix:
    """A fixed sparse matrix of ``shape`` in coordinate form, immutable.

    Entry ``k`` adds ``weights[k]`` at ``(rows[k], cols[k])``; repeated
    coordinates sum.  ``S @ x`` (``x`` a vector or matrix) forms each output
    row by adding its entries' terms ``weights[k] * x[cols[k]]`` in entry
    order, starting from +0.0; an empty row is +0.0.  That is bit for bit the
    sum a flat ``np.bincount`` over the entries makes.

    The product runs scipy's CSR kernel on a CSR copy of the entries built
    on first use and kept: rows in order, each row's entries in entry order.
    The kernel starts each output row at +0.0 and adds its terms in stored
    order, so the sum is the one above.  Time is O(nnz * d), and nothing of
    (nnz, d) is allocated.  ``S.T`` is built once, and its ``.T`` is ``S``,
    so a graph's forward products and all of its backward sweeps share two
    CSR copies.  Two threads evaluating at once may both build a copy or a
    transpose; the copies are equal and either one is kept.
    """

    __slots__ = ("rows", "cols", "weights", "shape", "_csr", "_transpose")

    def __init__(self, rows, cols, weights, shape: tuple[int, int]):
        num_rows, num_cols = (int(s) for s in shape)
        rows = _index_array(rows, "SparseMatrix rows")
        cols = _index_array(cols, "SparseMatrix cols")
        weights = _frozen(weights, np.float64)
        if not rows.size == cols.size == weights.size:
            raise ValueError("SparseMatrix: rows, cols and weights differ in length")
        if rows.size and (rows.min() < 0 or rows.max() >= num_rows):
            raise ValueError(f"SparseMatrix row index out of range [0, {num_rows})")
        if cols.size and (cols.min() < 0 or cols.max() >= num_cols):
            raise ValueError(f"SparseMatrix column index out of range [0, {num_cols})")
        if not all_finite(weights):
            raise ValueError("SparseMatrix weights must be finite")
        for name, value in (("rows", rows), ("cols", cols), ("weights", weights),
                            ("shape", (num_rows, num_cols)), ("_csr", None),
                            ("_transpose", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrix is immutable")

    @property
    def T(self) -> "SparseMatrix":
        """The transpose, built on first use; its ``.T`` is this matrix.  It
        shares this matrix's checked, read-only entry arrays."""
        if self._transpose is None:
            t = object.__new__(SparseMatrix)
            for name, value in (("rows", self.cols), ("cols", self.rows),
                                ("weights", self.weights), ("shape", self.shape[::-1]),
                                ("_csr", None), ("_transpose", self)):
                object.__setattr__(t, name, value)
            object.__setattr__(self, "_transpose", t)
        return self._transpose

    def csr(self) -> scipy.sparse.csr_array:
        """The entries as a CSR array: rows in order, each row's entries in
        entry order (a stable sort by row)."""
        if self._csr is None:
            by_row = np.argsort(self.rows, kind="stable")
            indptr = np.zeros(self.shape[0] + 1, dtype=np.intp)
            np.cumsum(np.bincount(self.rows, minlength=self.shape[0]), out=indptr[1:])
            csr = scipy.sparse.csr_array(
                (self.weights[by_row], self.cols[by_row], indptr), shape=self.shape)
            object.__setattr__(self, "_csr", csr)
        return self._csr

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.csr() @ x


def sparse_matmul(x: Node, matrix: SparseMatrix, label: str | None = None) -> Node:
    """Product ``matrix @ x`` with a fixed ``SparseMatrix``.

    ``x`` may be a vector or a matrix.  The graph holds the matrix by
    reference, so nothing dense of the matrix's shape is ever built.  The
    derivative is the same operation with ``matrix.T``.
    """
    if len(x.shape) not in (1, 2):
        raise ValueError("sparse_matmul expects a vector or matrix")
    if matrix.shape[1] != x.shape[0]:
        raise ValueError(f"sparse_matmul: a {matrix.shape} matrix cannot multiply "
                         f"{x.shape[0]} rows")
    attrs = {"matrix": matrix}
    if label:
        attrs["label"] = label
    return Node("sparse-matmul", (x,), attrs, matrix.shape[:1] + x.shape[1:])


def _unary(op: str, x: Node, attrs: dict | None = None) -> Node:
    return Node(op, (x,), attrs or {}, x.shape)


def tanh(x: Node) -> Node:
    return _unary("tanh", x)


def sigmoid(x: Node) -> Node:
    return _unary("sigmoid", x)


def sin(x: Node) -> Node:
    return _unary("sin", x)


def relu(x: Node) -> Node:
    return _unary("relu", x)


def rehu(x: Node) -> Node:
    """Rectified Huber with knee 1: 0 for x<=0, x^2/2 inside (0,1), x-1/2 after."""
    return _unary("rehu", x)


def kappa(x: Node) -> Node:
    """x + x^2/2 on the positive side, exp(x)-1 on the non-positive side: the
    pieces meet with equal value, slope and curvature at 0, so it is convex."""
    return _unary("kappa", x)


def step(x: Node) -> Node:
    """Indicator of x > 0; derivative is zero everywhere."""
    return _unary("step", x)


def zeros_like(x: Node) -> Node:
    """Zeros of x's shape, ``_ZERO`` expanded like ``x``: a leaf that ``x``
    depends on stays in the graph, but no derivative flows back to ``x``, so
    a backward sweep ends here, and ``evaluate`` never computes ``x``."""
    return expand(_ZERO, x.shape, like=x)


def _is_zero_fill(node: Node) -> bool:
    return node.op == "expand" and node.inputs[-1] is _ZERO


def expand(x: Node, shape: Sequence[int], like: Node | None = None,
           column: bool = False) -> Node:
    """``x`` repeated to ``shape`` as a read-only zero-stride view: a scalar
    over every entry, a ``(k,)`` or ``(1, k)`` row over every row of an
    ``(n, k)`` matrix, or with ``column`` an ``(n,)`` column over every column.
    ``like``, when given, is kept as the first input: its history stays in
    the graph, but it is never computed for the view and no derivative flows
    back to it."""
    shape = tuple(shape)
    if column:
        fits = len(shape) == 2 and x.shape == shape[:1]
    else:
        fits = x.shape == () or (len(shape) == 2
                                 and x.shape in (shape[1:], (1, shape[1])))
    if not fits:
        raise ValueError(f"cannot expand shape {x.shape} to {shape}")
    return Node("expand", (x,) if like is None else (like, x), {"column": column}, shape)


def softmax(x: Node) -> Node:
    if len(x.shape) not in (1, 2):
        raise ValueError("softmax expects a vector or matrix")
    return _unary("softmax", x)


def log_softmax(x: Node) -> Node:
    if len(x.shape) not in (1, 2):
        raise ValueError("log_softmax expects a vector or matrix")
    return _unary("log-softmax", x)


def _broadcast_shape(a: tuple, b: tuple) -> tuple:
    # Permitted: equal shapes, scalar with anything, row vector with matrix.
    if a == b:
        return a
    if a == ():
        return b
    if b == ():
        return a
    if len(a) == 2 and b == (a[1],):
        return a
    if len(b) == 2 and a == (b[1],):
        return b
    raise ValueError(f"shapes {a} and {b} do not broadcast")


def add(a: Node, b: Node) -> Node:
    return Node("elementwise-add", (a, b), {}, _broadcast_shape(a.shape, b.shape))


def mul(a: Node, b: Node) -> Node:
    return Node("elementwise-mul", (a, b), {}, _broadcast_shape(a.shape, b.shape))


def sub(a: Node, b: Node) -> Node:
    return Node("elementwise-sub", (a, b), {}, _broadcast_shape(a.shape, b.shape))


def scale(x: Node, factor: float) -> Node:
    factor = float(factor)
    if x.op == "scale" and -1.0 in (factor, x.attrs["factor"]):
        # rounding is symmetric in sign: (x * f) * -1 and (x * -1) * f are x * (-f)
        x, factor = x.inputs[0], x.attrs["factor"] * factor
        if factor == 1.0:
            return x
    if factor == -1.0 and x.op == "elementwise-mul":
        # -(a * b) is (-a) * b exactly, so the sign goes onto the operand of
        # an expanded factor rather than over the whole product
        a, b = x.inputs
        for part in (a, b):
            if part.op == "expand" and not _is_zero_fill(part):
                flipped = expand(negate(part.inputs[-1]), part.shape, column=part.attrs["column"],
                                 like=part.inputs[0] if len(part.inputs) == 2 else None)
                return mul(flipped, b) if part is a else mul(a, flipped)
    return Node("scale", (x,), {"factor": factor}, x.shape)


def negate(x: Node) -> Node:
    return scale(x, -1.0)


def reduce_sum(x: Node, axis: int | None = None) -> Node:
    if axis is None:
        out = ()
    elif len(x.shape) == 2 and axis in (0, 1):
        out = (x.shape[1],) if axis == 0 else (x.shape[0],)
    else:
        raise ValueError(f"cannot sum shape {x.shape} over axis {axis}")
    return Node("sum", (x,), {"axis": axis}, out)


def concat(parts: Sequence[Node], axis: int = -1) -> Node:
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat needs at least one part")
    nd = len(parts[0].shape)
    if any(len(p.shape) != nd for p in parts):
        raise ValueError("concat parts must have equal rank")
    ax = axis % nd if nd else 0
    if nd not in (1, 2):
        raise ValueError("concat supports vectors and matrices")
    other = 1 - ax
    if nd == 2 and any(p.shape[other] != parts[0].shape[other] for p in parts):
        raise ValueError("concat parts disagree on the non-concatenated extent")
    total = sum(p.shape[ax] for p in parts)
    out = (total,) if nd == 1 else (
        (total, parts[0].shape[1]) if ax == 0 else (parts[0].shape[0], total))
    return Node("concat", parts, {"axis": ax}, out)


def narrow(x: Node, start: int, stop: int, axis: int = -1) -> Node:
    """Contiguous slice [start, stop) along one axis; the whole extent is ``x``."""
    nd = len(x.shape)
    if nd not in (1, 2):
        raise ValueError("narrow supports vectors and matrices")
    ax = axis % nd
    extent = x.shape[ax]
    if not (0 <= start <= stop <= extent):
        raise ValueError(f"slice [{start}, {stop}) out of range for extent {extent}")
    if stop - start == extent:
        return x
    out = list(x.shape)
    out[ax] = stop - start
    return Node("slice", (x,), {"start": start, "stop": stop, "axis": ax}, tuple(out))


# ---------------------------------------------------------------------------
# forward evaluation


def _fw_rehu(node, vals):
    # equals 0 / x^2/2 / x-1/2 on the three pieces without evaluating the
    # quadratic outside its piece
    x = vals[0]
    clipped = np.clip(x, 0.0, 1.0)
    return 0.5 * clipped * clipped + np.maximum(x - 1.0, 0.0)


def _fw_kappa(node, vals):
    # polynomial piece only sees the positive part; exponential piece only
    # sees the non-positive part
    x = vals[0]
    pos = np.maximum(x, 0.0)
    return pos + 0.5 * pos * pos + np.expm1(np.minimum(x, 0.0))


def _fw_expand(node, vals):
    x = vals[-1]  # the operand: evaluate never computes the input shaped like
    return np.broadcast_to(x[:, None] if node.attrs["column"] else x, node.shape)


def _fw_softmax(node, vals):
    x = vals[0]
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _fw_log_softmax(node, vals):
    x = vals[0]
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _fw_slice(node, vals):
    s = [slice(None)] * len(vals[0].shape)
    s[node.attrs["axis"]] = slice(node.attrs["start"], node.attrs["stop"])
    return vals[0][tuple(s)]


_FORWARD = {
    "constant": lambda node, vals: node.attrs["value"],
    "affine": lambda node, vals: vals[0] @ vals[1],
    "outer": lambda node, vals: np.outer(vals[0], vals[1]),
    "solve": lambda node, vals: np.linalg.solve(vals[0], vals[1]),
    "transpose": lambda node, vals: vals[0].T,
    "gather-rows": lambda node, vals: vals[0][node.attrs["indices"]],
    "sparse-matmul": lambda node, vals: node.attrs["matrix"] @ vals[0],
    "tanh": lambda node, vals, out=None: np.tanh(vals[0], out=out),
    "sigmoid": lambda node, vals, out=None: scipy.special.expit(vals[0], out=out),
    "sin": lambda node, vals, out=None: np.sin(vals[0], out=out),
    "relu": lambda node, vals, out=None: np.maximum(vals[0], 0.0, out=out),
    "rehu": _fw_rehu,
    "kappa": _fw_kappa,
    "step": lambda node, vals: (vals[0] > 0.0).astype(np.float64),
    "expand": _fw_expand,
    "softmax": _fw_softmax,
    "log-softmax": _fw_log_softmax,
    "elementwise-add": lambda node, vals, out=None: np.add(vals[0], vals[1], out=out),
    "elementwise-sub": lambda node, vals, out=None: np.subtract(vals[0], vals[1], out=out),
    "elementwise-mul": lambda node, vals, out=None: np.multiply(vals[0], vals[1], out=out),
    "scale": lambda node, vals, out=None: np.multiply(vals[0], node.attrs["factor"], out=out),
    "sum": lambda node, vals: np.sum(vals[0], axis=node.attrs["axis"]),
    "concat": lambda node, vals: np.concatenate(vals, axis=node.attrs["axis"]),
    "slice": _fw_slice,
}


# Ops whose output is finite whenever their inputs are.  Every input value in
# an evaluation has been checked, so these outputs need no scan of their own
# and a non-finite value is still reported at the node that produced it.  A
# constant holds a Tensor's array, checked when the Tensor was built.
_FINITE_IF_INPUTS_FINITE = frozenset({
    "constant", "transpose", "slice", "concat", "gather-rows",
    "step", "expand", "relu", "tanh", "sin", "sigmoid",
})
# Ops that numpy ufuncs compute in the calling thread.  From finite inputs a
# non-finite output needs an overflow, invalid or divide-by-zero flag, which
# raises under ``evaluate``'s error state, so these need no scan either.
_FLAGGED = frozenset({
    "elementwise-add", "elementwise-sub", "elementwise-mul", "scale", "sum",
    "softmax", "log-softmax", "rehu", "kappa",
})
_UNSCANNED = _FINITE_IF_INPUTS_FINITE | _FLAGGED


def _bad_rows(val: np.ndarray) -> str:
    """Offending row indices of a non-finite array (rows are graph vertices
    in batched evaluation)."""
    arr = np.asarray(val)
    if arr.ndim < 1:
        return ""
    bad = ~np.isfinite(arr)
    while bad.ndim > 1:
        bad = bad.any(axis=-1)
    rows = np.flatnonzero(bad)[:8].tolist()
    return f" (rows {rows})" if rows else ""


def _operands(node: Node) -> tuple:
    # an expand reads only its last input, never the one it is shaped like
    return node.inputs[-1:] if node.op == "expand" else node.inputs


def _reachable(outputs: Sequence[Node], inputs=_operands,
               stop: frozenset = frozenset()) -> list[Node]:
    """The nodes reachable from the outputs through ``inputs(node)``, by
    ascending ``nid``; ``stop`` nodes are kept but not expanded.  Each input
    is built before its consumer, so this is always a topological order."""
    reached: dict[int, Node] = {}
    stack = list(outputs)
    while stack:
        node = stack.pop()
        if node.nid not in reached:
            reached[node.nid] = node
            if node.nid not in stop:
                stack.extend(inputs(node))
    return [reached[nid] for nid in sorted(reached)]


_LEAVES = frozenset({"constant", "parameter"})
_VIEWS = frozenset({"expand", "transpose", "slice"})
# one elementwise pass: cheap enough to drop and run again
_ONE_PASS = frozenset({"elementwise-add", "elementwise-sub", "elementwise-mul", "scale"})
# a view is never dropped, but it may run again for a moment as the operand
# of a dropped value
_RECOMPUTABLE = _VIEWS | _ONE_PASS
# one ufunc call, which may write into the array of an operand dying at it
_IN_PLACE = _ONE_PASS | {"tanh", "sin", "sigmoid", "relu"}


def _plan(order: list[Node], pinned: set) -> tuple[dict, dict]:
    """When ``evaluate`` frees values, and which ones it runs a second time.

    Worked out from the node shapes before anything is computed.  A node is
    freed after its last consumer; leaves are never freed and outputs are
    kept.  A sweep of live bytes, in which views and leaves own none and
    every other node ``prod(shape) * 8``, finds the peak.  A value of one
    elementwise pass that is made before the peak and read on both sides of
    it is dropped after its last reader before the peak, if no view of it
    outlives the peak, and runs again before its first reader after it, or
    earlier where another such value needs it.  Each of its operands must
    then be live, a leaf, or cheap and recomputable in the same way for
    that moment only; otherwise the value is kept.  A view frees nothing
    its base does not, so it is never dropped and lives at least as
    long as its base, and a base lives until the last reader of any of its
    views: a base with a view is kept across the peak.

    Returns ``(free, redo)``: ``free[i]`` lists the ids of the nodes freed
    after position ``i`` has run, and ``redo[i]`` is ``(again, transient)``,
    the nodes run again just before position ``i``, operands first, and the
    ids of those among them freed right after.
    """
    n = len(order)
    at = {node.nid: i for i, node in enumerate(order)}
    uses: list[list[int]] = [[] for _ in order]
    for i, node in enumerate(order):
        for inp in _operands(node):
            uses[at[inp.nid]].append(i)
    # the last position that reads each value; leaves and outputs outlive
    # the run (every other node has a reader, or it would not be here)
    last = [n if node.nid in pinned or node.op in _LEAVES else u[-1]
            for node, u in zip(order, uses)]
    for i, node in enumerate(order):
        if node.op in _VIEWS:  # it frees nothing its base does not
            last[i] = max(last[i], last[at[_operands(node)[0].nid]])
    for i in reversed(range(n)):  # and its base's bytes live while it is read
        if order[i].op in _VIEWS:
            base = at[_operands(order[i])[0].nid]
            last[base] = max(last[base], last[i])

    change = [0] * (n + 2)
    for i, node in enumerate(order):
        if node.op not in _VIEWS and node.op not in _LEAVES:
            size = 8 * math.prod(node.shape)
            change[i] += size
            change[last[i] + 1] -= size
    live = top = peak = 0
    for i in range(n):
        live += change[i]
        if live > top:
            top, peak = live, i

    def operands(i: int) -> list[int]:
        return [at[inp.nid] for inp in _operands(order[i])]

    def ready(j: int, f: int, transient: list | None) -> bool:
        """Whether value ``j`` can be had just before position ``f``: it
        lives until ``f`` (a dropped value is brought back by then), or
        it is cheap and runs again for that moment, onto ``transient``,
        from values that can be had."""
        if last[j] >= f:
            return True
        if (order[j].op not in _RECOMPUTABLE
                or not all(ready(k, f, transient) for k in operands(j))):
            return False
        if transient is not None:
            transient.append(j)
        return True

    back: dict[int, int] = {}  # dropped value -> where it runs again
    free: dict[int, list[int]] = {}
    for i in range(peak):
        u = uses[i]
        if last[i] == n or not u[0] < peak < u[-1] or order[i].op not in _ONE_PASS:
            continue
        k = bisect.bisect_right(u, peak)
        if (u[k - 1] < peak and all(ready(j, u[k], None) for j in operands(i))
                and not any(order[p].op in _VIEWS and last[p] > peak
                            for p in u[:k])):
            back[i] = u[k]
            free.setdefault(u[k - 1], []).append(order[i].nid)

    redo: dict[int, tuple[set[int], set[int]]] = {}
    for i in sorted(back, reverse=True):  # readers before their operands
        f = back[i]
        transient: list[int] = []
        needed = operands(i)
        for j in needed:
            ready(j, f, transient)
        for t in transient:
            needed += operands(t)
        for j in needed:
            if j in back and last[j] >= f:
                back[j] = min(back[j], f)  # read here, so back by now
        again, gone = redo.setdefault(f, (set(), set()))
        again.update(transient, (i,))
        gone.update(transient)

    for i, end in enumerate(last):
        if end < n:
            free.setdefault(end, []).append(order[i].nid)
    return free, {f: ([order[j] for j in sorted(again)], [order[j].nid for j in gone])
                  for f, (again, gone) in redo.items()}


def _dying_operand(node: Node, vals: list, dead) -> np.ndarray | None:
    """The array of an operand of ``node`` that ``node`` may write its value
    into, or None.  The operand is in ``dead``, the ids freed right after
    ``node``, so it is no leaf and no output; its array has the node's
    shape, owns its data (so it is no view), is writable and shares no
    memory with another operand (the same array twice is allowed).  No live
    value reads the array afterwards: every op but a leaf or a view returns
    an array of its own, and a view dies with its base."""
    for inp, val in zip(node.inputs, vals):
        if (inp.nid in dead and val.shape == node.shape
                and val.base is None and val.flags.writeable
                and not any(v is not val and np.may_share_memory(val, v) for v in vals)):
            return val
    return None


def _run(node: Node, values: dict, dead=()) -> np.ndarray:
    vals = [values[i.nid] for i in _operands(node)]
    rule = _FORWARD[node.op]
    out = _dying_operand(node, vals, dead) if dead and node.op in _IN_PLACE else None
    try:
        if out is None:
            val = np.asarray(rule(node, vals), dtype=np.float64)
        else:
            val = rule(node, vals, out=out)
        if node.op in _UNSCANNED:
            return val
    except FloatingPointError:
        if out is not None:
            # numpy checks the flags after the whole loop, so the buffer
            # holds what a second run would give; its operand is gone
            val = out
        else:
            # the flag may come from a value that ends finite (the softmax of
            # a row spanning +-1e308) or from a BLAS thread: run again and scan
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                val = np.asarray(rule(node, vals), dtype=np.float64)
    if not all_finite(val):
        raise FloatingPointError(f"non-finite intermediate at {node!r}"
                                 f"{_bad_rows(val)}{_whereabouts(node)}")
    return val


def _whereabouts(node: Node) -> str:
    """Where ``node`` sits, by the labels of its nearest ancestors: the
    network layer (a labelled ``affine``) it is in, if that is nearer, and
    the nearest other labelled node it comes after, such as a solver state
    ``layer0.field q after step 2``."""
    layer = None
    seen, frontier = {node.nid}, list(node.inputs)
    while frontier:
        deeper = []
        for inp in frontier:
            if inp.nid in seen:
                continue
            seen.add(inp.nid)
            label = inp.attrs.get("label")
            if label and inp.op != "affine":
                return (f" in {layer!r}" if layer else "") + f" after {label!r}"
            layer = layer or label
            deeper.extend(inp.inputs)
        frontier = deeper
    return f" in {layer!r}" if layer else ""


def evaluate(outputs, bindings=None):
    """Evaluate one node or a sequence of nodes under the given bindings.

    Nodes run in construction order.  A derivative rule builds each adjoint
    together with the products that consume it, so an adjoint is used up
    right after it is made.  Values of interior nodes are cached in a
    per-call workspace and freed as soon as their last consumer has run.

    Before anything runs, ``_plan`` finds from the node shapes the position
    where the most bytes are live.  A value of one elementwise pass
    (``add``, ``sub``, ``mul``, ``scale``) that is read on both sides of
    that peak is freed before it and computed again after it, by
    the same numpy call on the same input bits, so the outputs do not
    change; in a training step these are the tanh slopes ``1 - t*t`` and
    their products with the field's adjoint.  Outputs are never dropped.

    An op whose rule is one ufunc call (``_IN_PLACE``: ``add``, ``sub``,
    ``mul``, ``scale``, ``tanh``, ``sin``, ``sigmoid``, ``relu``) writes its
    value into the array of an operand freed right after it, if that array
    has the node's shape, owns its data and overlaps no other operand: the
    same ufunc loop on the same input bits, so the outputs do not change.

    An ``expand`` (a ``zeros_like`` fill is one) needs only its operand: it
    never computes the input it is shaped like, and a leaf that only such
    inputs reach needs no binding.  An ``expand`` is a read-only zero-stride
    view, so an output that is one comes back as an array of its own.  A
    non-finite binding or intermediate value raises ``FloatingPointError``
    naming the leaf, or the node that produced it and its nearest labelled
    ancestors.  The walk runs under one ``np.errstate`` that raises on the
    flags guarding the ufunc ops of ``_FLAGGED``; other ops are scanned.  A
    node that raises runs again with the flags ignored, and is reported only
    if that value is not finite.  A node that wrote into an operand cannot
    run again; numpy finishes the loop before it checks the flags, so its
    buffer already holds that value and is scanned instead.
    """
    single = isinstance(outputs, Node)
    outs = [outputs] if single else list(outputs)
    bindings = bindings or {}
    order = _reachable(outs)
    free, redo = _plan(order, {o.nid for o in outs})

    values: dict[int, np.ndarray] = {}
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for i, node in enumerate(order):
            dead = free.get(i, ())
            if i in redo:
                again, transient = redo[i]
                for other in again:
                    values[other.nid] = _run(other, values)
                for nid in transient:
                    del values[nid]
            if node.op == "parameter":
                name = node.attrs["name"]
                if name not in bindings:
                    raise ValueError(f"unbound leaf {name!r}")
                val = as_array(bindings[name])
                if val.shape != node.shape:
                    raise ValueError(
                        f"binding for {name!r} has shape {val.shape}, expected {node.shape}")
                if not all_finite(val):
                    raise FloatingPointError(f"non-finite value bound to {name!r}")
            else:
                val = _run(node, values, dead)
            values[node.nid] = val
            for nid in dead:
                del values[nid]

    result = [np.array(values[o.nid]) if o.op == "expand" else values[o.nid]
              for o in outs]
    return result[0] if single else result


def forward(f: Node, bindings=None) -> Tensor:
    """Evaluate an expression graph and return its value."""
    return Tensor(evaluate(f, bindings))


# ---------------------------------------------------------------------------
# derivative rules (graph-to-graph)


def _reduce_to_shape(g: Node, shape: tuple) -> Node:
    """Sum a broadcast adjoint back down to an operand's shape."""
    if g.shape == shape:
        return g
    if shape == ():
        return reduce_sum(g)
    if len(g.shape) == 2 and shape == (g.shape[1],):
        return reduce_sum(g, axis=0)
    raise AssertionError(f"cannot reduce {g.shape} to {shape}")


def _vjp_affine(node, g):
    # y = x @ w: x_bar = g w^T and w_bar = x^T g, or outer products where an
    # operand is a vector
    x, w = node.inputs
    if len(w.shape) == 1:
        gx = outer(g, w)
    elif (len(x.shape) == 2 and g.op == "expand" and g.inputs[-1].shape == ()
          and g.shape[1] == 1):
        # an expanded scalar column times a (1, k) row: with one term per
        # entry, every row of the product is the scalar times that row
        row = transpose(w)
        gx = expand(mul(g.inputs[-1], row), (g.shape[0], row.shape[1]),
                    like=g.inputs[0] if len(g.inputs) == 2 else None)
    else:
        gx = affine(g, transpose(w))
    return [gx, outer(x, g) if len(x.shape) == 1 else affine(transpose(x), g)]


def _vjp_solve(node, g):
    # y = M^{-1} v  =>  v_bar = M^{-T} g,  M_bar = -v_bar y^T
    vbar = solve(transpose(node.inputs[0]), g)
    return [negate(outer(vbar, node)), vbar]


def _vjp_softmax(node, g):
    s = node
    minus_t = negate(reduce_sum(mul(g, s), axis=1 if len(node.shape) == 2 else None))
    if len(node.shape) == 2:
        minus_t = expand(minus_t, node.shape, column=True)
    return [mul(s, add(g, minus_t))]


def _vjp_log_softmax(node, g):
    s = softmax(node.inputs[0])
    t = reduce_sum(g, axis=1 if len(node.shape) == 2 else None)
    if len(node.shape) == 2:
        t = expand(t, node.shape, column=True)
    return [sub(g, mul(s, t))]


def _vjp_sum(node, g):
    x = node.inputs[0]
    if node.attrs["axis"] == 1:
        return [expand(g, x.shape, column=True)]
    # scalar or row adjoint broadcasts back over the summed entries
    return [expand(g, x.shape, like=x)]


def _vjp_expand(node, g):
    # a BLAS product with ones for a column or a (1, k) row, a sum for a
    # scalar or a (k,) row: the reductions that the rules of a materialised
    # broadcast (ones products, zero fill plus operand) make, bit for bit
    x = node.inputs[-1]
    if x is _ZERO:
        return [None, None]  # a zero fill
    if node.attrs["column"]:
        gx = affine(g, constant(np.ones(node.shape[1])))
    elif len(x.shape) == 2:
        gx = affine(constant(np.ones((1, node.shape[0]))), g)
    else:
        gx = _reduce_to_shape(g, x.shape)
    return [None, gx] if len(node.inputs) == 2 else [gx]


def _vjp_slice(node, g):
    x = node.inputs[0]
    ax, start, stop = node.attrs["axis"], node.attrs["start"], node.attrs["stop"]
    parts = []
    if start > 0:
        parts.append(zeros_like(narrow(x, 0, start, axis=ax)))
    parts.append(g)
    if stop < x.shape[ax]:
        parts.append(zeros_like(narrow(x, stop, x.shape[ax], axis=ax)))
    return [concat(parts, axis=ax) if len(parts) > 1 else g]


def _vjp_concat(node, g):
    ax = node.attrs["axis"]
    grads, offset = [], 0
    for part in node.inputs:
        extent = part.shape[ax]
        grads.append(narrow(g, offset, offset + extent, axis=ax))
        offset += extent
    return grads


def _tanh_slope(node: Node) -> Node:
    """``1 - t^2`` of a tanh node ``t``, built once and kept in its attrs, so
    an energy's field and the training sweep through that field share it."""
    if "slope" not in node.attrs:
        node.attrs["slope"] = sub(constant(1.0), mul(node, node))
    return node.attrs["slope"]


def _vjp_kappa(node, g):
    x = node.inputs[0]
    on_plus = step(x)
    plus = mul(on_plus, add(x, constant(1.0)))
    minus = mul(sub(constant(1.0), on_plus), add(node, constant(1.0)))
    return [mul(g, add(plus, minus))]


_VJP = {
    "affine": _vjp_affine,
    "outer": lambda node, g: [affine(g, node.inputs[1]),
                              affine(node.inputs[0], g)],
    "solve": _vjp_solve,
    "transpose": lambda node, g: [transpose(g)],
    "gather-rows": lambda node, g: [
        scatter_rows(g, node.attrs["indices"], node.inputs[0].shape[0])],
    "sparse-matmul": lambda node, g: [sparse_matmul(g, node.attrs["matrix"].T)],
    "tanh": lambda node, g: [mul(g, _tanh_slope(node))],
    "sigmoid": lambda node, g: [mul(g, mul(node, sub(constant(1.0), node)))],
    "sin": lambda node, g: [mul(g, sin(add(node.inputs[0], constant(math.pi / 2.0))))],
    "relu": lambda node, g: [mul(g, step(node.inputs[0]))],
    "rehu": lambda node, g: [mul(g, sub(relu(node.inputs[0]),
                                        relu(add(node.inputs[0], constant(-1.0)))))],
    "kappa": _vjp_kappa,
    "step": lambda node, g: [None],
    "expand": _vjp_expand,
    "softmax": _vjp_softmax,
    "log-softmax": _vjp_log_softmax,
    "elementwise-add": lambda node, g: [
        _reduce_to_shape(g, node.inputs[0].shape),
        _reduce_to_shape(g, node.inputs[1].shape)],
    "elementwise-sub": lambda node, g: [
        _reduce_to_shape(g, node.inputs[0].shape),
        negate(_reduce_to_shape(g, node.inputs[1].shape))],
    "elementwise-mul": lambda node, g: [
        _reduce_to_shape(mul(g, node.inputs[1]), node.inputs[0].shape),
        _reduce_to_shape(mul(g, node.inputs[0]), node.inputs[1].shape)],
    "scale": lambda node, g: [scale(g, node.attrs["factor"])],
    "sum": _vjp_sum,
    "concat": _vjp_concat,
    "slice": _vjp_slice,
}


def _add_adjoints(a: Node, b: Node) -> Node:
    """``a + b`` for two adjoint contributions.  Two concats with the same
    split add part by part and a zero fill adds nothing, so the
    zero-padded adjoints of two slices of one array become one concat of
    their parts, with no half-zero array built."""
    if (a.op == b.op == "concat" and a.attrs["axis"] == b.attrs["axis"]
            and [p.shape for p in a.inputs] == [p.shape for p in b.inputs]):
        return concat([_add_adjoints(p, q) for p, q in zip(a.inputs, b.inputs)],
                      axis=a.attrs["axis"])
    if _is_zero_fill(a):
        return b
    if _is_zero_fill(b):
        return a
    if b.op == "scale" and b.attrs["factor"] == -1.0:
        return sub(a, b.inputs[0])  # a + (-b) is a - b exactly
    return add(a, b)


def gradient_all(f: Node, wrts: Sequence[Node], allow_unused: bool = False,
                 stop_at: Sequence[Node] = ()) -> list[Node]:
    """Adjoints of a scalar graph with respect to several nodes, one sweep.

    The returned nodes are ordinary expression graphs over the same leaves,
    so they can be differentiated again.  ``stop_at`` nodes are treated as
    independent inputs: the sweep collects their adjoints without descending
    into their history (the partial-derivative view a vector field needs when
    its state is itself a computed quantity).
    """
    if f.shape != ():
        raise ValueError(f"gradient target must be scalar, got shape {f.shape}")
    stop = frozenset(n.nid for n in stop_at)
    # every input counts, so a leaf behind a ``like`` input is present; the
    # sweep runs in descending id, the reverse of evaluation, and so adds a
    # node's adjoint contributions in descending id of their consumers
    order = _reachable([f], lambda node: node.inputs, stop)
    in_graph = {n.nid for n in order}
    adjoint: dict[int, Node] = {f.nid: constant(1.0)}
    for node in reversed(order):
        g = adjoint.get(node.nid)
        if g is None or node.nid in stop or node.op in ("constant", "parameter"):
            continue
        for inp, contrib in zip(node.inputs, _VJP[node.op](node, g)):
            if contrib is None:
                continue
            prev = adjoint.get(inp.nid)
            adjoint[inp.nid] = contrib if prev is None else _add_adjoints(prev, contrib)

    # Distinct parameter nodes with one name are one logical leaf (bindings
    # are by name), so their adjoints sum.
    by_name: dict[str, Node] = {}
    names_in_graph: set[str] = set()
    for node in order:
        if node.op != "parameter":
            continue
        name = node.attrs["name"]
        names_in_graph.add(name)
        got = adjoint.get(node.nid)
        if got is not None:
            prev = by_name.get(name)
            by_name[name] = got if prev is None else _add_adjoints(prev, got)

    results = []
    for wrt in wrts:
        if wrt.op == "parameter":
            name = wrt.attrs["name"]
            got = by_name.get(name)
            present = name in names_in_graph
        else:
            got = adjoint.get(wrt.nid)
            present = wrt.nid in in_graph
        if got is None:
            if present or allow_unused:
                got = zeros_like(wrt)  # unused, or reached only through
                                       # zero-derivative operations
            else:
                raise ValueError(f"leaf {wrt!r} does not appear in the graph")
        results.append(got)
    return results


def gradient(f: Node, wrt: Node) -> Node:
    """Expression graph for the derivative of scalar ``f`` w.r.t. one leaf."""
    return gradient_all(f, [wrt])[0]


def relative_error(a, b, floor: float = 1e-8) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))


def finite_difference(f: Node, x: Node, bindings, fd_step: float) -> np.ndarray:
    """Central differences of a scalar graph w.r.t. one bound leaf."""
    name = x.attrs.get("name")
    if x.op != "parameter" or name is None:
        raise ValueError("finite differences need a named parameter leaf")
    base = as_array(bindings[name]).copy()
    out = np.zeros_like(base)
    flat = base.reshape(-1)
    pert = dict(bindings)
    for i in range(flat.size):
        for sgn in (1.0, -1.0):
            shifted = base.copy().reshape(-1)
            shifted[i] += sgn * fd_step
            pert[name] = shifted.reshape(base.shape)
            out.reshape(-1)[i] += sgn * float(evaluate(f, pert))
    return out / (2.0 * fd_step)


def check_gradient(f: Node, x: Node, bindings, fd_step: float = 1e-5,
                   tol: float = 1e-6) -> dict:
    """Compare the reverse-mode gradient against central differences:
    ``{"max_relative_error", "tolerance", "passed"}``."""
    if fd_step <= 0.0:
        raise ValueError("nonpositive step")
    if tol <= 0.0:
        raise ValueError("nonpositive tolerance")
    analytic = evaluate(gradient(f, x), bindings)
    numeric = finite_difference(f, x, bindings, fd_step)
    worst = relative_error(analytic, numeric)
    return {"max_relative_error": worst, "tolerance": tol, "passed": worst <= tol}


# ---------------------------------------------------------------------------
# multilayer perceptron parameters

ACTIVATIONS = {
    "tanh": tanh,
    "sigmoid": sigmoid,
    "sin": sin,
    "relu": relu,
    "rehu": rehu,
    "kappa": kappa,
}


class MlpParams:
    """Weights of a fully connected network.

    ``layers`` is an ordered list of ``(weight, bias, activation)`` where
    ``weight`` is (out, in), ``bias`` is (out,) and ``activation`` is an
    activation tag applied after the layer, or None.  Arrays stay writable:
    the optimizer updates them in place between evaluations.
    """

    def __init__(self, layers):
        self.layers = []
        for weight, bias, act in layers:
            w = np.array(weight, dtype=np.float64)
            b = np.array(bias, dtype=np.float64)
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"bad layer shapes: weight {w.shape}, bias {b.shape}")
            if act is not None and act not in ACTIVATIONS:
                raise ValueError(f"unknown activation tag {act!r}")
            self.layers.append((w, b, act))
        for (w_prev, _, _), (w_next, _, _) in zip(self.layers, self.layers[1:]):
            if w_next.shape[1] != w_prev.shape[0]:
                raise ValueError(
                    f"layer dimensions do not chain: {w_prev.shape} then {w_next.shape}")

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @classmethod
    def init(cls, dims: Sequence[int], activations: Sequence[str | None],
             rng: np.random.Generator) -> "MlpParams":
        """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation slot per layer")
        layers = []
        for din, dout, act in zip(dims, dims[1:], activations):
            bound = 1.0 / math.sqrt(din)
            layers.append((rng.uniform(-bound, bound, size=(dout, din)), np.zeros(dout), act))
        return cls(layers)

    def param_items(self, name: str):
        """Ordered (binding-name, array) pairs; arrays are the live storage."""
        items = []
        for i, (w, b, _) in enumerate(self.layers):
            items.append((f"{name}.w{i}", w))
            items.append((f"{name}.b{i}", b))
        return items

    def bindings(self, name: str) -> dict:
        return dict(self.param_items(name))

    def graph(self, x: Node | Sequence[Node], name: str) -> Node:
        """Forward graph with parameter leaves named ``{name}.w{i}`` / ``.b{i}``.

        ``x`` is the input, or a sequence of parts whose last axes join into
        the input.  Each layer multiplies each of its parts by that part's
        column block of the weight, adds the products and then the bias, so
        a joined input is never built, and a part's adjoint holds only its
        own columns.  After the first layer the one part is the previous
        layer's output.
        """
        parts = [x] if isinstance(x, Node) else list(x)
        if sum(part.shape[-1] for part in parts) != self.input_dim:
            raise ValueError(f"inputs of shapes {[part.shape for part in parts]} "
                             f"do not fit {self.input_dim} input columns")
        for i, (w, b, act) in enumerate(self.layers):
            wl = parameter(f"{name}.w{i}", w.shape)
            bl = parameter(f"{name}.b{i}", b.shape)
            label = f"{name} layer {i}"
            out, start = None, 0
            for part in parts:
                stop = start + part.shape[-1]
                term = affine(part, transpose(narrow(wl, start, stop)), label=label)
                out = term if out is None else add(out, term)
                start = stop
            out = add(out, bl)
            parts = [ACTIVATIONS[act](out) if act is not None else out]
        return parts[0]

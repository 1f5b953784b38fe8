"""Tensor invariants, forward evaluation, and differentiation to depth two."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from hamgnn import engine as eg
from hamgnn import graphdata as gd
from hamgnn import hamiltonian as ham
from hamgnn import model as md
from hamgnn.model import ModelConfig
from oracles import LOGISTIC_GRID, three_pass_logistic


# ---------------------------------------------------------------------------
# Tensor


def test_tensor_shape_and_flat_data():
    t = eg.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.array.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        eg.Tensor([1.0, float("nan")])
    with pytest.raises(ValueError, match="finite"):
        eg.Tensor([float("inf")])


def test_tensor_is_immutable():
    t = eg.Tensor([1.0])
    with pytest.raises(AttributeError):
        t.array = np.zeros(1)
    with pytest.raises(ValueError):
        t.array[0] = 2.0


# ---------------------------------------------------------------------------
# forward


def test_tanh_at_origin():
    x = eg.parameter("x", ())
    assert eg.forward(eg.tanh(x), {"x": 0.0}).array == 0.0


def test_rehu_three_pieces():
    x = eg.parameter("x", (3,))
    out = eg.forward(eg.rehu(x), {"x": [-1.0, 0.5, 2.0]})
    assert out.array.tolist() == [0.0, 0.125, 1.5]


def test_kappa_values():
    x = eg.parameter("x", (2,))
    out = eg.forward(eg.kappa(x), {"x": [1.0, -1.0]})
    assert out.array[0] == 1.5
    assert out.array[1] == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-15)


def test_forward_unbound_leaf():
    x = eg.parameter("x", (2,))
    with pytest.raises(ValueError, match="unbound leaf 'x'"):
        eg.forward(eg.tanh(x), {})


def test_forward_shape_mismatch():
    x = eg.parameter("x", (2,))
    with pytest.raises(ValueError, match="shape"):
        eg.forward(eg.tanh(x), {"x": [1.0, 2.0, 3.0]})


def test_forward_non_finite_reports_node_identity():
    big = eg.constant(1e308)
    prod = eg.mul(big, big)
    with pytest.raises(FloatingPointError, match="Node"):
        eg.evaluate(prod)


def test_affine_is_a_product_of_two_operands():
    x, w, b = eg.parameter("x", (5, 3)), eg.parameter("w", (3, 4)), eg.parameter("b", (4,))
    with pytest.raises(TypeError):
        eg.affine(x, w, b)  # a bias is an add of its own
    assert eg.affine(x, w, label="layer").inputs == (x, w)


def test_a_full_extent_narrow_is_its_input():
    x = eg.parameter("x", (3, 4))
    assert eg.narrow(x, 0, 4) is x and eg.narrow(x, 0, 3, axis=0) is x
    part = eg.narrow(x, 0, 2)
    assert part.op == "slice" and part.shape == (3, 2)


def test_construction_rejects_bad_shapes():
    x = eg.parameter("x", (2,))
    w = eg.parameter("w", (3, 4))
    with pytest.raises(ValueError, match="inner dimensions"):
        eg.affine(x, w)
    with pytest.raises(ValueError):
        eg.reduce_sum(eg.mul(x, eg.parameter("y", (3,))))
    with pytest.raises(ValueError):
        eg.narrow(x, 1, 5)


# ---------------------------------------------------------------------------
# grad


def test_grad_polynomial():
    # f(x) = x1^2 x2 at (2, 3) -> (12, 4)
    x = eg.parameter("x", (2,))
    x1, x2 = eg.narrow(x, 0, 1), eg.narrow(x, 1, 2)
    f = eg.reduce_sum(eg.mul(eg.mul(x1, x1), x2))
    assert eg.evaluate(eg.gradient(f, x), {"x": [2.0, 3.0]}).tolist() == [12.0, 4.0]


def test_grad_half_square_norm_is_identity():
    x = eg.parameter("x", (2,))
    f = eg.scale(eg.reduce_sum(eg.mul(x, x)), 0.5)
    assert eg.evaluate(eg.gradient(f, x), {"x": [3.0, 4.0]}).tolist() == [3.0, 4.0]


def test_grad_nested_depth_two():
    # f = ||x||^4 / 4, h = ||grad f||^2 = ||x||^6, grad h = 6 ||x||^4 x.
    # At (1, 0) that is (6, 0); confirmed against finite differences of h.
    x = eg.parameter("x", (2,))
    sq = eg.reduce_sum(eg.mul(x, x))
    f = eg.scale(eg.mul(sq, sq), 0.25)
    gf = eg.gradient(f, x)
    h = eg.reduce_sum(eg.mul(gf, gf))
    got = eg.evaluate(eg.gradient(h, x), {"x": [1.0, 0.0]})
    assert got == pytest.approx([6.0, 0.0], abs=1e-12)
    rep = eg.check_gradient(h, x, {"x": np.array([1.0, 0.0])}, 1e-6, 1e-6)
    assert rep["passed"]


def test_grad_requires_scalar_target():
    x = eg.parameter("x", (2,))
    with pytest.raises(ValueError, match="scalar"):
        eg.evaluate(eg.gradient(eg.tanh(x), x), {"x": [0.0, 0.0]})


def test_grad_leaf_not_in_graph():
    x = eg.parameter("x", (2,))
    y = eg.parameter("y", (2,))
    f = eg.reduce_sum(eg.mul(x, x))
    with pytest.raises(ValueError, match="does not appear"):
        eg.evaluate(eg.gradient(f, y), {"x": [1.0, 1.0], "y": [1.0, 1.0]})


def test_grad_through_zero_derivative_op_is_zero():
    x = eg.parameter("x", (3,))
    f = eg.reduce_sum(eg.step(x))
    got = eg.evaluate(eg.gradient(f, x), {"x": [0.3, -0.2, 1.0]})
    assert got.tolist() == [0.0, 0.0, 0.0]


def test_gradient_through_zeros_like_is_zero_and_ends_the_sweep():
    x = eg.parameter("x", (2, 3))
    zeros = eg.zeros_like(eg.tanh(x))
    assert zeros.inputs[0].op == "tanh"
    got = eg.evaluate(zeros, {"x": -np.ones((2, 3))})
    assert got.shape == (2, 3) and not np.signbit(got).any() and not got.any()
    # x is still in the graph, so it needs no allow_unused; its adjoint is a
    # zero fill of its own, not a chain of zeros back through tanh
    (g,) = eg.gradient_all(eg.reduce_sum(zeros), [x])
    assert g.op == "expand" and g.inputs == (x, eg._ZERO)
    assert eg.evaluate(g, {"x": -np.ones((2, 3))}).tolist() == [[0.0] * 3] * 2
    f = eg.reduce_sum(eg.add(zeros, eg.mul(x, x)))
    got = eg.evaluate(eg.gradient(f, x), {"x": np.full((2, 3), 1.5)})
    assert got.tolist() == [[3.0] * 3] * 2


def test_same_name_leaves_share_gradient():
    # two parameter nodes with one name are one logical leaf
    x1 = eg.parameter("x", (2,))
    x2 = eg.parameter("x", (2,))
    f = eg.add(eg.reduce_sum(eg.mul(x1, x1)), eg.reduce_sum(x2))
    got = eg.evaluate(eg.gradient(f, x1), {"x": [1.0, 2.0]})
    assert got.tolist() == [3.0, 5.0]


# ---------------------------------------------------------------------------
# check_gradient


def test_check_gradient_quadratic():
    x = eg.parameter("x", (4,))
    f = eg.scale(eg.reduce_sum(eg.mul(x, x)), 0.5)
    rep = eg.check_gradient(f, x, {"x": np.array([0.1, -2.0, 3.0, 0.0])},
                            fd_step=1e-6, tol=1e-6)
    assert rep["passed"]


def test_check_gradient_convex_constrained_mlp(rng):
    cfg = ModelConfig(hidden_dim=2, net_hidden=6, variant="convex")
    net = ham.ConvexHamiltonian.init_fields(cfg, rng)["energy_net"]
    x = eg.parameter("x", (4,))
    f = eg.reduce_sum(net.graph(x, "net"))
    binds = {"x": rng.normal(size=4), **net.bindings("net")}
    assert eg.check_gradient(f, x, binds, fd_step=1e-6, tol=1e-5)["passed"]


def test_check_gradient_rejects_nonpositive_step():
    x = eg.parameter("x", (2,))
    f = eg.reduce_sum(x)
    with pytest.raises(ValueError, match="nonpositive step"):
        eg.check_gradient(f, x, {"x": [0.0, 0.0]}, fd_step=0.0)


@pytest.mark.parametrize("shape", [(5,), (3, 4)])
def test_check_gradient_softmax(rng, shape):
    x = eg.parameter("x", shape)
    f = eg.reduce_sum(eg.mul(eg.softmax(x), eg.constant(rng.normal(size=shape))))
    binds = {"x": rng.normal(size=shape)}
    assert eg.check_gradient(f, x, binds)["passed"]
    g = eg.gradient(f, x)
    assert eg.check_gradient(eg.reduce_sum(eg.mul(g, g)), x, binds, tol=1e-5)["passed"]


def test_gradient_adds_a_shared_inputs_contributions_in_descending_consumer_id():
    # three consumers of x that the total reads in another order than they
    # were built; the sweep runs in descending id, so x's adjoint is
    # (w3 + w2) + w1, whose rounding differs from the other orders here
    x = eg.parameter("x", (2,))
    ws = [np.array([1.0, 0.5]), np.array([1e-16, 1e-17]), np.array([-1.0, -0.5])]
    c1, c2, c3 = (eg.mul(x, eg.constant(w)) for w in ws)
    (g,) = eg.gradient_all(eg.reduce_sum(eg.add(eg.add(c2, c1), c3)), [x])
    first, last = g.inputs
    assert g.op == first.op == "elementwise-add"
    assert [part.inputs[1] for part in (*first.inputs, last)] == [
        c.inputs[1] for c in (c3, c2, c1)]
    got = eg.evaluate(g, {"x": np.zeros(2)})
    assert got.tobytes() == ((ws[2] + ws[1]) + ws[0]).tobytes()
    assert got.tobytes() != ((ws[0] + ws[1]) + ws[2]).tobytes()


def test_sigmoid_is_the_three_pass_logistic_within_an_ulp_and_never_overflows():
    expected = three_pass_logistic(LOGISTIC_GRID)
    node = eg.sigmoid(eg.parameter("x", LOGISTIC_GRID.shape))
    with np.errstate(all="raise"):
        got = eg._FORWARD["sigmoid"](node, [LOGISTIC_GRID])
        assert got.tobytes() == eg.evaluate(node, {"x": LOGISTIC_GRID}).tobytes()
    assert np.abs(got - expected).max() <= 2.3e-16
    assert ((got >= 0.0) & (got <= 1.0)).all()


# ---------------------------------------------------------------------------
# invariants


def _random_composite(rng, dim):
    """Random smooth composite over one leaf, built from the op vocabulary."""
    x = eg.parameter("x", (dim,))
    w0 = eg.constant(rng.normal(size=(dim + 1, dim)) / math.sqrt(dim))
    b0 = eg.constant(rng.normal(size=dim + 1))
    h = eg.add(eg.affine(x, eg.transpose(w0)), b0)
    act = (eg.tanh, eg.sigmoid, eg.sin, eg.kappa)[rng.integers(0, 4)]
    h = act(h)
    w1 = eg.constant(rng.normal(size=(dim + 1,)))
    return x, eg.add(eg.reduce_sum(eg.mul(h, w1)), eg.scale(eg.reduce_sum(eg.mul(x, x)), 0.5))


def test_nested_gradient_consistency_many_trials():
    # grad(grad(f)) against finite differences of grad(f): 100 seeded trials
    rng = np.random.default_rng(2024)
    for trial in range(100):
        dim = int(rng.integers(2, 17))
        x, f = _random_composite(rng, dim)
        direction = eg.constant(rng.normal(size=dim))
        slice_of_grad = eg.reduce_sum(eg.mul(eg.gradient(f, x), direction))
        x0 = rng.uniform(-1, 1, dim)
        rep = eg.check_gradient(slice_of_grad, x, {"x": x0},
                                fd_step=1e-5, tol=1e-4)
        assert rep["passed"], f"trial {trial}: {rep}"


def test_linearity_exact_for_linear_functions():
    c1 = np.array([1.5, -2.25, 0.125])
    c2 = np.array([0.75, 3.5, -1.0])
    x = eg.parameter("x", (3,))
    f = eg.reduce_sum(eg.mul(x, eg.constant(c1)))
    g = eg.reduce_sum(eg.mul(x, eg.constant(c2)))
    a, b = 0.37, -1.42
    combined = eg.add(eg.scale(f, a), eg.scale(g, b))
    binds = {"x": np.array([0.2, -0.4, 0.9])}
    lhs = eg.evaluate(eg.gradient(combined, x), binds)
    rhs = (a * eg.evaluate(eg.gradient(f, x), binds)
           + b * eg.evaluate(eg.gradient(g, x), binds))
    assert np.array_equal(lhs, rhs)


def test_linearity_near_exact_for_nonlinear_functions(rng):
    x = eg.parameter("x", (4,))
    f = eg.reduce_sum(eg.tanh(x))
    g = eg.reduce_sum(eg.kappa(x))
    a, b = 1.7, -0.3
    combined = eg.add(eg.scale(f, a), eg.scale(g, b))
    binds = {"x": rng.normal(size=4)}
    lhs = eg.evaluate(eg.gradient(combined, x), binds)
    rhs = (a * eg.evaluate(eg.gradient(f, x), binds)
           + b * eg.evaluate(eg.gradient(g, x), binds))
    assert np.allclose(lhs, rhs, rtol=1e-15, atol=0.0)


def test_kappa_derivative_uses_right_piece_at_zero():
    x = eg.parameter("x", ())
    f = eg.kappa(x)
    assert eg.evaluate(eg.gradient(f, x), {"x": 0.0}) == 1.0
    # and approaches the left-piece value from below
    assert eg.evaluate(eg.gradient(f, x), {"x": -1e-9}) == pytest.approx(1.0, abs=1e-8)
    assert eg.evaluate(eg.gradient(f, x), {"x": 2.0}) == 3.0


def test_rehu_derivative_is_continuous():
    x = eg.parameter("x", ())
    df = eg.gradient(eg.rehu(x), x)
    for knee in (0.0, 1.0):
        left = eg.evaluate(df, {"x": knee - 1e-9})
        right = eg.evaluate(df, {"x": knee + 1e-9})
        assert abs(left - right) <= 2e-9
    assert eg.evaluate(df, {"x": 0.5}) == 0.5
    assert eg.evaluate(df, {"x": 3.0}) == 1.0


def test_relu_derivative_zero_at_origin():
    x = eg.parameter("x", ())
    assert eg.evaluate(eg.gradient(eg.relu(x), x), {"x": 0.0}) == 0.0


def test_nested_gradient_through_solve(rng):
    # depth-2 differentiation through the linear solve and its derivative rule
    m = eg.parameter("m", (3, 3))
    v = eg.parameter("v", (3,))
    y = eg.solve(m, v)
    f = eg.reduce_sum(eg.mul(y, y))
    direction = eg.constant(rng.normal(size=(3, 3)))
    slice_of_grad = eg.reduce_sum(eg.mul(eg.gradient(f, m), direction))
    binds = {"m": rng.normal(size=(3, 3)) + 4 * np.eye(3),
             "v": rng.normal(size=3)}
    assert eg.check_gradient(slice_of_grad, m, binds, 1e-5, 1e-4)["passed"]
    assert eg.check_gradient(slice_of_grad, v, binds, 1e-5, 1e-4)["passed"]


def test_a_transposed_operand_is_a_view_with_the_bits_of_numpys_transpose(rng):
    m = eg.parameter("m", (3, 3))
    assert eg.transpose(eg.transpose(m)) is m
    x, w, b = eg.parameter("x", (5, 3)), eg.parameter("w", (4, 3)), eg.parameter("b", (4,))
    v = eg.parameter("v", (3,))
    binds = {"x": rng.normal(size=(5, 3)), "w": rng.normal(size=(4, 3)),
             "b": rng.normal(size=4), "m": rng.normal(size=(3, 3)) + 3.0 * np.eye(3),
             "v": rng.normal(size=3)}
    got = eg.evaluate([eg.add(eg.affine(x, eg.transpose(w)), b),
                       eg.solve(eg.transpose(m), v)], binds)
    assert got[0].tobytes() == (binds["x"] @ binds["w"].T + binds["b"]).tobytes()
    assert got[1].tobytes() == np.linalg.solve(binds["m"].T, binds["v"]).tobytes()


def test_concurrent_evaluations_share_a_graph(rng):
    x = eg.parameter("x", (8,))
    f = eg.reduce_sum(eg.tanh(eg.mul(x, x)))
    inputs = [rng.normal(size=8) for _ in range(32)]
    expected = [float(eg.evaluate(f, {"x": v})) for v in inputs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(lambda v: float(eg.evaluate(f, {"x": v})), inputs))
    assert got == expected


# ---------------------------------------------------------------------------
# evaluation order and zero fills


def _dfs_order(outputs):
    """Every node reachable through all inputs, in depth-first post-order:
    a different topological order from ``evaluate``'s ascending ids."""
    order, seen = [], set()
    stack = [(o, False) for o in reversed(outputs)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node.nid not in seen:
            seen.add(node.nid)
            stack.append((node, True))
            stack.extend((inp, False) for inp in reversed(node.inputs)
                         if inp.nid not in seen)
    return order


def _dfs_evaluate(outputs, bindings):
    """Reference evaluator: every node in ``_dfs_order``, zero fills' inputs
    included, each value kept to the end."""
    values = {}
    for node in _dfs_order(outputs):
        if node.op == "parameter":
            val = bindings[node.attrs["name"]]
        else:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                val = eg._FORWARD[node.op](node, [values[i.nid] for i in node.inputs])
        values[node.nid] = np.asarray(val, dtype=np.float64)
    return [values[o.nid] for o in outputs]


def _assert_same_bytes(outputs, bindings):
    got = eg.evaluate(outputs, bindings)
    expected = _dfs_evaluate(outputs, bindings)
    assert len(got) == len(expected) == len(outputs)
    for g, e in zip(got, expected):
        assert g.shape == e.shape and g.tobytes() == e.tobytes()


@pytest.mark.parametrize("variant", sorted(ham.VARIANTS))
def test_evaluation_order_leaves_training_outputs_bit_for_bit(
        sbm_dataset, training_outputs, variant):
    small = variant == "symplectic"  # its field takes a Jacobian row by row
    cfg = ModelConfig(hidden_dim=4, layers=1 if small else 2, net_hidden=4,
                      variant=variant)
    _assert_same_bytes(*training_outputs(cfg, sbm_dataset))


def test_evaluation_order_leaves_a_gradient_of_a_gradient_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(8):
        x, f = _random_composite(rng, 5)
        (g,) = eg.gradient_all(f, [x])
        (gg,) = eg.gradient_all(eg.reduce_sum(eg.mul(g, eg.tanh(g))), [x])
        _assert_same_bytes([f, g, gg], {"x": rng.uniform(-1, 1, 5)})


def test_zero_fill_does_not_compute_its_input():
    got = eg.evaluate(eg.zeros_like(eg.tanh(eg.parameter("u", (2, 3)))), {})
    _assert_same_bits(got, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# recomputation across the evaluation peak


def _count_runs(monkeypatch) -> Counter:
    """Counts, by node id, every forward rule that runs from now on."""
    runs = Counter()
    for op, rule in list(eg._FORWARD.items()):
        def spy(node, vals, rule=rule, **kw):
            runs[node.nid] += 1
            return rule(node, vals, **kw)
        monkeypatch.setitem(eg._FORWARD, op, spy)
    return runs


def _planned(outputs) -> dict:
    """The nodes that one evaluation of ``outputs`` runs again, by id."""
    _, redo = eg._plan(eg._reachable(outputs), {o.nid for o in outputs})
    return {n.nid: n for again, _ in redo.values() for n in again}


def _recomputing_graph(make_operand):
    """``c = 2 * operand`` is read by ``sin(c)`` before the peak, which three
    live (m, m) values make, and by a product after it."""
    x = eg.parameter("x", (40, 40))
    c = eg.scale(make_operand(x), 2.0)
    v1 = eg.sin(eg.sin(c))
    v2 = eg.sin(v1)
    v3 = eg.sin(v2)
    total = eg.reduce_sum(eg.add(eg.add(v1, v2), v3))
    return c, eg.reduce_sum(eg.mul(c, total))


SBM_300 = {"sizes": (150, 150), "p_in": 0.1, "p_out": 0.01, "seed": 0}


def test_only_the_planned_tanh_slopes_and_products_run_twice(training_outputs, monkeypatch):
    ds = gd.synth_dataset("sbm", **SBM_300)
    cfg = ModelConfig(hidden_dim=16, layers=3, variant="flexible")
    outputs, bindings = training_outputs(cfg, ds)
    order = eg._reachable(outputs)
    planned = _planned(outputs)
    runs = _count_runs(monkeypatch)
    got = eg.evaluate(outputs, bindings)
    assert {nid for nid, k in runs.items() if k > 1} == set(planned)
    assert max(runs.values()) == 2
    slopes = {n.attrs["slope"].nid for n in order if n.op == "tanh"}
    squares = {n.inputs[1].nid for n in order if n.nid in slopes}
    products = {n.nid for n in order if n.op == "elementwise-mul"
                and any(i.nid in slopes for i in n.inputs)}
    # every slope but the last one, with its square and its product with
    # the field adjoint; the last slope is kept, because its tanh is freed
    # at the peak, before the slope's next reader could run it again
    assert len(slopes) == 6 and len(slopes & set(planned)) == 5
    assert len(squares & set(planned)) == len(products & set(planned)) == 5
    # nothing else: the field adjoint's expanded (1, H) rows stay live with
    # their views
    assert set(planned) <= slopes | squares | products and len(planned) == 15
    for g, e in zip(got, _dfs_evaluate(outputs, bindings)):
        assert g.tobytes() == e.tobytes()


@pytest.mark.parametrize("variant", ["flexible", "geodesic", "convex"])
def test_no_product_or_transcendental_runs_twice(training_outputs, monkeypatch, variant):
    ds = gd.synth_dataset("sbm", **SBM_300)
    cfg = ModelConfig(hidden_dim=16, layers=2, variant=variant)
    outputs, bindings = training_outputs(cfg, ds)
    planned = _planned(outputs)
    runs = _count_runs(monkeypatch)
    eg.evaluate(outputs, bindings)
    again = {nid for nid, k in runs.items() if k > 1}
    assert again == set(planned) and again
    assert {planned[nid].op for nid in again} <= eg._RECOMPUTABLE
    assert not {planned[nid].op for nid in again} & {
        "affine", "sparse-matmul", "solve", "tanh", "sin", "sigmoid", "relu",
        "rehu", "kappa", "softmax", "log-softmax"}


def test_forward_only_encode_recomputes_nothing(monkeypatch):
    ds = gd.synth_dataset("sbm", **SBM_300)
    cfg = ModelConfig(hidden_dim=16, layers=3, variant="flexible")
    params = md.init_params(cfg, ds.num_features, ds.num_classes, seed=0)
    z, bindings = md.encode_nodes(params, cfg, ds)
    assert _planned([z]) == {}
    runs = _count_runs(monkeypatch)
    eg.evaluate(z, bindings)
    assert set(runs.values()) == {1}


def test_a_base_stays_live_until_the_last_read_of_its_view(rng):
    x = eg.parameter("x", (4, 4))
    base = eg.tanh(x)
    view = eg.transpose(base)
    early = eg.sin(base)                  # the base's last direct reader
    late = eg.mul(view, eg.sin(early))    # reads the view after it
    out = eg.reduce_sum(late)
    order = eg._reachable([out])
    free, _ = eg._plan(order, {out.nid})
    freed_after = {nid: i for i, nids in free.items() for nid in nids}
    at = {node.nid: i for i, node in enumerate(order)}
    assert freed_after[base.nid] == freed_after[view.nid] == at[late.nid]
    xv = rng.normal(size=(4, 4))
    assert eg.evaluate(out, {"x": xv}).tobytes() == _dfs_evaluate([out], {"x": xv})[0].tobytes()


def test_a_value_whose_operand_is_freed_is_kept_not_recomputed(rng, monkeypatch):
    xv = rng.normal(size=(40, 40))
    # the tanh is freed once c is made and cannot run again, so c is kept;
    # over a leaf, or a sum that can run again for the moment, c is dropped
    for make_operand, dropped in ((eg.tanh, False), (lambda x: x, True),
                                  (lambda x: eg.add(x, x), True)):
        c, out = _recomputing_graph(make_operand)
        assert (c.nid in _planned([out])) == dropped
        runs = _count_runs(monkeypatch)
        got = eg.evaluate(out, {"x": xv})
        assert runs[c.nid] == (2 if dropped else 1)
        assert got.tobytes() == _dfs_evaluate([out], {"x": xv})[0].tobytes()
        monkeypatch.undo()


def test_a_droppable_non_finite_value_raises_where_it_is_first_made():
    c, out = _recomputing_graph(lambda x: eg.mul(x, x))
    assert c.nid in _planned([out])
    xv = np.ones((40, 40))
    xv[3, 5] = 1e200  # its square overflows, and so does c
    with pytest.raises(FloatingPointError) as caught:
        eg.evaluate(out, {"x": xv})
    square = c.inputs[0]
    assert str(caught.value) == f"non-finite intermediate at {square!r} (rows [3])"
    xv[3, 5] = 1e154  # a finite square whose double is not
    with pytest.raises(FloatingPointError) as caught:
        eg.evaluate(out, {"x": xv})
    assert str(caught.value) == f"non-finite intermediate at {c!r} (rows [3])"


def test_non_finite_error_names_the_layer_and_the_solver_step():
    x = eg.parameter("x", (2, 3))
    state = eg.add(x, x)
    state.attrs["label"] = "layer1.field q after step 2"
    hidden = eg.affine(state, eg.constant(np.ones((3, 3))),
                       label="layer1.field.energy layer 0")
    big = eg.mul(eg.tanh(hidden), eg.constant(1e308))
    bindings = {"x": np.array([[1e308, 0.0, 0.0], [0.0, 0.0, 0.0]])}
    # the state itself overflows: its own label is in its name
    with pytest.raises(FloatingPointError, match=r"^non-finite intermediate at "
                       r"<Node \d+ elementwise-add 'layer1.field q after step 2' "
                       r"shape=\(2, 3\)> \(rows \[0\]\)$"):
        eg.evaluate(big, bindings)
    with pytest.raises(FloatingPointError, match=r"elementwise-mul shape=\(2, 3\)> "
                       r"\(rows \[0, 1\]\) in 'layer1.field.energy layer 0' "
                       r"after 'layer1.field q after step 2'$"):
        eg.evaluate(eg.mul(big, eg.constant(2.0)), {"x": np.ones((2, 3))})
    with pytest.raises(FloatingPointError, match=r"affine 'layer1.field.energy layer 0' "
                       r"shape=\(2, 3\)> \(rows \[0\]\) after 'layer1.field q after step 2'$"):
        eg.evaluate(hidden, {"x": np.array([[5e307, 5e307, 0.0], [0.0, 0.0, 0.0]])})


# ---------------------------------------------------------------------------
# writing into a dying operand


def _record_in_place(monkeypatch) -> list:
    """Records ``(node, vals, out)`` for every one-ufunc rule given an ``out``."""
    seen = []
    for op in eg._IN_PLACE:
        def spy(node, vals, rule=eg._FORWARD[op], **kw):
            if "out" in kw:
                seen.append((node, list(vals), kw["out"]))
            return rule(node, vals, **kw)
        monkeypatch.setitem(eg._FORWARD, op, spy)
    return seen


def test_the_in_place_ops_are_the_one_ufunc_rules():
    assert eg._IN_PLACE == {"elementwise-add", "elementwise-sub", "elementwise-mul",
                            "scale", "tanh", "sin", "sigmoid", "relu"}
    assert eg._IN_PLACE <= eg._UNSCANNED


@pytest.mark.parametrize("variant", sorted(ham.VARIANTS))
def test_a_training_evaluate_writes_into_no_binding_or_output(
        sbm_dataset, training_outputs, monkeypatch, variant):
    small = variant == "symplectic"
    cfg = ModelConfig(hidden_dim=4, layers=1 if small else 2, net_hidden=4,
                      variant=variant)
    outputs, bindings = training_outputs(cfg, sbm_dataset)
    # the parameter arrays themselves, as the optimizer holds them
    before = {name: (arr, arr.tobytes()) for name, arr in bindings.items()}
    seen = _record_in_place(monkeypatch)
    got = eg.evaluate(outputs, bindings)
    assert seen
    for name, (arr, data) in before.items():
        assert bindings[name] is arr and arr.tobytes() == data, name
    expected = _dfs_evaluate(outputs, bindings)
    for g, e in zip(got, expected):
        assert g.tobytes() == e.tobytes()
    for i, g in enumerate(got):
        assert not any(np.may_share_memory(g, other) for other in got[i + 1:])


def test_a_view_a_broadcast_or_an_overlapping_operand_is_not_written_into(
        rng, monkeypatch):
    x, row = eg.parameter("x", (5, 5)), eg.parameter("row", (5,))
    m = eg.tanh(x)
    seen = _record_in_place(monkeypatch)
    xv, rv = rng.normal(size=(5, 5)), rng.normal(size=5)
    mv = np.tanh(xv)
    # each dying operand below is a view, a row broadcast to the node's
    # shape, or overlaps the other operand (m dies with its transpose)
    for out, expected in ((eg.add(eg.transpose(eg.sin(x)), x), np.sin(xv).T + xv),
                          (eg.mul(x, eg.sin(row)), xv * np.sin(rv)),
                          (eg.add(m, eg.transpose(m)), mv + mv.T)):
        got = eg.evaluate(out, {"x": xv, "row": rv})
        assert got.tobytes() == expected.tobytes()
    assert [node for node, _, _ in seen] == []
    # one array read twice is no overlap: the square goes into the tanh
    square = eg.mul(m, m)
    got = eg.evaluate(square, {"x": xv})
    assert got.tobytes() == (mv * mv).tobytes()
    ((node, vals, into),) = seen
    assert node is square and vals[0] is vals[1] is into


def test_an_in_place_overflow_is_scanned_not_run_again(monkeypatch):
    x = eg.parameter("x", (3, 2))
    doubled = eg.scale(x, 2.0)
    node = eg.add(doubled, x)
    xv = np.ones((3, 2))
    xv[1] = 8e307  # its double is finite, the sum with it is not
    kept = xv.copy()
    seen = _record_in_place(monkeypatch)
    runs = _count_runs(monkeypatch)
    with pytest.raises(FloatingPointError) as caught:
        eg.evaluate(node, {"x": xv})
    assert str(caught.value) == f"non-finite intermediate at {node!r} (rows [1])"
    assert runs[node.nid] == 1
    ((written, vals, into),) = seen
    assert written is node and into is vals[0] and into is not xv
    assert xv.tobytes() == kept.tobytes()


def test_every_buffer_written_into_is_a_dying_interior_operand(
        training_outputs, monkeypatch):
    ds = gd.synth_dataset("sbm", **SBM_300)
    cfg = ModelConfig(hidden_dim=16, layers=3, variant="flexible")
    outputs, bindings = training_outputs(cfg, ds)
    order = eg._reachable(outputs)
    pinned = {o.nid for o in outputs}
    free, _ = eg._plan(order, pinned)
    at = {node.nid: i for i, node in enumerate(order)}
    seen = _record_in_place(monkeypatch)
    eg.evaluate(outputs, bindings)
    counts = Counter()
    for node, vals, into in seen:
        (k,) = [k for k, v in enumerate(vals) if v is into]
        operand = node.inputs[k]
        assert operand.nid in free.get(at[node.nid], ())
        assert operand.op not in eg._LEAVES | eg._VIEWS and operand.nid not in pinned
        counts[node.op] += 1
    assert all(counts[op] > 0 for op in ("elementwise-add", "elementwise-sub",
                                         "elementwise-mul", "scale", "tanh"))


def test_concurrent_training_evaluations_keep_their_bytes(training_outputs):
    ds = gd.synth_dataset("sbm", **SBM_300)
    cfg = ModelConfig(hidden_dim=16, layers=2, variant="flexible")
    outputs, bindings = training_outputs(cfg, ds)
    expected = [v.tobytes() for v in eg.evaluate(outputs, bindings)]
    start = threading.Barrier(2)

    def run(_):
        start.wait()
        return [[v.tobytes() for v in eg.evaluate(outputs, bindings)]
                for _ in range(20)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = [got for batch in pool.map(run, range(2)) for got in batch]
    assert len(results) == 40 and all(got == expected for got in results)


# ---------------------------------------------------------------------------
# broadcast adjoints and folded negations


@pytest.mark.parametrize("operand_shape, column", [((), False), ((3,), False),
                                                   ((1, 3), False), ((4,), True)])
def test_expand_is_a_zero_stride_view_with_an_exact_gradient(rng, operand_shape, column):
    u = eg.parameter("u", operand_shape)
    e = eg.expand(u, (4, 3), column=column)
    uv = rng.normal(size=operand_shape)
    expected = np.broadcast_to(uv[:, None] if column else uv, (4, 3))
    view = eg._FORWARD["expand"](e, [uv])
    assert 0 in view.strides and not view.flags.writeable
    # an output that is an expand comes back as an array of its own
    for got in (eg.evaluate(e, {"u": uv}), eg.evaluate([e, u], {"u": uv})[0]):
        assert got.flags.owndata and got.flags.writeable
        _assert_same_bits(got, expected)
    f = eg.reduce_sum(eg.mul(eg.tanh(e), eg.constant(rng.normal(size=(4, 3)))))
    assert eg.check_gradient(f, u, {"u": uv})["passed"]


def test_expand_rejects_shapes_it_cannot_repeat():
    row = eg.parameter("r", (3,))
    for args in [((3, 4),), ((4, 3, 1),), ((4, 3), None, True)]:
        with pytest.raises(ValueError, match="cannot expand shape"):
            eg.expand(row, *args)


def test_expand_does_not_compute_the_input_it_is_shaped_like():
    u = eg.parameter("u", (2, 3))
    e = eg.expand(eg.constant(2.0), (2, 3), like=eg.tanh(u))
    _assert_same_bits(eg.evaluate(e, {}), np.full((2, 3), 2.0))
    # u stays in the graph, as under a zero fill: its gradient is present and 0
    (gu,) = eg.gradient_all(eg.reduce_sum(e), [u])
    _assert_same_bits(eg.evaluate(gu, {}), np.zeros((2, 3)))


@pytest.mark.parametrize("transposed", [True, False])
def test_summed_energy_reaches_its_last_layer_as_an_expanded_row(rng, transposed):
    x = eg.parameter("x", (5, 4))
    w1 = eg.parameter("w1", (1, 6) if transposed else (6, 1))
    hidden = eg.tanh(eg.affine(x, eg.transpose(eg.constant(rng.normal(size=(6, 4))))))
    energy = eg.reduce_sum(eg.affine(hidden, eg.transpose(w1) if transposed else w1))
    (field,) = eg.gradient_all(energy, [x])
    evaluated = eg._reachable([field])
    assert [n.shape for n in evaluated if n.op == "expand"] == [(5, 6)]
    assert all(1 not in n.inputs[0].shape for n in evaluated if n.op == "affine")
    binds = {"x": rng.normal(size=(5, 4)), "w1": rng.normal(size=w1.shape)}
    target = eg.reduce_sum(eg.mul(field, field))
    for leaf in (x, w1):
        assert eg.check_gradient(target, leaf, binds)["passed"]


def test_negations_fold_into_scales_bit_for_bit():
    x = eg.parameter("x", (6,))
    assert eg.negate(eg.negate(x)) is x
    xv = np.array(EXTREMES[2:] + [0.3, -1e300])
    for node, expected in [(eg.scale(eg.negate(x), 0.7), (-xv) * 0.7),
                           (eg.negate(eg.scale(x, 0.7)), -(xv * 0.7))]:
        assert node.op == "scale" and node.inputs == (x,) and node.attrs["factor"] == -0.7
        _assert_same_bits(eg.evaluate(node, {"x": xv}), expected)
    # a negation is a scale by -1; only a sign flip folds into another scale
    neg = eg.negate(x)
    assert neg.op == "scale" and neg.attrs["factor"] == -1.0
    _assert_same_bits(eg.evaluate(neg, {"x": xv}), -xv)
    assert eg.scale(neg, -1.0) is x
    assert eg.scale(eg.scale(x, 0.7), 0.5).inputs[0].op == "scale"


@pytest.mark.parametrize("column", [False, True])
def test_negated_product_flips_the_operand_of_its_expanded_factor(column):
    # both zeros, the subnormal extremes and magnitudes whose products stay
    # finite; every pair of values meets
    values = np.array(EXTREMES[2:] + [0.3, -1e-300, 1e150, -2.5])
    av = np.add.outer(values, np.zeros_like(values))
    rv = values.copy()
    a, r = eg.parameter("a", av.shape), eg.parameter("r", rv.shape)
    wide = eg.expand(r, av.shape, like=a, column=column)
    rb = rv[:, None] if column else rv
    for prod, expected in ((eg.mul(a, wide), -(av * rb)), (eg.mul(wide, a), -(rb * av)),
                           (eg.mul(wide, wide), -(rb * rb))):
        neg = eg.negate(prod)
        assert neg.op == "elementwise-mul"
        flipped = [p for p in neg.inputs if p.op == "expand" and p.inputs[-1] is not r]
        assert len(flipped) == 1 and flipped[0].inputs[0] is a
        assert flipped[0].inputs[-1].op == "scale" and flipped[0].inputs[-1].shape == rv.shape
        _assert_same_bits(eg.evaluate(neg, {"a": av, "r": rv}), np.broadcast_to(expected, av.shape))
    # a zero fill keeps the negation over the product
    assert eg.negate(eg.mul(a, eg.zeros_like(a))).op == "scale"


def test_tanh_slope_adjoints_negate_rows_not_arrays(sbm_dataset, training_outputs):
    cfg = ModelConfig(hidden_dim=4, layers=2, net_hidden=6, variant="flexible")
    outputs, bindings = training_outputs(cfg, sbm_dataset)
    negations = [n.shape for n in eg._reachable(outputs)
                 if n.op == "scale" and n.attrs["factor"] == -1.0]
    assert (sbm_dataset.n, 6) not in negations and (1, 6) in negations
    _assert_same_bytes(outputs, bindings)


@pytest.mark.parametrize("a_shape, b_shape", [((6, 6), (6, 6)), ((), (6, 6)),
                                              ((6, 6), ()), ((6,), (6, 6)),
                                              ((6, 6), (6,))])
def test_sub_gives_the_bits_of_adding_a_negation(rng, a_shape, b_shape):
    # every pair of EXTREMES meets: the square operands pair row with column
    grid = np.tile(EXTREMES, (6, 1))
    values = {(6, 6): (grid, grid.T), (6,): (np.array(EXTREMES),) * 2}
    a, b = eg.parameter("a", a_shape), eg.parameter("b", b_shape)
    diff = eg.sub(a, b)
    assert diff.op == "elementwise-sub" and diff.shape == (6, 6)
    added = eg.add(a, eg.negate(b))
    scalars = [np.array(v) for v in EXTREMES]
    a_vals = scalars if a_shape == () else [values[a_shape][0]]
    b_vals = scalars if b_shape == () else [values[b_shape][1]]
    for av in a_vals:
        for bv in b_vals:
            got, expected = _dfs_evaluate([diff, added], {"a": av, "b": bv})
            assert got.tobytes() == expected.tobytes()
    weights = eg.constant(rng.normal(size=(6, 6)))
    f = eg.reduce_sum(eg.mul(eg.tanh(diff), weights))
    binds = {"a": rng.normal(size=a_shape), "b": rng.normal(size=b_shape)}
    for leaf in (a, b):
        assert eg.check_gradient(f, leaf, binds)["passed"]
        g = eg.gradient(f, leaf)
        assert eg.check_gradient(eg.reduce_sum(eg.mul(g, g)), leaf, binds,
                                 tol=1e-5)["passed"]


def test_interior_zero_fill_is_a_view_and_an_output_fill_is_owned(rng, monkeypatch):
    # the adjoint of a slice pads the rest of its input with a zero fill
    x = eg.parameter("x", (3, 4))
    gx = eg.gradient(eg.reduce_sum(eg.sin(eg.narrow(x, 0, 1))), x)
    assert gx.op == "concat" and eg._is_zero_fill(gx.inputs[1])
    seen = []
    concat = eg._FORWARD["concat"]

    def spy(node, vals):
        seen.extend(vals)
        return concat(node, vals)

    monkeypatch.setitem(eg._FORWARD, "concat", spy)
    xv = rng.normal(size=(3, 4))
    got = eg.evaluate(gx, {"x": xv})
    pad = seen[1]
    assert pad.shape == (3, 3) and pad.strides == (0, 0) and not pad.flags.writeable
    slope = np.sin(xv[:, :1] + math.pi / 2.0)
    _assert_same_bits(got, np.concatenate([slope, np.zeros((3, 3))], axis=1))
    fill = eg.evaluate(gx.inputs[1], {})
    assert fill.flags.owndata and fill.flags.writeable
    _assert_same_bits(fill, np.zeros((3, 3)))


def test_every_op_has_a_forward_and_a_derivative_rule():
    assert set(eg._VJP) == set(eg._FORWARD) - {"constant"}
    assert not {"zeros-like", "negate", "dot"} & set(eg._FORWARD)


def test_flexible_training_never_computes_the_energy_total(
        sbm_dataset, training_outputs, monkeypatch):
    # each field takes the gradient of an (n, 1) energy total; only the
    # expand of that gradient's sum rule keeps the total, as an input it
    # never computes
    cfg = ModelConfig(hidden_dim=4, layers=2, net_hidden=4, variant="flexible")
    outputs, bindings = training_outputs(cfg, sbm_dataset)
    totals = [n for n in _dfs_order(outputs)
              if n.op == "affine" and n.shape == (sbm_dataset.n, 1)]
    assert len(totals) >= 2 * cfg.layers
    shapes = []
    affine = eg._FORWARD["affine"]

    def spy(node, vals):
        shapes.append(node.shape)
        return affine(node, vals)

    monkeypatch.setitem(eg._FORWARD, "affine", spy)
    eg.evaluate(outputs, bindings)
    assert shapes and (sbm_dataset.n, 1) not in shapes


# ---------------------------------------------------------------------------
# sparse products


def _random_coo(rng, num_rows, num_cols, nnz):
    """Random coordinates with repeats; rows 0 and num_rows - 1 stay empty."""
    rows = rng.integers(1, num_rows - 1, size=nnz)
    cols = rng.integers(0, num_cols, size=nnz)
    return rows, cols, rng.normal(size=nnz)


def _dense(rows, cols, weights, num_rows, num_cols):
    mat = np.zeros((num_rows, num_cols))
    np.add.at(mat, (rows, cols), weights)
    return mat


@pytest.mark.parametrize("shape", [(9,), (9, 4)])
def test_sparse_matmul_matches_dense_product(rng, shape):
    for _ in range(5):
        rows, cols, weights = _random_coo(rng, 6, shape[0], 20)
        x = rng.normal(size=shape)
        leaf = eg.parameter("x", shape)
        matrix = eg.SparseMatrix(rows, cols, weights, (6, shape[0]))
        got = eg.evaluate(eg.sparse_matmul(leaf, matrix), {"x": x})
        expected = _dense(rows, cols, weights, 6, shape[0]) @ x
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))
        assert np.all(got[[0, 5]] == 0.0)


def test_sparse_matmul_rejects_bad_coordinates():
    x = eg.parameter("x", (4, 2))
    with pytest.raises(ValueError, match="differ in length"):
        eg.SparseMatrix([0, 1], [0], [1.0, 1.0], (3, 4))
    with pytest.raises(ValueError, match="row index"):
        eg.SparseMatrix([3], [0], [1.0], (3, 4))
    with pytest.raises(ValueError, match="column index"):
        eg.SparseMatrix([0], [4], [1.0], (3, 4))
    with pytest.raises(ValueError, match="finite"):
        eg.SparseMatrix([0], [0], [np.inf], (3, 4))
    with pytest.raises(ValueError, match=r"cannot multiply 4 rows"):
        eg.sparse_matmul(x, eg.SparseMatrix([0], [0], [1.0], (3, 5)))
    with pytest.raises(ValueError, match="row index"):
        eg.scatter_rows(x, [0, 5, 1, 2], 5)


def test_sparse_matmul_first_and_second_order_gradients(rng):
    rows, cols, weights = _random_coo(rng, 7, 5, 16)
    x = eg.parameter("x", (5, 3))
    f = eg.reduce_sum(eg.tanh(eg.sparse_matmul(x, eg.SparseMatrix(rows, cols, weights, (7, 5)))))
    binds = {"x": rng.normal(size=(5, 3))}
    assert eg.check_gradient(f, x, binds, fd_step=1e-6, tol=1e-6)["passed"]
    # the derivative of the gradient runs through the transposed product
    # and back through the original one
    gf = eg.gradient(f, x)
    h = eg.reduce_sum(eg.mul(gf, gf))
    assert eg.check_gradient(h, x, binds, fd_step=1e-5, tol=1e-5)["passed"]


def test_scatter_rows_sums_repeated_rows_with_the_sparse_product(rng):
    x = eg.parameter("x", (4, 2))
    node = eg.scatter_rows(x, [2, 0, 2, 3], 5)
    assert node.op == "sparse-matmul" and node.shape == (5, 2)
    xv = rng.normal(size=(4, 2))
    got = eg.evaluate(node, {"x": xv})
    assert np.array_equal(got, np.stack([xv[1], np.zeros(2), xv[0] + xv[2],
                                          xv[3], np.zeros(2)]))
    # gather_rows differentiates into a scatter, and that scatter again
    v = eg.parameter("v", (5,))
    g = eg.gather_rows(v, [4, 1, 4])
    f = eg.reduce_sum(eg.sin(eg.mul(g, g)))
    direction = eg.constant(rng.normal(size=5))
    slice_of_grad = eg.reduce_sum(eg.mul(eg.gradient(f, v), direction))
    assert eg.check_gradient(slice_of_grad, v, {"v": rng.normal(size=5)},
                             fd_step=1e-5, tol=1e-5)["passed"]


def test_gather_rows_keeps_a_frozen_index_array_and_names_a_bad_index():
    x = eg.parameter("x", (3, 2))
    node = eg.gather_rows(x, [2, 0, 2])
    idx = node.attrs["indices"]
    assert idx.dtype == np.intp and not idx.flags.writeable
    assert idx.tolist() == [2, 0, 2] and node.shape == (3, 2)
    assert eg.gather_rows(x, []).shape == (0, 2)
    for bad, first in (([0, 3, 5], 3), ([1, -1], -1)):
        with pytest.raises(ValueError, match=rf"gather index {first} out of range \[0, 3\)"):
            eg.gather_rows(x, bad)


def test_slice_adjoints_meet_by_part(rng):
    # the adjoints of two slices of x, each padded with zeros, add part by
    # part into one concat of the two slice adjoints
    x = eg.parameter("x", (3, 6))
    f = eg.reduce_sum(eg.add(eg.sin(eg.narrow(x, 0, 3)), eg.tanh(eg.narrow(x, 3, 6))))
    gx = eg.gradient(f, x)
    assert gx.op == "concat" and not any(eg._is_zero_fill(i) for i in gx.inputs)
    xv = rng.normal(size=(3, 6))
    expected = np.concatenate([np.cos(xv[:, :3]), 1.0 - np.tanh(xv[:, 3:]) ** 2], axis=1)
    assert np.allclose(eg.evaluate(gx, {"x": xv}), expected, rtol=1e-15, atol=1e-15)
    assert eg.check_gradient(eg.reduce_sum(eg.mul(gx, gx)), x, {"x": xv},
                             fd_step=1e-6, tol=1e-6)["passed"]


def _bincount_product(rows, cols, weights, num_rows, x):
    """The flat-bincount product, kept as the reference for the CSR kernel:
    entry k adds weights[k] * x[cols[k], j] to flat cell rows[k] * d + j, in
    entry order, onto +0.0."""
    x2 = x if x.ndim == 2 else x[:, None]
    d = x2.shape[1]
    terms = x2[cols]
    terms *= np.asarray(weights)[:, None]
    flat = np.asarray(rows)[:, None] * d + np.arange(d)
    out = np.bincount(flat.reshape(-1), weights=terms.reshape(-1),
                      minlength=num_rows * d)
    return out.reshape((num_rows,) + x.shape[1:])


def _assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("width", [None, 1, 2, 7])
def test_sparse_product_equals_the_bincount_reference_bit_for_bit(rng, width):
    for trial in range(20):
        num_rows, num_cols = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        nnz = int(rng.integers(0, 60))
        # few distinct rows, so rows repeat and many reach more than eight
        # entries (where a pairwise sum would reorder the terms)
        rows = rng.integers(0, max(1, num_rows // 2), size=nnz)
        cols = rng.integers(0, num_cols, size=nnz)
        weights = rng.normal(size=nnz) * 10.0 ** rng.integers(-6, 7, size=nnz)
        weights[rng.random(nnz) < 0.2] = 0.0   # explicit zero entries
        shape = (num_cols,) if width is None else (num_cols, width)
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        x[rng.random(shape) < 0.2] = -0.0      # signed zeros in, +0.0 sums out
        matrix = eg.SparseMatrix(rows, cols, weights, (num_rows, num_cols))
        expected = _bincount_product(rows, cols, weights, num_rows, x)
        _assert_same_bits(matrix @ x, expected)
        got = eg.evaluate(eg.sparse_matmul(eg.parameter("x", shape), matrix), {"x": x})
        _assert_same_bits(got, expected)
    # rows whose every term is -0.0 sum to +0.0, as they do from +0.0
    x = np.array([-0.0, 0.0]) if width is None else np.array([[-0.0] * width, [0.0] * width])
    matrix = eg.SparseMatrix([0, 0, 1], [0, 0, 1], [1.0, 2.0, -1.0], (3, 2))
    got = matrix @ x
    _assert_same_bits(got, _bincount_product(matrix.rows, matrix.cols, matrix.weights, 3, x))
    assert not np.signbit(got).any()


def _awkward_operand(rng, kind):
    """``(x node, bindings, value)`` for an operand whose layout the kernel
    must not let reorder a sum; evaluate makes the same view of it."""
    if kind == "transpose":     # a non-contiguous (F-ordered) view
        v = rng.normal(size=(3, 6))
        return eg.transpose(eg.parameter("x", (3, 6))), {"x": v}, v.T
    if kind == "expand":        # one row repeated by a zero stride
        v = rng.normal(size=(1, 3))
        return (eg.expand(eg.parameter("x", (1, 3)), (6, 3)), {"x": v},
                np.broadcast_to(v, (6, 3)))
    v = rng.normal(size=6)
    return eg.parameter("x", (6,)), {"x": v}, v


@pytest.mark.parametrize("kind", ["transpose", "expand", "vector"])
@pytest.mark.parametrize("entries", ["random", "none", "repeated"])
def test_sparse_product_equals_the_bincount_reference_on_any_operand(rng, kind, entries):
    rows = {"random": rng.integers(0, 5, size=30), "none": [],
            "repeated": [2, 0, 2, 2, 0, 2, 4]}[entries]
    cols = {"random": rng.integers(0, 6, size=30), "none": [],
            "repeated": [1, 3, 1, 1, 3, 1, 5]}[entries]
    weights = rng.normal(size=len(rows)) * 10.0 ** rng.integers(-6, 7, size=len(rows))
    matrix = eg.SparseMatrix(rows, cols, weights, (5, 6))
    x, binds, x_val = _awkward_operand(rng, kind)
    assert kind != "transpose" or not x_val.flags.c_contiguous
    assert kind != "expand" or x_val.strides[0] == 0
    expected = _bincount_product(matrix.rows, matrix.cols, matrix.weights, 5, x_val)
    _assert_same_bits(matrix @ x_val, expected)
    _assert_same_bits(eg.evaluate(eg.sparse_matmul(x, matrix), binds), expected)


def test_sparse_csr_holds_each_rows_entries_in_entry_order(rng):
    rows = rng.integers(0, 9, size=50)
    matrix = eg.SparseMatrix(rows, rng.integers(0, 4, size=50), rng.normal(size=50),
                             (10, 4))
    csr = matrix.csr()
    assert csr is matrix.csr() and csr.shape == (10, 4)
    assert csr.indptr.tolist() == [0] + np.cumsum(np.bincount(rows, minlength=10)).tolist()
    for r in range(10):
        entries = np.flatnonzero(rows == r)
        span = slice(csr.indptr[r], csr.indptr[r + 1])
        assert csr.indices[span].tolist() == matrix.cols[entries].tolist()
        assert csr.data[span].tolist() == matrix.weights[entries].tolist()


def test_sparse_transpose_is_built_once_and_shared_by_every_backward_sweep(rng):
    rows, cols, weights = _random_coo(rng, 7, 5, 16)
    wide = eg.SparseMatrix(rows, cols, weights, (7, 5))
    assert wide.T is wide.T and wide.T.T is wide and wide.T.shape == (5, 7)
    assert np.array_equal(wide.T.rows, cols) and np.array_equal(wide.T.cols, rows)
    matrix = eg.SparseMatrix(rows, rng.integers(0, 7, size=16), weights, (7, 7))
    # two layers of one graph, as in encode_nodes
    x = eg.parameter("x", (7, 3))
    f = eg.reduce_sum(eg.tanh(eg.sparse_matmul(eg.tanh(eg.sparse_matmul(x, matrix)),
                                               matrix)))
    backward = [n for n in _dfs_order([eg.gradient(f, x)])
                if n.op == "sparse-matmul" and n.attrs["matrix"] is matrix.T]
    assert len(backward) == 2
    binds = {"x": rng.normal(size=(7, 3))}
    eg.evaluate(eg.gradient(f, x), binds)
    csr = matrix.T.csr()
    eg.evaluate(eg.gradient(f, x), binds)
    assert matrix.T.csr() is csr
    with pytest.raises(AttributeError, match="immutable"):
        matrix.rows = rows


@pytest.mark.parametrize("build, what", [
    (lambda ids: eg.gather_rows(eg.parameter("x", (4, 2)), ids), "gather_rows indices"),
    (lambda ids: eg.scatter_rows(eg.parameter("x", (2, 2)), ids, 4),
     "scatter_rows indices"),
    (lambda ids: eg.SparseMatrix(ids, [0, 1], [1.0, 1.0], (4, 4)), "SparseMatrix rows"),
    (lambda ids: eg.SparseMatrix([0, 1], ids, [1.0, 1.0], (4, 4)), "SparseMatrix cols"),
])
def test_index_arrays_reject_float_and_bool_ids(build, what):
    assert build([3, 0]) is not None
    for bad, dtype in (([1.7, 0.2], "float64"), ([1.0, 0.0], "float64"),
                       ([True, False], "bool")):
        with pytest.raises(ValueError, match=f"^{what} must be integers, got {dtype}$"):
            build(bad)


def test_neighbour_mean_product_allocates_about_its_output(rng):
    n, d = 600, 16
    pairs = rng.choice(n * n, size=2400, replace=False)
    u, v = pairs // n, pairs % n
    edges = sorted({(min(a, b), max(a, b)) for a, b in zip(u, v) if a != b})[:2000]
    assert len(edges) == 2000
    node = eg.sparse_matmul(eg.parameter("x", (n, d)), md.aggregation_matrix(n, edges))
    binds = {"x": rng.normal(size=(n, d))}
    eg.evaluate(node, binds)    # the CSR copy is built on first use and kept
    tracemalloc.start()
    try:
        out = eg.evaluate(node, binds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * out.nbytes
    # the flat-bincount kernel held three (4000, 16) arrays at once
    matrix = node.attrs["matrix"]
    tracemalloc.start()
    try:
        _bincount_product(matrix.rows, matrix.cols, matrix.weights, n, binds["x"])
        assert tracemalloc.get_traced_memory()[1] > 12 * out.nbytes
    finally:
        tracemalloc.stop()


FIRST_PRODUCT = """
import tracemalloc
import numpy as np
from hamgnn import engine, model
n, d = 600, 64
rng = np.random.default_rng(0)
edges = sorted({(min(a, b), max(a, b)) for a, b in rng.integers(0, n, size=(2000, 2))
                if a != b})
x = rng.normal(size=(n, d))
tracemalloc.start()
out = model.aggregation_matrix(n, edges) @ x
print(tracemalloc.get_traced_memory()[1] / out.nbytes)
"""


def test_first_product_in_a_fresh_interpreter_allocates_about_its_output():
    # building the CSR copy inside the traced region must not load a module:
    # importing scipy.sparse there would trace tens of times the output
    src = str(Path(md.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run([sys.executable, "-c", FIRST_PRODUCT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 4.0


# ---------------------------------------------------------------------------
# finiteness guard


# the largest and smallest magnitudes and both zeros
EXTREMES = [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324, 0.0, -0.0]


def _guard_verdicts(arr, monkeypatch):
    """Whether all_finite, Tensor, a binding and an intermediate accept arr."""
    verdicts = [eg.all_finite(arr)]
    try:
        eg.Tensor(arr)
        verdicts.append(True)
    except ValueError as exc:
        assert "must be finite" in str(exc)
        verdicts.append(False)
    leaf = eg.parameter("x", arr.shape)
    # an op that is not on the skip list and returns arr as it is, layout
    # included, so the intermediate check sees exactly this array
    monkeypatch.setitem(eg._FORWARD, "test-emit", lambda node, vals: arr)
    emit = eg.Node("test-emit", (), {}, arr.shape)
    for node, binds, message in ((leaf, {"x": arr}, "non-finite value bound to 'x'"),
                                 (emit, {}, "non-finite intermediate at <Node")):
        try:
            eg.evaluate(node, binds)
            verdicts.append(True)
        except FloatingPointError as exc:
            assert message in str(exc)
            verdicts.append(False)
    return verdicts


def _guard_layouts(base):
    """C-ordered, F-ordered and strided (non-contiguous) arrays over base."""
    wide = np.zeros((base.shape[0], 2 * base.shape[1]))
    wide[:, ::2] = base
    strided = wide[:, ::2]
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    return {"C": np.ascontiguousarray(base), "F": np.asfortranarray(base),
            "strided": strided}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_guard_rejects_a_non_finite_entry_anywhere(rng, monkeypatch, bad, where):
    for layout, arr in _guard_layouts(rng.normal(size=(5, 7))).items():
        index = {"first": 0, "middle": arr.size // 2, "last": arr.size - 1}[where]
        arr.flat[index] = bad
        assert _guard_verdicts(arr, monkeypatch) == [False] * 4, layout
        flat = np.ascontiguousarray(arr).reshape(-1)
        assert _guard_verdicts(flat, monkeypatch) == [False] * 4, layout
    assert _guard_verdicts(np.asarray(bad), monkeypatch) == [False] * 4


def test_guard_accepts_finite_arrays_of_every_layout(rng, monkeypatch):
    cases = {"0-d": np.asarray(2.5), "empty": np.zeros((0, 3)),
             "extremes": np.array(EXTREMES),
             # the sum of squares overflows, so the scan must decide
             "1e200": np.full((4, 6), 1e200)}
    cases.update(_guard_layouts(rng.normal(size=(5, 7)) * 1e200))
    with np.errstate(all="raise"):
        for name, arr in cases.items():
            assert _guard_verdicts(arr, monkeypatch) == [True] * 4, name
    overflowing = np.full((4, 6), 1e200)
    overflowing[3, 5] = np.nan
    assert _guard_verdicts(overflowing, monkeypatch) == [False] * 4


def test_skipped_ops_are_forward_ops():
    assert eg._FINITE_IF_INPUTS_FINITE <= set(eg._FORWARD)


def test_skipped_ops_map_finite_inputs_to_finite_outputs(rng):
    random = rng.normal(size=(6, 6)) * 10.0 ** rng.uniform(-300, 300, size=(6, 6))
    xv = np.vstack([np.tile(EXTREMES, (2, 1)), np.tile(EXTREMES[::-1], (2, 1)), random])
    x = eg.parameter("x", xv.shape)
    row = eg.parameter("row", (xv.shape[1],))
    built = {
        "transpose": eg.transpose(x),
        "slice": eg.narrow(x, 1, 4, axis=0), "concat": eg.concat([x, x], axis=1),
        "gather-rows": eg.gather_rows(x, [9, 0, 3, 3]),
        "step": eg.step(x), "relu": eg.relu(x), "tanh": eg.tanh(x),
        "sin": eg.sin(x), "sigmoid": eg.sigmoid(x),
        "expand": eg.expand(row, xv.shape, like=x),
    }
    assert set(built) == eg._FINITE_IF_INPUTS_FINITE - {"constant"}
    built["expand-column"] = eg.expand(row, (xv.shape[1], 3), column=True)
    for name, node in built.items():
        for signed in (xv, -xv):
            vals = [signed if inp is x else signed[2] for inp in node.inputs]
            with np.errstate(all="ignore"):
                out = eg._FORWARD[node.op](node, vals)
            assert np.isfinite(out).all(), name


def test_first_non_finite_value_is_reported_where_it_is_produced():
    big = eg.constant(1e308)
    # the overflow happens in the product and is reported there, not at the
    # negation or the tanh that pass it on
    with pytest.raises(FloatingPointError, match=r"non-finite intermediate at <Node \d+ "
                                                 r"elementwise-mul shape=\(\)>"):
        eg.evaluate(eg.tanh(eg.negate(eg.mul(big, big))))
    x = eg.parameter("x", (2,))
    with pytest.raises(FloatingPointError, match="non-finite value bound to 'x'"):
        eg.evaluate(eg.tanh(x), {"x": np.array([0.0, np.nan])})


# the ops whose outputs evaluate scans: bindings aside, the BLAS and scipy
# products, whose floating-point flags are raised in other threads
SCANNED = {"affine", "outer", "solve", "sparse-matmul"}


def test_flagged_skipped_and_scanned_ops_partition_the_forward_table():
    flagged, skipped = eg._FLAGGED, eg._FINITE_IF_INPUTS_FINITE
    assert not (flagged & skipped or flagged & SCANNED or skipped & SCANNED)
    assert flagged | skipped | SCANNED == set(eg._FORWARD)


def _overflowing(op, big):
    """A node of ``op`` over the leaf ``x``, and a finite binding of x whose
    row 1 overflows in it."""
    x = eg.parameter("x", (3, 2))
    node = {"elementwise-add": lambda: eg.add(x, x),
            "elementwise-sub": lambda: eg.sub(x, eg.negate(x)),
            "elementwise-mul": lambda: eg.mul(x, x),
            "scale": lambda: eg.scale(x, 1e10),
            "sum": lambda: eg.reduce_sum(x, axis=1),
            "kappa": lambda: eg.kappa(x),
            "log-softmax": lambda: eg.log_softmax(x)}[op]()
    assert node.op == op
    xv = np.ones((3, 2))
    xv[1] = big
    return node, xv


# each flagged op that can overflow from finite inputs, and a row that does
OVERFLOWS = [
    ("elementwise-add", 1e308), ("elementwise-sub", 1e308), ("elementwise-mul", 1e200),
    ("scale", 1e300), ("sum", 1e308), ("kappa", 1e200), ("log-softmax", [-1e308, 1e308]),
]


@pytest.mark.parametrize("op, big", OVERFLOWS, ids=[op for op, _ in OVERFLOWS])
def test_a_flagged_op_that_overflows_raises_at_its_node_naming_the_rows(
        monkeypatch, op, big):
    node, xv = _overflowing(op, big)
    assert op in eg._FLAGGED
    runs = _count_runs(monkeypatch)
    with pytest.raises(FloatingPointError) as caught:
        eg.evaluate(node, {"x": xv})
    assert str(caught.value) == f"non-finite intermediate at {node!r} (rows [1])"
    # the flag raised, then the node ran again with the flags ignored; the
    # sub writes into its dying negate(x) operand, so it is scanned, not run again
    assert runs[node.nid] == (1 if op == "elementwise-sub" else 2)


@pytest.mark.parametrize("op, xv", [
    ("softmax", np.array([[-1e308, 1e308], [1.0, 2.0]])),
    ("rehu", np.array([[-1.7e308, 1.7e308], [0.5, 2.0]])),
], ids=["softmax", "rehu"])
def test_a_flagged_op_whose_value_ends_finite_returns_it(op, xv):
    x = eg.parameter("x", xv.shape)
    node = eg.softmax(x) if op == "softmax" else eg.rehu(x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        expected = eg._FORWARD[op](node, [xv])
    assert np.isfinite(expected).all()
    assert eg.evaluate(node, {"x": xv}).tobytes() == expected.tobytes()


def test_evaluate_gives_the_callers_error_state_back(monkeypatch):
    seen = []

    def record_state(node, vals):
        seen.append(np.geterr())
        return vals[0]
    monkeypatch.setitem(eg._FORWARD, "test-state", record_state)
    x = eg.parameter("x", (2,))
    node = eg.Node("test-state", (x,), {}, (2,))
    for outer in ({}, {"all": "raise"}, {"all": "warn", "under": "ignore"}):
        with np.errstate(**outer):
            before = np.geterr()
            assert eg.evaluate(node, {"x": np.ones(2)}).tolist() == [1.0, 1.0]
            assert np.geterr() == before
            # the node runs under the evaluation's one state
            assert seen[-1] == dict(before, over="raise", invalid="raise", divide="raise")
            with pytest.raises(FloatingPointError):
                eg.evaluate(eg.mul(node, node), {"x": np.full(2, 1e200)})
            assert np.geterr() == before
            with pytest.raises(ValueError, match="unbound leaf 'x'"):
                eg.evaluate(node)
            assert np.geterr() == before


@pytest.mark.parametrize("variant", ["flexible", "convex", "symplectic"])
def test_a_training_evaluate_scans_only_bindings_and_blas_outputs(
        sbm_dataset, training_outputs, monkeypatch, variant):
    small = variant == "symplectic"
    cfg = ModelConfig(hidden_dim=4, layers=1 if small else 2, net_hidden=4,
                      variant=variant)
    outputs, bindings = training_outputs(cfg, sbm_dataset)
    leaves = [n for n in eg._reachable(outputs) if n.op == "parameter"]
    bound = [eg.as_array(bindings[n.attrs["name"]]) for n in leaves]
    last_scanned, scanned_runs, scans = [None], Counter(), []
    for op in SCANNED:
        def spy(node, vals, rule=eg._FORWARD[op]):
            scanned_runs[node.op] += 1
            last_scanned[0] = rule(node, vals)
            return last_scanned[0]
        monkeypatch.setitem(eg._FORWARD, op, spy)
    real = eg.all_finite

    def counted(arr):
        assert arr is last_scanned[0] or any(arr is b for b in bound)
        scans.append(arr)
        return real(arr)
    monkeypatch.setattr(eg, "all_finite", counted)
    eg.evaluate(outputs, bindings)
    assert scanned_runs["affine"] and scanned_runs["sparse-matmul"]
    if small:
        assert scanned_runs["solve"]
    assert len(scans) == len(leaves) + sum(scanned_runs.values())


def test_tensor_copies_writable_arrays_and_adopts_frozen_ones():
    values = np.arange(6.0).reshape(2, 3)
    t = eg.Tensor(values)
    assert not np.shares_memory(t.array, values)
    values[0, 0] = 9.0
    assert t.array[0, 0] == 0.0
    frozen = eg.frozen_float64(values)
    assert eg.Tensor(frozen).array is frozen and not frozen.flags.writeable
    # a read-only view of a writable array can still change under the Tensor
    view = values[:1]
    view.flags.writeable = False
    assert not np.shares_memory(eg.Tensor(view).array, values)


# ---------------------------------------------------------------------------
# MlpParams


def test_mlp_params_dimension_chaining():
    with pytest.raises(ValueError, match="chain"):
        eg.MlpParams([(np.zeros((3, 2)), np.zeros(3), "tanh"),
                      (np.zeros((1, 4)), np.zeros(1), None)])


def test_mlp_params_init_is_seeded_and_bounded():
    dims = (5, 7, 2)
    net1 = eg.MlpParams.init(dims, ("tanh", None), np.random.default_rng(9))
    net2 = eg.MlpParams.init(dims, ("tanh", None), np.random.default_rng(9))
    for (w1, b1, _), (w2, b2, _) in zip(net1.layers, net2.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
        assert np.all(b1 == 0.0)
    for (w, _, _), fan_in in zip(net1.layers, dims):
        assert np.max(np.abs(w)) <= 1.0 / math.sqrt(fan_in)


def test_a_one_part_layer_is_a_product_then_a_bias_add(rng):
    w, b = rng.normal(size=(4, 3)), rng.normal(size=4)
    net = eg.MlpParams([(w, b, None)])
    x = rng.normal(size=(5, 3))
    out = net.graph(eg.parameter("x", x.shape), "mlp")
    assert out.op == "elementwise-add" and out.inputs[0].op == "affine"
    got = eg.evaluate(out, {"x": x, **net.bindings("mlp")})
    assert got.tobytes() == (x @ w.T + b).tobytes()


@pytest.mark.parametrize("variant", ["flexible", "convex", "geodesic"])
def test_every_network_layer_is_products_plus_one_bias_add(
        sbm_dataset, training_outputs, variant):
    cfg = ModelConfig(hidden_dim=4, layers=2, net_hidden=4, variant=variant)
    outputs = training_outputs(cfg, sbm_dataset)[0]
    nodes = eg._reachable(outputs, lambda n: n.inputs)
    assert all(len(n.inputs) == 2 for n in nodes if n.op == "affine")
    # the loss graph: the fields' own gradients but not the training sweep,
    # whose unused leaves are zero fills shaped like them
    forward = eg._reachable(outputs[:1], lambda n: n.inputs)
    biases = [n for n in forward
              if n.op == "parameter" and n.attrs["name"].rsplit(".", 1)[1].startswith("b")]
    assert biases
    for bias in biases:
        (reader,) = [n for n in forward if bias in n.inputs]
        assert reader.op == "elementwise-add" and reader.inputs[1] is bias

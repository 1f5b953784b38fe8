"""Independent references that the tests compare the library against.

The analytic cogeodesic orbit integrates a diagonal metric given in closed
form with plain numpy and scores the geodesic-equation residual along it
(criterion 4); the topology-blind MLP baseline is the comparison model of
criterion 10; the dense encoder multiplies the whole feature table and feeds
each energy net the concatenated state q‖p, as the model did before it
multiplied only the table's non-zeros and split the energy net's first
layer into its q and p column blocks; the symplectic field differentiates
its own copy of the energy net on the joined state, as it did before it took
grad H from the canonical field; the three-pass logistic is the one the
engine's sigmoid and ``decode_link`` computed before ``scipy.special.expit``;
the exact hyperbolicity loop scores one quadruple at a time, as
``delta_hyperbolicity`` did before it scored them all in one array pass;
the pair chains score and scatter node pairs through numpy's (pairs, d) row
tables, as the link loss did before ``pair_dot`` and ``pair_scatter``; and the
canonical orbit graph moves every spec's orbit in (q, p), as the solver did
before the MLP energies moved theirs in the energy net's first-layer chart;
the unfolded encoder starts each chart from the momentum map's (n, d)
output, as the model did before it folded that map into the chart's start;
and the δ chart takes the energy's gradient δ over the (n, H) rows and
scales each step's rates by the step size, as the solver did before the
energy's output row and the step size folded into the chart's matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from hamgnn import engine as eg
from hamgnn import graphdata as gd
from hamgnn import hamiltonian as ham
from hamgnn import model as md
from hamgnn import odeint as oi
from hamgnn.engine import MlpParams, Node
from hamgnn.graphdata import GraphDataset
from hamgnn.odeint import IntegrationConfig


# ---------------------------------------------------------------------------
# analytic cogeodesic reference


@dataclass(frozen=True)
class AnalyticDiagMetric:
    """Diagonal inverse metric with closed-form derivatives (test-only).

    ``inverse_diag(q)`` returns the d entries g^ii(q); ``inverse_diag_grad(q)``
    returns the (d, d) array whose [i, j] entry is the derivative of g^jj
    with respect to q_i.
    """

    dim: int
    inverse_diag: Callable[[np.ndarray], np.ndarray]
    inverse_diag_grad: Callable[[np.ndarray], np.ndarray]


def _cogeodesic_rate(metric: AnalyticDiagMetric, q: np.ndarray,
                     p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ginv = metric.inverse_diag(q)
    dginv = metric.inverse_diag_grad(q)
    dq = ginv * p
    dp = -0.5 * dginv @ (p * p)
    return dq, dp


def _numpy_orbit(metric: AnalyticDiagMetric, q0, p0, cfg: IntegrationConfig):
    h = cfg.effective_step
    q = np.array(q0, dtype=np.float64)
    p = np.array(p0, dtype=np.float64)
    qs, ps = [q.copy()], [p.copy()]
    for _ in range(cfg.n_steps):
        if cfg.method == "euler":
            dq, dp = _cogeodesic_rate(metric, q, p)
            q, p = q + h * dq, p + h * dp
        else:
            k1 = _cogeodesic_rate(metric, q, p)
            k2 = _cogeodesic_rate(metric, q + h / 2 * k1[0], p + h / 2 * k1[1])
            k3 = _cogeodesic_rate(metric, q + h / 2 * k2[0], p + h / 2 * k2[1])
            k4 = _cogeodesic_rate(metric, q + h * k3[0], p + h * k3[1])
            q = q + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            p = p + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        qs.append(q.copy())
        ps.append(p.copy())
    return np.array(qs), np.array(ps)


def reference_geodesic_check(metric: AnalyticDiagMetric, q0, p0,
                             cfg: IntegrationConfig) -> dict:
    """Integrate the cogeodesic field, then score the geodesic-equation
    residual along the trajectory with finite differences of q(t).

    Returns the positions as well so callers can check invariants of known
    geodesics (straight lines, semicircles).
    """
    qs, _ = _numpy_orbit(metric, q0, p0, cfg)
    h = cfg.effective_step
    max_residual = 0.0
    for n in range(1, len(qs) - 1):
        qdot = (qs[n + 1] - qs[n - 1]) / (2.0 * h)
        qddot = (qs[n + 1] - 2.0 * qs[n] + qs[n - 1]) / (h * h)
        q = qs[n]
        ginv = metric.inverse_diag(q)
        dginv = metric.inverse_diag_grad(q)  # [i, j] = d g^jj / d q_i
        # diagonal metric: g_jj = 1 / g^jj so d_i g_jj = -d_i g^jj / (g^jj)^2
        dmetric = -dginv / (ginv * ginv)[None, :]
        # Gamma^i_{jk} qdot^j qdot^k for a diagonal metric
        quad = (2.0 * (dmetric[:, :].T @ qdot) * qdot        # d_j g_ii terms
                - dmetric @ (qdot * qdot))                   # d_i g_jj term
        residual = qddot + 0.5 * ginv * quad
        max_residual = max(max_residual, float(np.max(np.abs(residual))))
    return {"max_residual": max_residual, "positions": qs}


# ---------------------------------------------------------------------------
# MLP baseline


def baseline_mlp_params(num_features: int, num_classes: int, hidden: int,
                        seed: int = 0) -> MlpParams:
    """Three affine layers with interleaved rectifications, topology-blind."""
    rng = np.random.default_rng(seed)
    return MlpParams.init((num_features, hidden, hidden, num_classes),
                          ("relu", "relu", None), rng)


def baseline_mlp_nodes(params: MlpParams, dataset: GraphDataset) -> tuple[Node, dict]:
    """Logits graph of the baseline applied rowwise to raw features, and its
    bindings; never reads edges."""
    x = eg.constant(dataset.features, label="raw features")
    return params.graph(x, "mlp"), params.bindings("mlp")


# ---------------------------------------------------------------------------
# dense compressor and concatenated energy input


class _ConcatEnergy:
    """The energy net on the concatenated state: one (n, 2d) first-layer
    input, whose adjoint the energy's field slices back into q and p."""

    def energy_node(self, q: Node, p: Node, prefix: str) -> Node:
        out = self.energy_net.graph(eg.concat([q, p], axis=-1), f"{prefix}.energy")
        return eg.reduce_sum(out)


class ConcatFlexible(_ConcatEnergy, ham.FlexibleHamiltonian):
    pass


class ConcatConvex(_ConcatEnergy, ham.ConvexHamiltonian):
    pass


class ConcatRelaxed(_ConcatEnergy, ham.RelaxedHamiltonian):
    pass


class ConcatSymplectic(_ConcatEnergy, ham.LearnedSymplecticForm):
    """The symplectic field of one state with grad H taken by differentiating
    the energy net on the joined state z = q‖p with respect to z."""

    def field_nodes(self, q: Node, p: Node, prefix: str) -> tuple[Node, Node]:
        d = self.q_dim
        z = eg.concat([q, p], axis=-1)
        regular = eg.add(self.skew_node(z, prefix),
                         eg.constant(self.eps * ham.canonical_skew_matrix(d)))
        energy = self.energy_net.graph(z, f"{prefix}.energy")
        grad_z = eg.gradient_all(eg.reduce_sum(energy), [z], stop_at=(z,))[0]
        flow = eg.solve(regular, grad_z)
        return eg.narrow(flow, 0, d), eg.narrow(flow, d, 2 * d)


_CONCAT = {ham.FlexibleHamiltonian: ConcatFlexible, ham.ConvexHamiltonian: ConcatConvex,
           ham.RelaxedHamiltonian: ConcatRelaxed, ham.LearnedSymplecticForm: ConcatSymplectic}


def concat_energy_spec(spec: ham.HamiltonianSpec) -> ham.HamiltonianSpec:
    """The flexible, convex, relaxed or (one-state) symplectic ``spec`` with a
    concatenated energy input; it shares the spec's networks."""
    return _CONCAT[type(spec)](**{f.name: getattr(spec, f.name) for f in fields(spec)})


def dense_encode_nodes(params, cfg, dataset: GraphDataset) -> tuple[Node, dict]:
    """``model.encode_nodes`` with the dense compressor ``X @ w0.T + b0`` over
    the whole table and every field from ``concat_energy_spec``, integrated
    in (q, p) by ``canonical_integrate_nodes``."""
    x = eg.constant(dataset.features, label="raw features")
    mean = md.aggregation_matrix(dataset.n, dataset.edges)
    h = params.compressor.graph(x, "compress")
    for i, (qnet, spec) in enumerate(zip(params.momentum_nets, params.field_specs)):
        p = qnet.graph(h, f"layer{i}.momentum")
        states = canonical_integrate_nodes(concat_energy_spec(spec), h, p,
                                           cfg.integration, prefix=f"layer{i}.field")
        q_end = states[-1][0]
        h = eg.add(q_end, eg.sparse_matmul(q_end, mean))
    return h, params.bindings()


# ---------------------------------------------------------------------------
# canonical orbit graph


def _solve(field, x: Node, y: Node, cfg: IntegrationConfig) -> list[tuple[Node, Node]]:
    """Every state of the unrolled Euler or RK4 solve of (x, y) under
    ``field(x, y)``, t = 0 .. T, with each rate scaled by its step."""
    h = cfg.effective_step
    axpy = lambda state, rate, step: eg.add(state, eg.scale(rate, step))
    states = [(x, y)]
    for _ in range(cfg.n_steps):
        if cfg.method == "euler":
            dx, dy = field(x, y)
            x, y = axpy(x, dx, h), axpy(y, dy, h)
        else:  # classical four-stage Runge-Kutta
            k1x, k1y = field(x, y)
            k2x, k2y = field(axpy(x, k1x, h / 2), axpy(y, k1y, h / 2))
            k3x, k3y = field(axpy(x, k2x, h / 2), axpy(y, k2y, h / 2))
            k4x, k4y = field(axpy(x, k3x, h), axpy(y, k3y, h))
            mix = lambda a, b, c, d: eg.add(eg.add(a, eg.scale(b, 2.0)),
                                            eg.add(eg.scale(c, 2.0), d))
            x = axpy(x, mix(k1x, k2x, k3x, k4x), h / 6.0)
            y = axpy(y, mix(k1y, k2y, k3y, k4y), h / 6.0)
        states.append((x, y))
    return states


def canonical_integrate_nodes(spec, q0: Node, p0: Node, cfg: IntegrationConfig,
                              prefix: str = "field") -> list[tuple[Node, Node]]:
    """``odeint.integrate_nodes`` with the orbit moved in (q, p) for every
    spec, whatever its ``chart``: an MLP energy's field step rebuilds the
    first layer's pre-activation from (q, p) and forms dH/dq and dH/dp, four
    (n, d)×(d, H) products."""
    return _solve(lambda q, p: ham.phase_velocity_nodes(spec, q, p, prefix), q0, p0, cfg)


def delta_chart_integrate_nodes(spec, q0: Node, p0: Node, cfg: IntegrationConfig,
                                prefix: str = "field") -> list[tuple[Node, Node]]:
    """``odeint.integrate_nodes`` for a flexible or convex spec, with the
    orbit moved in the first-layer chart (a, s) from a0 = q0 Wqᵀ + p0 Wpᵀ + b
    by ȧ = δ·A and ṡ = δ, where δ = ∇E(a) is taken over the (n, H) rows and
    A = Wp Wqᵀ − Wq Wpᵀ; each step scales both rates by h, and every stored
    state is q = q0 + s·Wp, p = p0 − s·Wq."""
    net, name, d = spec.energy_net, f"{prefix}.energy", spec.q_dim
    w0 = eg.parameter(f"{name}.w0", net.layers[0][0].shape)
    wq, wp = eg.narrow(w0, 0, d), eg.narrow(w0, d, 2 * d)
    m = eg.affine(wp, eg.transpose(wq))
    skew = eg.sub(m, eg.transpose(m))

    def field(a: Node, s: Node) -> tuple[Node, Node]:
        total = eg.reduce_sum(net.graph_after(a, name))
        [delta] = eg.gradient_all(total, [a], stop_at=(a,))
        return eg.affine(delta, skew), delta

    a0 = net.layer_node(0, [q0, p0], name)
    states = _solve(field, a0, eg.zeros_like(a0), cfg)
    return [(q0, p0)] + [(eg.add(q0, eg.affine(s, wp)), eg.sub(p0, eg.affine(s, wq)))
                         for _, s in states[1:]]


def _orbit_encode_nodes(integrate_nodes, params, cfg, dataset) -> tuple[Node, dict]:
    """``model.encode_nodes`` with every layer's orbit from
    ``integrate_nodes(spec, h, p0, cfg, prefix)``, p0 = qnet(h)."""
    [(w, b, _)] = params.compressor.layers
    h = eg.add(eg.sparse_matmul(eg.transpose(eg.parameter("compress.w0", w.shape)),
                                dataset.feature_matrix),
               eg.parameter("compress.b0", b.shape))
    for i, (qnet, spec) in enumerate(zip(params.momentum_nets, params.field_specs)):
        p = qnet.graph(h, f"layer{i}.momentum")
        states = integrate_nodes(spec, h, p, cfg.integration, prefix=f"layer{i}.field")
        q_end = states[-1][0]
        h = eg.add(q_end, eg.sparse_matmul(q_end, dataset.mean_matrix))
    return h, params.bindings()


def canonical_encode_nodes(params, cfg, dataset: GraphDataset) -> tuple[Node, dict]:
    """``model.encode_nodes`` with every layer's orbit from
    ``canonical_integrate_nodes``."""
    return _orbit_encode_nodes(canonical_integrate_nodes, params, cfg, dataset)


def delta_chart_encode_nodes(params, cfg, dataset: GraphDataset) -> tuple[Node, dict]:
    """``model.encode_nodes`` with every layer's orbit from
    ``delta_chart_integrate_nodes``."""
    return _orbit_encode_nodes(delta_chart_integrate_nodes, params, cfg, dataset)


def unfolded_encode_nodes(params, cfg, dataset: GraphDataset) -> tuple[Node, dict]:
    """``model.encode_nodes`` with each layer's orbit handed p0 = qnet(h) and
    not the momentum net, so a first-layer chart starts from
    a0 = h Wqᵀ + p0 Wpᵀ + b."""
    return _orbit_encode_nodes(oi.integrate_nodes, params, cfg, dataset)


# ---------------------------------------------------------------------------
# three-pass logistic


# zeros, the tiniest and largest magnitudes, where 1 + e^-|x| rounds to 1
# (36), where e^-|x| underflows (745) and past it, and a fine grid between
LOGISTIC_GRID = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0,
     800.0, -800.0, 1.7976931348623157e308, -1.7976931348623157e308],
    np.linspace(-40.0, 40.0, 1601)])


def three_pass_logistic(x) -> np.ndarray:
    """1 / (1 + e^-x) from exponentials of non-positive arguments only."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# one-quadruple-at-a-time hyperbolicity


def loop_delta_hyperbolicity(dataset: GraphDataset) -> dict:
    """``graphdata.delta_hyperbolicity`` in exact mode, scoring each
    quadruple on the hop tables as Python integers."""
    histogram: dict[float, int] = {}
    for comp, hops in zip(*gd._component_hops(dataset)):
        dist = hops.astype(np.int64).tolist()
        for w, x, y, z in itertools.combinations(range(comp.size), 4):
            sums = sorted((dist[w][x] + dist[y][z], dist[w][y] + dist[x][z],
                           dist[w][z] + dist[x][y]))
            delta = (sums[2] - sums[1]) / 2.0
            histogram[delta] = histogram.get(delta, 0) + 1
    return {"max_delta": max(histogram), "histogram": dict(sorted(histogram.items())),
            "num_quadruples": sum(histogram.values())}


# ---------------------------------------------------------------------------
# pair chains


def chain_pair_dot(a: np.ndarray, b: np.ndarray, rows, cols) -> np.ndarray:
    """``pair_dot(a, b, rows, cols)``'s scores from two gathered (pairs, d)
    row tables, their product and a row sum."""
    return np.sum(a[rows] * b[cols], axis=1)


def chain_pair_scatter(x: np.ndarray, w: np.ndarray, rows, cols, num_rows: int) -> np.ndarray:
    """``pair_scatter(x, w, rows, cols, num_rows)`` as a gathered (pairs, d)
    row table of ``x`` scaled by the weight column and added into
    ``num_rows`` zero rows in pair order."""
    out = np.zeros((num_rows, x.shape[1]))
    np.add.at(out, rows, w[:, None] * x[cols])
    return out

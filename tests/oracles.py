"""Independent references that the tests compare the library against.

The analytic cogeodesic orbit integrates a diagonal metric given in closed
form with plain numpy and scores the geodesic-equation residual along it
(criterion 4); the topology-blind MLP baseline is the comparison model of
criterion 10; the dense encoder multiplies the whole feature table and feeds
each energy net the concatenated state q‖p, as the model did before it
multiplied only the table's non-zeros and split the energy net's first
layer into its q and p column blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from hamgnn import engine as eg
from hamgnn import hamiltonian as ham
from hamgnn import model as md
from hamgnn.engine import MlpParams, Node
from hamgnn.graphdata import GraphDataset
from hamgnn.odeint import IntegrationConfig, integrate_nodes


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


_CONCAT = {ham.FlexibleHamiltonian: ConcatFlexible, ham.ConvexHamiltonian: ConcatConvex,
           ham.RelaxedHamiltonian: ConcatRelaxed}


def concat_energy_spec(spec: ham.HamiltonianSpec) -> ham.HamiltonianSpec:
    """The flexible, convex or relaxed ``spec`` with a concatenated energy
    input; it shares the spec's networks."""
    return _CONCAT[type(spec)](**{f.name: getattr(spec, f.name) for f in fields(spec)})


def dense_encode_nodes(params, cfg, dataset: GraphDataset) -> tuple[Node, dict]:
    """``model.encode_nodes`` with the dense compressor ``X @ w0.T + b0`` over
    the whole table and every field from ``concat_energy_spec``."""
    x = eg.constant(dataset.features, label="raw features")
    mean = md.aggregation_matrix(dataset.n, dataset.edges)
    h = params.compressor.graph(x, "compress")
    for i, (qnet, spec) in enumerate(zip(params.momentum_nets, params.field_specs)):
        p = qnet.graph(h, f"layer{i}.momentum")
        states = integrate_nodes(concat_energy_spec(spec), h, p, cfg.integration,
                                 prefix=f"layer{i}.field")
        q_end = states[-1][0]
        h = eg.add(q_end, eg.sparse_matmul(q_end, mean))
    return h, params.bindings()

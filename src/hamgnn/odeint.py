"""Fixed-step explicit integration of phase-space fields.

The solver is unrolled into the expression graph, so everything downstream of
the integrator is differentiable with respect to the initial state and all
field parameters.  Energy-drift and geodesic-residual diagnostics live here
as well.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine as eg
from . import hamiltonian as ham
from .engine import Node
from .hamiltonian import PhaseState

__all__ = [
    "IntegrationConfig", "Trajectory", "integrate_nodes", "integrate",
    "energy_drift", "AnalyticDiagMetric", "reference_geodesic_check",
]


@dataclass(frozen=True)
class IntegrationConfig:
    """Explicit fixed-step solver settings: method, horizon and step size.

    The horizon must be an integer number of steps; if it is not, the step is
    rounded to the nearest divisor and the adjustment is reported as a
    warning.
    """

    method: str = "euler"
    horizon: float = 1.0
    step: float = 0.5

    def __post_init__(self):
        if self.method not in ("euler", "rk4"):
            raise ValueError(f"unknown method {self.method!r} (euler or rk4)")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if not 0.0 < self.step <= self.horizon:
            raise ValueError("step must be positive and no larger than the horizon")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.horizon / self.step)))

    @property
    def effective_step(self) -> float:
        h = self.horizon / self.n_steps
        if abs(h - self.step) > 1e-9 * max(1.0, self.step):
            warnings.warn(
                f"step {self.step} does not divide horizon {self.horizon}; "
                f"using {h} ({self.n_steps} steps)", stacklevel=2)
        return h

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """States at t = 0, h, 2h, ..., T."""

    times: np.ndarray
    states: tuple

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("one state per time point required")

    @property
    def last(self) -> PhaseState:
        return self.states[-1]

    def __len__(self):
        return len(self.states)


def _axpy(state: Node, rate: Node, h: float) -> Node:
    return eg.add(state, eg.scale(rate, h))


def integrate_nodes(spec, q0: Node, p0: Node, cfg: IntegrationConfig,
                    prefix: str = "field") -> list[tuple[Node, Node]]:
    """Unrolled solver: graph nodes for every stored state, t = 0 .. T.

    Works for a single state (vector nodes) or a batch (matrix nodes, one row
    per state); the whole unrolled computation is ordinary graph operations,
    so gradients flow to the field parameters and to the initial state.
    """
    h = cfg.effective_step
    states = [(q0, p0)]
    q, p = q0, p0
    for k in range(cfg.n_steps):
        if cfg.method == "euler":
            dq, dp = ham.phase_velocity_nodes(spec, q, p, prefix)
            q, p = _axpy(q, dq, h), _axpy(p, dp, h)
        else:  # classical four-stage Runge-Kutta
            k1q, k1p = ham.phase_velocity_nodes(spec, q, p, prefix)
            k2q, k2p = ham.phase_velocity_nodes(
                spec, _axpy(q, k1q, h / 2), _axpy(p, k1p, h / 2), prefix)
            k3q, k3p = ham.phase_velocity_nodes(
                spec, _axpy(q, k2q, h / 2), _axpy(p, k2p, h / 2), prefix)
            k4q, k4p = ham.phase_velocity_nodes(
                spec, _axpy(q, k3q, h), _axpy(p, k3p, h), prefix)
            mix = lambda a, b, c, d: eg.add(eg.add(a, eg.scale(b, 2.0)),
                                            eg.add(eg.scale(c, 2.0), d))
            q = _axpy(q, mix(k1q, k2q, k3q, k4q), h / 6.0)
            p = _axpy(p, mix(k1p, k2p, k3p, k4p), h / 6.0)
        q.attrs["label"] = f"{prefix} q after step {k + 1}"
        p.attrs["label"] = f"{prefix} p after step {k + 1}"
        states.append((q, p))
    return states


def integrate(spec, state0: PhaseState, cfg: IntegrationConfig) -> Trajectory:
    """Solve one state's orbit and return every stored state."""
    if state0.q.size != spec.q_dim or state0.p.size != spec.p_dim:
        raise ValueError("initial state dimensions do not match the spec")
    q0 = eg.parameter("q0", state0.q.shape)
    p0 = eg.parameter("p0", state0.p.shape)
    nodes = integrate_nodes(spec, q0, p0, cfg)
    flat = [n for pair in nodes for n in pair]
    binds = {"q0": state0.q, "p0": state0.p, **ham.spec_bindings(spec, "field")}
    try:
        values = eg.evaluate(flat, binds)
    except FloatingPointError as exc:
        raise ValueError(f"integration diverged: {exc}") from None
    states = tuple(PhaseState(values[2 * i], values[2 * i + 1])
                   for i in range(len(nodes)))
    return Trajectory(cfg.times(), states)


def energy_drift(spec, traj: Trajectory) -> dict:
    """Deviation of the energy along a trajectory from its initial value."""
    q = eg.parameter("q", traj.states[0].q.shape)
    p = eg.parameter("p", traj.states[0].p.shape)
    node = ham.hamiltonian_node(spec, q, p, "field")
    binds = ham.spec_bindings(spec, "field")
    energies = np.array([
        float(eg.evaluate(node, {**binds, "q": s.q, "p": s.p}))
        for s in traj.states])
    h0 = energies[0]
    max_abs = float(np.max(np.abs(energies - h0)))
    if max_abs == 0.0:
        relative = 0.0
    elif h0 == 0.0:
        relative = float("inf")
    else:
        relative = max_abs / abs(h0)
    return {"initial": float(h0), "max_abs_drift": max_abs,
            "relative_drift": relative}


# ---------------------------------------------------------------------------
# analytic cogeodesic reference (test oracle)


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

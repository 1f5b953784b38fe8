"""Fixed-step explicit integration of phase-space fields.

The solver is unrolled into the expression graph, so everything downstream of
the integrator is differentiable with respect to the initial state and all
field parameters.  The energy-drift diagnostic lives here as well.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import engine as eg
from . import hamiltonian as ham
from .engine import Node
from .hamiltonian import PhaseState

__all__ = [
    "IntegrationConfig", "Trajectory", "integrate_nodes", "integrate",
    "energy_drift",
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
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        if not 0.0 < self.step <= self.horizon:
            raise ValueError("step must be positive and no larger than the horizon")
        if not math.isfinite(self.horizon / self.step):
            raise ValueError(f"step {self.step!r} is too small: horizon / step overflows")

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


def _axpy(state: Node, rate: Node, h: float) -> Node:
    # a zero-fill state (a chart's start) is never built: its step is h·rate,
    # and a unit step is the rate itself
    step = rate if h == 1.0 else eg.scale(rate, h)
    return step if eg._is_zero_fill(state) else eg.add(state, step)


def integrate_nodes(spec, q0: Node, p0: Node | None, cfg: IntegrationConfig,
                    prefix: str = "field", momentum=None) -> list[tuple[Node, Node]]:
    """Unrolled solver: graph nodes for every stored state, t = 0 .. T.

    Works for a single state (vector nodes) or a batch (matrix nodes, one row
    per state); the whole unrolled computation is ordinary graph operations,
    so gradients flow to the field parameters and to the initial state.  The
    solver moves the state the spec's ``chart`` gives, and every stored
    state is that chart's readout in (q, p).  The chart state after step k,
    which step k + 1 reads, is labelled ``{prefix} chart state after step k``.
    ``momentum`` is the ``(net, name)`` of the linear map that makes p0 from
    q0, with p0 None: a chart may fold the map into its start
    (``FlexibleHamiltonian.chart``), and p0 is built only where it is read.
    """
    if (p0 is None) == (momentum is None):
        raise ValueError("integrate_nodes takes p0 or the momentum map that makes it")
    owner, x, y, readout, h = spec.chart(q0, p0, prefix, cfg.effective_step, momentum)
    states = [readout(x, y)]  # (q0, p0)
    for k in range(cfg.n_steps):
        if cfg.method == "euler":
            dx, dy = ham.phase_velocity_nodes(owner, x, y, prefix)
            x, y = _axpy(x, dx, h), _axpy(y, dy, h)
        else:  # classical four-stage Runge-Kutta
            k1x, k1y = ham.phase_velocity_nodes(owner, x, y, prefix)
            k2x, k2y = ham.phase_velocity_nodes(
                owner, _axpy(x, k1x, h / 2), _axpy(y, k1y, h / 2), prefix)
            k3x, k3y = ham.phase_velocity_nodes(
                owner, _axpy(x, k2x, h / 2), _axpy(y, k2y, h / 2), prefix)
            k4x, k4y = ham.phase_velocity_nodes(
                owner, _axpy(x, k3x, h), _axpy(y, k3y, h), prefix)
            mix = lambda a, b, c, d: eg.add(eg.add(a, eg.scale(b, 2.0)),
                                            eg.add(eg.scale(c, 2.0), d))
            x = _axpy(x, mix(k1x, k2x, k3x, k4x), h / 6.0)
            y = _axpy(y, mix(k1y, k2y, k3y, k4y), h / 6.0)
        q, p = readout(x, y)  # in the identity chart (x, y) is (q, p)
        for node, name in ((x, "chart state"), (y, "chart state"), (q, "q"), (p, "p")):
            node.attrs["label"] = f"{prefix} {name} after step {k + 1}"
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
    binds = {"q0": state0.q, "p0": state0.p, **spec.bindings("field")}
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
    binds = spec.bindings("field")
    energies = np.array([
        float(eg.evaluate(node, {**binds, "q": s.q, "p": s.p}))
        for s in traj.states])
    h0 = float(energies[0])
    max_abs = float(np.max(np.abs(energies - h0)))
    if max_abs == 0.0:
        relative = 0.0
    elif h0 == 0.0:
        relative = float("inf")
    else:
        relative = max_abs / abs(h0)
    return {"initial": h0, "max_abs_drift": max_abs,
            "relative_drift": relative}

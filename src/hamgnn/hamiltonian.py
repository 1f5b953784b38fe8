"""Phase-space dynamics variants and their vector fields.

Eight variants are supported: a learnable diagonal-metric cogeodesic flow,
learned scalar energy functions (plain, convexity-constrained, relaxed with a
state bias), a learnable symplectic form, the relaxed metric flow, a
higher-dimensional-momentum flow, and a plain first-order ODE baseline.

For every variant that defines a scalar energy, the vector field is obtained
by differentiating that energy with the engine — the same graph evaluated by
``eval_hamiltonian`` — so energy diagnostics and the flow share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from . import engine as eg
from .engine import MlpParams, Node, Tensor

__all__ = [
    "PhaseState", "Signature",
    "GeodesicMetric", "FlexibleHamiltonian", "ConvexHamiltonian",
    "RelaxedHamiltonian", "LearnedSymplecticForm", "GeodesicRelaxed",
    "HigherDimMomentum", "VanillaOde", "HamiltonianSpec",
    "VARIANT_TAGS", "make_spec", "spec_bindings", "spec_param_items",
    "has_hamiltonian", "hamiltonian_node", "phase_velocity_nodes",
    "metric_inverse_diag", "eval_hamiltonian", "phase_velocity",
    "assemble_W", "project_convex", "canonical_skew_matrix",
    "check_field_gradients",
]

METRIC_FLOOR = 0.01  # keeps every inverse-metric entry away from zero


@dataclass(frozen=True)
class PhaseState:
    """A point (q, p) in phase space: position plus generalized momentum."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=np.float64))
        p = np.atleast_1d(np.asarray(self.p, dtype=np.float64))
        if q.ndim != 1 or p.ndim != 1 or q.size < 1 or p.size < 1:
            raise ValueError("phase state needs one-dimensional q and p")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("phase state entries must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class Signature:
    """Counts of negative (r) and positive (s) metric directions."""

    r: int
    s: int

    def __post_init__(self):
        if self.r < 0 or self.s < 0 or self.r + self.s < 1:
            raise ValueError(f"invalid signature ({self.r}, {self.s})")

    @property
    def dim(self) -> int:
        return self.r + self.s

    def sign_vector(self) -> np.ndarray:
        return np.concatenate([-np.ones(self.r), np.ones(self.s)])


def _require_map(net: MlpParams, d_in: int, d_out: int, message: str):
    if net.input_dim != d_in or net.output_dim != d_out:
        raise ValueError(message)


@dataclass
class GeodesicMetric:
    """Cogeodesic flow of a learnable diagonal (pseudo-)Riemannian metric.

    ``metric_net`` produces the raw diagonal; the inverse metric is
    sign ⊙ (sigmoid(raw) + floor), so each entry keeps |g^ii| in
    (floor, 1 + floor) with the sign pattern fixed by the signature.
    """

    metric_net: MlpParams
    signature: Signature

    def __post_init__(self):
        _require_map(self.metric_net, self.q_dim, self.q_dim, "metric net must map d -> d")

    @property
    def q_dim(self) -> int:
        return self.signature.dim

    p_dim = q_dim

    def metric_diag_node(self, q: Node, prefix: str) -> Node:
        """Inverse-metric diagonal as a graph: sign ⊙ (sigmoid(raw) + floor)."""
        raw = self.metric_net.graph(q, f"{prefix}.metric")
        positive = eg.add(eg.sigmoid(raw), eg.constant(METRIC_FLOOR))
        return eg.mul(eg.constant(self.signature.sign_vector()), positive)

    def energy_node(self, q: Node, p: Node, prefix: str, axis) -> Node:
        """H = sum_i g^ii p_i^2 / 2, summed over ``axis``."""
        diag = self.metric_diag_node(q, prefix)
        return eg.scale(eg.reduce_sum(eg.mul(diag, eg.mul(p, p)), axis=axis), 0.5)


@dataclass
class FlexibleHamiltonian:
    """Scalar energy given by a fully connected network on (q, p)."""

    energy_net: MlpParams

    def __post_init__(self):
        _require_map(self.energy_net, 2 * self.q_dim, 1, "energy net must map 2d -> 1")

    @property
    def q_dim(self) -> int:
        return self.energy_net.input_dim // 2

    p_dim = q_dim

    def energy_node(self, q: Node, p: Node, prefix: str, axis) -> Node:
        """The energy net on the concatenated state, summed over ``axis``."""
        out = self.energy_net.graph(eg.concat([q, p], axis=-1), f"{prefix}.energy")
        return eg.reduce_sum(out, axis=axis)


@dataclass
class ConvexHamiltonian(FlexibleHamiltonian):
    """Learned energy constrained to be convex in (q, p).

    The first layer is unconstrained; weights from the second layer on are
    non-negative and every activation is convex and non-decreasing.
    """

    def __post_init__(self):
        if not self.energy_net.convex_from_second:
            raise ValueError("energy net must be convexity-constrained")
        super().__post_init__()


@dataclass
class RelaxedHamiltonian(FlexibleHamiltonian):
    """Learned energy plus a position-dependent bias added to the momentum flow."""

    bias_net: MlpParams

    def __post_init__(self):
        super().__post_init__()
        _require_map(self.bias_net, self.q_dim, self.q_dim, "bias net must map d -> d")


@dataclass
class LearnedSymplecticForm(FlexibleHamiltonian):
    """Learned energy paired with a learnable symplectic two-form.

    ``form_net`` gives the coefficients of a one-form on phase space; the skew
    matrix W of its exterior derivative pairs the flow with the energy
    gradient.  The flow solves (W + eps * K0) v = grad H, where K0 is the
    canonical skew block matrix, so the system stays solvable when W is
    singular.
    """

    form_net: MlpParams
    eps: float = 1e-3

    def __post_init__(self):
        super().__post_init__()
        two_d = 2 * self.q_dim
        _require_map(self.form_net, two_d, two_d, "form net must map 2d -> 2d")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")


@dataclass
class GeodesicRelaxed(GeodesicMetric):
    """Cogeodesic flow with an extra position-dependent bias on the momentum."""

    bias_net: MlpParams

    def __post_init__(self):
        super().__post_init__()
        _require_map(self.bias_net, self.q_dim, self.q_dim, "bias net must map d -> d")


@dataclass
class HigherDimMomentum:
    """Coupled flow with a momentum of dimension k, not necessarily d.

    dq = phi(h1(p) - rho q), dp = phi(h2(q) - rho p).  No scalar energy.
    """

    h1_net: MlpParams
    h2_net: MlpParams
    rho: float = 0.1
    phi: str = "tanh"

    def __post_init__(self):
        if self.rho < 0.0:
            raise ValueError("rho must be non-negative")
        if self.phi not in eg.ACTIVATIONS:
            raise ValueError(f"unknown activation tag {self.phi!r}")
        _require_map(self.h1_net, self.p_dim, self.q_dim, "h1 net must map k -> d")
        _require_map(self.h2_net, self.q_dim, self.p_dim, "h2 net must map d -> k")

    @property
    def q_dim(self) -> int:
        return self.h1_net.output_dim

    @property
    def p_dim(self) -> int:
        return self.h2_net.output_dim


@dataclass
class VanillaOde:
    """First-order baseline dq = f(q); the momentum is carried but frozen."""

    f_net: MlpParams

    def __post_init__(self):
        _require_map(self.f_net, self.q_dim, self.q_dim, "baseline field must map d -> d")
        if len(self.f_net.layers) != 2:
            raise ValueError("baseline field uses exactly two affine layers")

    @property
    def q_dim(self) -> int:
        return self.f_net.input_dim

    p_dim = q_dim


HamiltonianSpec = Union[
    GeodesicMetric, FlexibleHamiltonian, ConvexHamiltonian, RelaxedHamiltonian,
    LearnedSymplecticForm, GeodesicRelaxed, HigherDimMomentum, VanillaOde,
]


VARIANT_TAGS = ("geodesic", "flexible", "convex", "relaxed", "symplectic",
                "geodesic_relaxed", "higher_dim", "vanilla_ode")


def make_spec(tag: str, dim: int, hidden: int, rng: np.random.Generator,
              signature: Signature | None = None, rho: float = 0.1,
              phi: str = "tanh", eps: float = 1e-3,
              momentum_dim: int | None = None,
              convex_activation: str = "rehu") -> HamiltonianSpec:
    """Build a freshly initialized spec for a variant tag."""
    sig = signature or Signature(0, dim)
    if sig.dim != dim:
        raise ValueError(f"signature ({sig.r}, {sig.s}) does not match dimension {dim}")
    k = momentum_dim or dim
    if tag == "geodesic":
        return GeodesicMetric(
            MlpParams.init((dim, hidden, dim), ("tanh", None), rng), sig)
    if tag == "flexible":
        return FlexibleHamiltonian(
            MlpParams.init((2 * dim, hidden, 1), ("tanh", None), rng))
    if tag == "convex":
        act = convex_activation
        return ConvexHamiltonian(
            MlpParams.init((2 * dim, hidden, hidden, 1), (act, act, None), rng,
                           convex_from_second=True))
    if tag == "relaxed":
        return RelaxedHamiltonian(
            MlpParams.init((2 * dim, hidden, 1), ("tanh", None), rng),
            MlpParams.init((dim, hidden, dim), ("tanh", None), rng))
    if tag == "symplectic":
        return LearnedSymplecticForm(
            MlpParams.init((2 * dim, hidden, 1), ("sin", None), rng),
            MlpParams.init((2 * dim, hidden, 2 * dim), ("sin", None), rng),
            eps=eps)
    if tag == "geodesic_relaxed":
        return GeodesicRelaxed(
            MlpParams.init((dim, hidden, dim), ("tanh", None), rng), sig,
            MlpParams.init((dim, hidden, dim), ("tanh", None), rng))
    if tag == "higher_dim":
        return HigherDimMomentum(
            MlpParams.init((k, hidden, dim), ("tanh", None), rng),
            MlpParams.init((dim, hidden, k), ("tanh", None), rng),
            rho=rho, phi=phi)
    if tag == "vanilla_ode":
        return VanillaOde(MlpParams.init((dim, hidden, dim), ("tanh", None), rng))
    raise ValueError(f"unknown variant tag {tag!r}")


def _spec_nets(spec) -> list[tuple[str, MlpParams]]:
    """The spec's networks, one per field named ``<role>_net``, in field order."""
    return [(f.name.removesuffix("_net"), getattr(spec, f.name))
            for f in fields(spec) if f.name.endswith("_net")]


def spec_param_items(spec, prefix: str) -> list[tuple[str, np.ndarray]]:
    """Ordered (name, array) parameter pairs; arrays are live storage."""
    items = []
    for sub, net in _spec_nets(spec):
        items.extend(net.param_items(f"{prefix}.{sub}"))
    return items


def spec_bindings(spec, prefix: str) -> dict:
    return dict(spec_param_items(spec, prefix))


def has_hamiltonian(spec) -> bool:
    return hasattr(spec, "energy_node")


def hamiltonian_node(spec, q: Node, p: Node, prefix: str = "field",
                     per_state: bool = False) -> Node:
    """Energy of the variant as a graph over q and p.

    Scalar for one state.  For batched (row-per-state) inputs the default is
    the batch total, whose gradient gives every state's field at once;
    ``per_state`` instead yields the vector of per-row energies.
    """
    if not has_hamiltonian(spec):
        raise ValueError("variant has no Hamiltonian")
    batched = len(q.shape) == 2
    return spec.energy_node(q, p, prefix, axis=1 if (batched and per_state) else None)


def _symplectic_state_field(spec: LearnedSymplecticForm, q: Node, p: Node,
                            prefix: str) -> tuple[Node, Node]:
    d = spec.q_dim
    z = eg.concat([q, p], axis=-1)
    f_out = spec.form_net.graph(z, f"{prefix}.form")
    rows = [eg.gradient_all(eg.reduce_sum(eg.narrow(f_out, a, a + 1)), [z],
                            allow_unused=True, stop_at=(z,))[0]
            for a in range(2 * d)]
    jac = eg.stack_rows(rows)
    # W_ab = d_a f_b - d_b f_a  =  (J^T - J)_ab for J_ij = df_i/dz_j
    skew = eg.add(eg.transpose(jac), eg.negate(jac))
    regular = eg.add(skew, eg.constant(spec.eps * canonical_skew_matrix(d)))
    energy = spec.energy_net.graph(z, f"{prefix}.energy")
    grad_z = eg.gradient_all(eg.reduce_sum(energy), [z], stop_at=(z,))[0]
    flow = eg.solve(regular, grad_z)
    return eg.narrow(flow, 0, d), eg.narrow(flow, d, 2 * d)


def canonical_skew_matrix(d: int) -> np.ndarray:
    """Skew block matrix whose solve alone reproduces the canonical flow."""
    k = np.zeros((2 * d, 2 * d))
    k[:d, d:] = -np.eye(d)
    k[d:, :d] = np.eye(d)
    return k


def _row(x: Node, i: int) -> Node:
    return eg.reduce_sum(eg.gather_rows(x, (i,)), axis=0)


def phase_velocity_nodes(spec, q: Node, p: Node,
                         prefix: str = "field") -> tuple[Node, Node]:
    """Graphs for (dq/dt, dp/dt) under the variant's equations.

    For the energy-based variants the field is the engine gradient of
    ``hamiltonian_node`` — there is no separate hand-coded formula.
    Accepts a single state (vectors) or a batch (row per state).
    """
    batched = len(q.shape) == 2

    if isinstance(spec, HigherDimMomentum):
        phi = eg.ACTIVATIONS[spec.phi]
        dq = phi(eg.add(spec.h1_net.graph(p, f"{prefix}.h1"),
                        eg.negate(eg.scale(q, spec.rho))))
        dp = phi(eg.add(spec.h2_net.graph(q, f"{prefix}.h2"),
                        eg.negate(eg.scale(p, spec.rho))))
        return dq, dp

    if isinstance(spec, VanillaOde):
        return spec.f_net.graph(q, f"{prefix}.f"), eg.scale(p, 0.0)

    if isinstance(spec, LearnedSymplecticForm):
        if not batched:
            return _symplectic_state_field(spec, q, p, prefix)
        dqs, dps = [], []
        for i in range(q.shape[0]):
            dq_i, dp_i = _symplectic_state_field(spec, _row(q, i), _row(p, i), prefix)
            dqs.append(dq_i)
            dps.append(dp_i)
        return eg.stack_rows(dqs), eg.stack_rows(dps)

    total = hamiltonian_node(spec, q, p, prefix)
    # Partial derivatives at the current state: stop the sweep at q and p so
    # states produced by an unrolled solver are treated as independent inputs.
    # A frozen or degenerate energy may not reference q at all: zero gradient.
    gq, gp = eg.gradient_all(total, [q, p], allow_unused=True, stop_at=(q, p))
    dq = gp
    dp = eg.negate(gq)
    if isinstance(spec, (RelaxedHamiltonian, GeodesicRelaxed)):
        dp = eg.add(dp, spec.bias_net.graph(q, f"{prefix}.bias"))
    return dq, dp


# ---------------------------------------------------------------------------
# value-level operations


def _state_leaves(state: PhaseState) -> tuple[Node, Node, dict]:
    q = eg.parameter("q", state.q.shape)
    p = eg.parameter("p", state.p.shape)
    return q, p, {"q": state.q, "p": state.p}


def metric_inverse_diag(spec, q) -> Tensor:
    """Inverse-metric diagonal at a position; entries keep |g^ii| in
    (floor, 1 + floor) with signs fixed by the signature."""
    if not isinstance(spec, GeodesicMetric):
        raise TypeError("metric diagonal is defined for the metric variants only")
    q = eg.as_array(q)
    if q.shape != (spec.q_dim,):
        raise ValueError(f"position must have dimension {spec.q_dim}")
    leaf = eg.parameter("q", q.shape)
    return eg.forward(spec.metric_diag_node(leaf, "field"),
                      {"q": q, **spec_bindings(spec, "field")})


def eval_hamiltonian(spec, state: PhaseState) -> float:
    """Energy of one phase-space state."""
    q, p, binds = _state_leaves(state)
    node = hamiltonian_node(spec, q, p, "field")
    binds.update(spec_bindings(spec, "field"))
    return float(eg.evaluate(node, binds))


def phase_velocity(spec, state: PhaseState) -> tuple[Tensor, Tensor]:
    """Time derivative of one state under the variant's equations."""
    if state.q.size != spec.q_dim or state.p.size != spec.p_dim:
        raise ValueError(
            f"state dimensions ({state.q.size}, {state.p.size}) do not match "
            f"spec ({spec.q_dim}, {spec.p_dim})")
    q, p, binds = _state_leaves(state)
    dq, dp = phase_velocity_nodes(spec, q, p, "field")
    binds.update(spec_bindings(spec, "field"))
    dq_val, dp_val = eg.evaluate([dq, dp], binds)
    return Tensor(dq_val), Tensor(dp_val)


def assemble_W(spec: LearnedSymplecticForm, state: PhaseState) -> Tensor:
    """Skew matrix of the learned two-form at one state: W_ab = d_a f_b - d_b f_a."""
    if not isinstance(spec, LearnedSymplecticForm):
        raise TypeError("W is defined for the learned symplectic form only")
    d = spec.q_dim
    z_leaf = eg.parameter("z", (2 * d,))
    f_out = spec.form_net.graph(z_leaf, "field.form")
    binds = {"z": np.concatenate([state.q, state.p]),
             **spec.form_net.bindings("field.form")}
    jac = eg.jacobian(f_out, z_leaf, binds).array
    return Tensor(jac.T - jac)


def project_convex(spec: ConvexHamiltonian) -> ConvexHamiltonian:
    """Clamp layer-2+ weights to be non-negative, in place; layer 1 and all
    biases stay untouched."""
    if not isinstance(spec, ConvexHamiltonian):
        raise TypeError("projection applies to the convex variant only")
    spec.energy_net.clamp_nonnegative_from_second()
    return spec


# ---------------------------------------------------------------------------
# verification helpers


def check_field_gradients(spec, n_states: int, rng: np.random.Generator,
                          fd_step: float = 1e-5, tol: float = 1e-5) -> dict:
    """Check the field against finite differences of the energy.

    For the canonical-equation variants the field must equal
    (dH/dp, -dH/dq [+ bias]); each partial is compared against central
    differences of the energy over random states.  Graphs are built once and
    re-evaluated per state.
    """
    d = spec.q_dim
    base = spec_bindings(spec, "field")
    q_leaf = eg.parameter("q", (d,))
    p_leaf = eg.parameter("p", (d,))
    h_node = hamiltonian_node(spec, q_leaf, p_leaf, "field")
    field_nodes = list(phase_velocity_nodes(spec, q_leaf, p_leaf, "field"))
    if isinstance(spec, (RelaxedHamiltonian, GeodesicRelaxed)):
        bias = spec.bias_net.graph(q_leaf, "field.bias")
        field_nodes[1] = eg.add(field_nodes[1], eg.negate(bias))

    def energy(q, p):
        return float(eg.evaluate(h_node, {**base, "q": q, "p": p}))

    worst = 0.0
    for _ in range(n_states):
        q = rng.uniform(-1, 1, d)
        p = rng.uniform(-1, 1, d)
        dq, dp = eg.evaluate(field_nodes, {**base, "q": q, "p": p})
        fd_p = np.zeros(d)
        fd_q = np.zeros(d)
        for i in range(d):
            for arr, out, other_first in ((p, fd_p, True), (q, fd_q, False)):
                plus, minus = arr.copy(), arr.copy()
                plus[i] += fd_step
                minus[i] -= fd_step
                if other_first:
                    out[i] = (energy(q, plus) - energy(q, minus)) / (2 * fd_step)
                else:
                    out[i] = (energy(plus, p) - energy(minus, p)) / (2 * fd_step)
        worst = max(worst,
                    eg.relative_error(dq, fd_p),
                    eg.relative_error(dp, -fd_q))
    return {"max_relative_error": worst, "tolerance": tol, "passed": worst <= tol}

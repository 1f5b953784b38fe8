"""Phase-space dynamics variants and their vector fields.

Eight variants are supported: a learnable diagonal-metric cogeodesic flow,
learned scalar energy functions (plain, convexity-constrained, relaxed with a
state bias), a learnable symplectic form, the relaxed metric flow, a
higher-dimensional-momentum flow, and a plain first-order ODE baseline.

For every variant that defines a scalar energy, the vector field is obtained
by differentiating that energy with the engine — the same graph that
``hamiltonian_node`` builds for the energy diagnostics — so the diagnostics
and the flow share one code path.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields

import numpy as np

from . import engine as eg
from .engine import MlpParams, Node

__all__ = [
    "PhaseState", "Signature",
    "GeodesicMetric", "FlexibleHamiltonian", "ConvexHamiltonian",
    "RelaxedHamiltonian", "LearnedSymplecticForm", "GeodesicRelaxed",
    "HigherDimMomentum", "VanillaOde", "HamiltonianSpec",
    "VARIANTS", "CONVEX_ACTIVATIONS", "make_spec",
    "has_hamiltonian", "hamiltonian_node", "phase_velocity_nodes",
    "canonical_skew_matrix", "check_field_gradients",
]

METRIC_FLOOR = 0.01  # keeps every inverse-metric entry away from zero

# activations that are convex and non-decreasing, hence admissible in the
# convex energy
CONVEX_ACTIVATIONS = ("rehu", "kappa")


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


def _mlp(cfg, d_in: int, d_out: int, rng, act: str = "tanh") -> MlpParams:
    """A fresh one-hidden-layer field net of the configured width."""
    return MlpParams.init((d_in, cfg.field_hidden, d_out), (act, None), rng)


def _row(x: Node, i: int) -> Node:
    return eg.reduce_sum(eg.narrow(x, i, i + 1, axis=0), axis=0)


def _stack_rows(rows) -> Node:
    """The vectors ``rows``, one per row of a matrix."""
    width = rows[0].shape[0]
    return eg.concat([eg.expand(r, (1, width)) for r in rows], axis=0)


def _identity(x: Node, y: Node) -> tuple[Node, Node]:
    return x, y


class HamiltonianSpec:
    """Base of the variant specs: a dataclass subclass keeps each network in a
    field named ``<role>_net``, defines ``field_nodes(q, p, prefix)`` and draws
    its fresh fields from a validated ``ModelConfig`` in ``init_fields(cfg, rng)``."""

    def param_items(self, prefix: str) -> list[tuple[str, np.ndarray]]:
        """Ordered (name, array) pairs of the networks; arrays are live storage."""
        items = []
        for f in fields(self):
            if f.name.endswith("_net"):
                role = f.name.removesuffix("_net")
                items.extend(getattr(self, f.name).param_items(f"{prefix}.{role}"))
        return items

    def bindings(self, prefix: str) -> dict:
        return dict(self.param_items(prefix))

    def project(self) -> None:
        """Re-impose the variant's weight constraints in place; none by default."""

    def conservative(self) -> "HamiltonianSpec":
        """The variant without its terms that break energy conservation by design."""
        return self

    def chart(self, q0: Node, p0: Node | None, prefix: str, step: float, momentum=None):
        """The coordinates the solver moves the orbit from (q0, p0) in: the
        field owner, whose ``field_nodes`` gives the chart state's rate, the
        start state, the readout of a chart state to (q, p), and the solver
        step ``step`` in the chart's time.  By default the canonical
        coordinates themselves.  ``momentum``, when given, is the
        ``(net, name)`` of the one linear layer that makes p0 from q0, and
        p0 is None: the chart builds p0 where it reads it."""
        if momentum is not None:
            net, name = momentum
            p0 = net.graph(q0, name)
        return self, q0, p0, _identity, step


class _EnergySpec(HamiltonianSpec):
    """A variant whose field follows the canonical equations of its energy."""

    def field_nodes(self, q: Node, p: Node, prefix: str) -> tuple[Node, Node]:
        """(dH/dp, -dH/dq), taken by the engine from ``energy_node``."""
        total = self.energy_node(q, p, prefix)
        # Partial derivatives at the current state: stop the sweep at q and p so
        # states produced by an unrolled solver are treated as independent inputs.
        # A frozen or degenerate energy may not reference q at all: zero gradient.
        gq, gp = eg.gradient_all(total, [q, p], allow_unused=True, stop_at=(q, p))
        return gp, eg.negate(gq)


class _Relaxed:
    """Adds a position-dependent bias ``bias_net(q)`` to an energy variant's dp."""

    def __post_init__(self):
        super().__post_init__()
        _require_map(self.bias_net, self.q_dim, self.q_dim, "bias net must map d -> d")

    @classmethod
    def init_fields(cls, cfg, rng: np.random.Generator) -> dict:
        d = cfg.hidden_dim
        return {**super().init_fields(cfg, rng), "bias_net": _mlp(cfg, d, d, rng)}

    def field_nodes(self, q: Node, p: Node, prefix: str) -> tuple[Node, Node]:
        dq, dp = super().field_nodes(q, p, prefix)
        return dq, eg.add(dp, self.bias_net.graph(q, f"{prefix}.bias"))

    def conservative(self):
        """A copy whose bias net outputs zero; the spec itself is untouched."""
        zero_bias = copy.deepcopy(self)
        weight, bias, _ = zero_bias.bias_net.layers[-1]
        weight[...] = 0.0
        bias[...] = 0.0
        return zero_bias


@dataclass
class GeodesicMetric(_EnergySpec):
    """Cogeodesic flow of a learnable diagonal (pseudo-)Riemannian metric.

    ``metric_net`` produces the raw diagonal; the inverse metric is
    sign ⊙ (sigmoid(raw) + floor), so each entry keeps |g^ii| in
    (floor, 1 + floor) with the sign pattern fixed by the signature.
    """

    metric_net: MlpParams
    signature: Signature

    def __post_init__(self):
        _require_map(self.metric_net, self.q_dim, self.q_dim, "metric net must map d -> d")

    @classmethod
    def init_fields(cls, cfg, rng: np.random.Generator) -> dict:
        d = cfg.hidden_dim
        return {"metric_net": _mlp(cfg, d, d, rng),
                "signature": cfg.signature or Signature(0, d)}

    @property
    def q_dim(self) -> int:
        return self.signature.dim

    p_dim = q_dim

    def metric_diag_node(self, q: Node, prefix: str) -> Node:
        """Inverse-metric diagonal as a graph: sign ⊙ (sigmoid(raw) + floor)."""
        raw = self.metric_net.graph(q, f"{prefix}.metric")
        positive = eg.add(eg.sigmoid(raw), eg.constant(METRIC_FLOOR))
        return eg.mul(eg.constant(self.signature.sign_vector()), positive)

    def energy_node(self, q: Node, p: Node, prefix: str) -> Node:
        """H = sum_i g^ii p_i^2 / 2, summed over every state."""
        diag = self.metric_diag_node(q, prefix)
        return eg.scale(eg.reduce_sum(eg.mul(diag, eg.mul(p, p))), 0.5)


class _FirstLayerFlow:
    """The flow of an MLP energy E over one solver step in the chart (a, s)
    of ``FlexibleHamiltonian.chart``: a moves by δ·A and s by δ, with
    δ = ∇E(a) and A the chart's skew times the step.  When E has one hidden
    layer φ and a linear output row w1, δ is φ′(a) ⊙ w1, and w1 is folded
    into A and the readout, so the rate is φ′(a) alone."""

    def __init__(self, energy_net: MlpParams, matrix: Node, folded: bool):
        self.energy_net = energy_net
        self.matrix = matrix  # A times the step, and diag(w1) when folded
        self.folded = folded

    def field_nodes(self, a: Node, s: Node, prefix: str) -> tuple[Node, Node]:
        if self.folded:
            act = self.energy_net.layers[0][2]
            delta = eg.slope(eg.ACTIVATIONS[act](a))
        else:
            total = eg.reduce_sum(self.energy_net.graph_after(a, f"{prefix}.energy"))
            [delta] = eg.gradient_all(total, [a], stop_at=(a,))
        return eg.affine(delta, self.matrix), delta


@dataclass
class FlexibleHamiltonian(_EnergySpec):
    """Scalar energy given by a fully connected network on (q, p)."""

    energy_net: MlpParams

    def __post_init__(self):
        _require_map(self.energy_net, 2 * self.q_dim, 1, "energy net must map 2d -> 1")

    @classmethod
    def init_fields(cls, cfg, rng: np.random.Generator) -> dict:
        return {"energy_net": _mlp(cfg, 2 * cfg.hidden_dim, 1, rng)}

    @property
    def q_dim(self) -> int:
        return self.energy_net.input_dim // 2

    p_dim = q_dim

    def energy_node(self, q: Node, p: Node, prefix: str) -> Node:
        """The energy net on the state (q, p), summed over every state."""
        out = self.energy_net.graph([q, p], f"{prefix}.energy")
        return eg.reduce_sum(out)

    def chart(self, q0: Node, p0: Node | None, prefix: str, step: float, momentum=None):
        """First-layer coordinates: with a = q Wqᵀ + p Wpᵀ + b the energy
        net's first pre-activation and H(q, p) = E(a), the canonical flow is
        ȧ = ∇E(a)·A with the constant skew A = Wp Wqᵀ − Wq Wpᵀ, and
        q = q0 + s·Wp, p = p0 − s·Wq with s = ∫∇E(a) dt.  The chart's time
        unit is the solver step h, which multiplies A, Wp and Wq here.  When
        E has one hidden layer φ and a linear output row w1, ∇E(a) is
        φ′(a) ⊙ w1, and diag(w1) multiplies them too, so s is ∫φ′(a).  A
        field step costs one (n, H)×(H, H) product; s starts as a zero fill.

        With ``momentum = (net, mname)``, p0 = q0 Wmᵀ + bm, and the two maps
        compose on the parameters before they meet the rows: a0 = q0·C + c
        with C = Wqᵀ + Wmᵀ Wpᵀ and c = bm Wpᵀ + b, one (n, d)×(d, H)
        product labelled as the momentum layer, and p0 is built only for
        the readout's p."""
        name = f"{prefix}.energy"
        layers = self.energy_net.layers
        w0 = eg.parameter(f"{name}.w0", layers[0][0].shape)
        wq, wp = eg.narrow(w0, 0, self.q_dim), eg.narrow(w0, self.q_dim, 2 * self.q_dim)
        if momentum is None:
            a0 = self.energy_net.layer_node(0, [q0, p0], name)
        else:
            net, mname = momentum
            [(w, b, act)] = net.layers
            if act is not None:
                raise ValueError("only a linear momentum map folds into the chart")
            wm, bm = eg.parameter(f"{mname}.w0", w.shape), eg.parameter(f"{mname}.b0", b.shape)
            b0 = eg.parameter(f"{name}.b0", layers[0][1].shape)
            start = eg.transpose(eg.add(wq, eg.affine(wp, wm)))
            a0 = eg.add(eg.affine(q0, start, label=f"{mname} layer 0"),
                        eg.add(eg.affine(bm, eg.transpose(wp)), b0))
            p0 = eg.add(eg.affine(q0, eg.transpose(wm)), bm)  # unlabelled: read by p only
        m = eg.affine(wp, eg.transpose(wq))
        skew = eg.sub(m, eg.transpose(m))  # M − Mᵀ: skew in every bit
        folded = len(layers) == 2 and layers[0][2] is not None and layers[1][2] is None
        if folded:  # the rows of every matrix times h·w1
            w1 = eg.parameter(f"{name}.w1", layers[1][0].shape)
            row = eg.scale(eg.reduce_sum(w1, axis=0), step)
            fold = lambda x: eg.mul(eg.expand(row, x.shape, column=True), x)
        else:
            fold = lambda x: eg.scale(x, step)
        matrix, wp, wq = fold(skew), fold(wp), fold(wq)

        def readout(a: Node, s: Node) -> tuple[Node, Node]:
            if eg._is_zero_fill(s):
                return q0, p0
            return eg.add(q0, eg.affine(s, wp)), eg.sub(p0, eg.affine(s, wq))
        flow = _FirstLayerFlow(self.energy_net, matrix, folded)
        return flow, a0, eg.zeros_like(a0), readout, 1.0


@dataclass
class ConvexHamiltonian(FlexibleHamiltonian):
    """Learned energy constrained to be convex in (q, p).

    The first layer is unconstrained; weights from the second layer on are
    non-negative and every activation is convex and non-decreasing.
    """

    def __post_init__(self):
        for i, (w, _, act) in enumerate(self.energy_net.layers):
            if i >= 1 and np.any(w < 0.0):
                raise ValueError(f"layer {i + 1} has negative weights in a "
                                 "convexity-constrained network")
            if act is not None and act not in CONVEX_ACTIVATIONS:
                raise ValueError(f"activation {act!r} is not convex and non-decreasing")
        super().__post_init__()

    @classmethod
    def init_fields(cls, cfg, rng: np.random.Generator) -> dict:
        d, h, act = cfg.hidden_dim, cfg.field_hidden, cfg.convex_activation
        net = MlpParams.init((2 * d, h, h, 1), (act, act, None), rng)
        for w, _, _ in net.layers[1:]:
            np.abs(w, out=w)  # start inside the feasible set
        return {"energy_net": net}

    def project(self) -> None:
        """Clamp layer-2+ weights to be non-negative, in place; layer 1 and
        all biases stay untouched."""
        for w, _, _ in self.energy_net.layers[1:]:
            np.maximum(w, 0.0, out=w)


@dataclass
class RelaxedHamiltonian(_Relaxed, FlexibleHamiltonian):
    """Learned energy plus a position-dependent bias added to the momentum flow."""

    bias_net: MlpParams

    chart = HamiltonianSpec.chart  # the bias reads q at every step


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
    eps: float

    chart = HamiltonianSpec.chart  # the form reads (q, p) at every step

    def __post_init__(self):
        super().__post_init__()
        two_d = 2 * self.q_dim
        _require_map(self.form_net, two_d, two_d, "form net must map 2d -> 2d")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")

    @classmethod
    def init_fields(cls, cfg, rng: np.random.Generator) -> dict:
        two_d = 2 * cfg.hidden_dim
        return {"energy_net": _mlp(cfg, two_d, 1, rng, "sin"),
                "form_net": _mlp(cfg, two_d, two_d, rng, "sin"), "eps": cfg.eps}

    @classmethod
    def canonical(cls, energy_net: MlpParams) -> "LearnedSymplecticForm":
        """The form frozen at the canonical one-form coefficients (p, 0), whose
        flow is the canonical equations of ``energy_net``."""
        d = energy_net.input_dim // 2
        coeff = np.zeros((2 * d, 2 * d))
        coeff[:d, d:] = np.eye(d)
        # W is already nonsingular here, so the regularizer only has to be
        # small enough not to perturb the canonical flow
        return cls(energy_net, MlpParams([(coeff, np.zeros(2 * d), None)]), eps=1e-12)

    def skew_node(self, z: Node, prefix: str) -> Node:
        """W at one state z = (q, p): W_ab = d_a f_b - d_b f_a = (J^T - J)_ab
        for J_ij = df_i/dz_j, with J assembled row by row."""
        f_out = self.form_net.graph(z, f"{prefix}.form")
        rows = [eg.gradient_all(eg.reduce_sum(eg.narrow(f_out, a, a + 1)), [z],
                                allow_unused=True, stop_at=(z,))[0]
                for a in range(2 * self.q_dim)]
        jac = _stack_rows(rows)
        return eg.sub(eg.transpose(jac), jac)

    def field_nodes(self, q: Node, p: Node, prefix: str) -> tuple[Node, Node]:
        """One solve per state; a batch is solved row by row.  grad H is the
        canonical field's (dH/dp, -dH/dq) of the same energy graph, turned
        back into (dH/dq, dH/dp)."""
        if len(q.shape) == 2:
            dqs, dps = zip(*[self.field_nodes(_row(q, i), _row(p, i), prefix)
                             for i in range(q.shape[0])])
            return _stack_rows(dqs), _stack_rows(dps)
        d = self.q_dim
        regular = eg.add(self.skew_node(eg.concat([q, p], axis=-1), prefix),
                         eg.constant(self.eps * canonical_skew_matrix(d)))
        dh_dp, minus_dh_dq = super().field_nodes(q, p, prefix)
        flow = eg.solve(regular, eg.concat([eg.negate(minus_dh_dq), dh_dp]))
        return eg.narrow(flow, 0, d), eg.narrow(flow, d, 2 * d)


@dataclass
class GeodesicRelaxed(_Relaxed, GeodesicMetric):
    """Cogeodesic flow with an extra position-dependent bias on the momentum."""

    bias_net: MlpParams


@dataclass
class HigherDimMomentum(HamiltonianSpec):
    """Coupled flow with a momentum of dimension k, not necessarily d.

    dq = phi(h1(p) - rho q), dp = phi(h2(q) - rho p).  No scalar energy.
    """

    h1_net: MlpParams
    h2_net: MlpParams
    rho: float
    phi: str

    def __post_init__(self):
        if self.rho < 0.0:
            raise ValueError("rho must be non-negative")
        if self.phi not in eg.ACTIVATIONS:
            raise ValueError(f"unknown activation tag {self.phi!r}")
        _require_map(self.h1_net, self.p_dim, self.q_dim, "h1 net must map k -> d")
        _require_map(self.h2_net, self.q_dim, self.p_dim, "h2 net must map d -> k")

    @classmethod
    def init_fields(cls, cfg, rng: np.random.Generator) -> dict:
        d, k = cfg.hidden_dim, cfg.momentum_dim or cfg.hidden_dim
        return {"h1_net": _mlp(cfg, k, d, rng), "h2_net": _mlp(cfg, d, k, rng),
                "rho": cfg.rho, "phi": cfg.phi}

    @property
    def q_dim(self) -> int:
        return self.h1_net.output_dim

    @property
    def p_dim(self) -> int:
        return self.h2_net.output_dim

    def field_nodes(self, q: Node, p: Node, prefix: str) -> tuple[Node, Node]:
        phi = eg.ACTIVATIONS[self.phi]
        dq = phi(eg.add(self.h1_net.graph(p, f"{prefix}.h1"),
                        eg.negate(eg.scale(q, self.rho))))
        dp = phi(eg.add(self.h2_net.graph(q, f"{prefix}.h2"),
                        eg.negate(eg.scale(p, self.rho))))
        return dq, dp


@dataclass
class VanillaOde(HamiltonianSpec):
    """First-order baseline dq = f(q); the momentum is carried but frozen."""

    f_net: MlpParams

    def __post_init__(self):
        _require_map(self.f_net, self.q_dim, self.q_dim, "baseline field must map d -> d")
        if len(self.f_net.layers) != 2:
            raise ValueError("baseline field uses exactly two affine layers")

    @classmethod
    def init_fields(cls, cfg, rng: np.random.Generator) -> dict:
        return {"f_net": _mlp(cfg, cfg.hidden_dim, cfg.hidden_dim, rng)}

    @property
    def q_dim(self) -> int:
        return self.f_net.input_dim

    p_dim = q_dim

    def field_nodes(self, q: Node, p: Node, prefix: str) -> tuple[Node, Node]:
        return self.f_net.graph(q, f"{prefix}.f"), eg.zeros_like(p)


# the variant tags of ``ModelConfig.variant``
VARIANTS: dict[str, type[HamiltonianSpec]] = {
    "geodesic": GeodesicMetric, "flexible": FlexibleHamiltonian,
    "convex": ConvexHamiltonian, "relaxed": RelaxedHamiltonian,
    "symplectic": LearnedSymplecticForm, "geodesic_relaxed": GeodesicRelaxed,
    "higher_dim": HigherDimMomentum, "vanilla_ode": VanillaOde,
}


def make_spec(cfg, rng: np.random.Generator) -> HamiltonianSpec:
    """A freshly initialized spec of the variant a validated ``ModelConfig`` names."""
    cls = VARIANTS[cfg.variant]
    return cls(**cls.init_fields(cfg, rng))


def has_hamiltonian(spec) -> bool:
    return hasattr(spec, "energy_node")


def hamiltonian_node(spec, q: Node, p: Node, prefix: str = "field") -> Node:
    """Energy of the variant as a graph over q and p.

    Scalar for one state.  For batched (row-per-state) inputs it is the batch
    total, whose gradient gives every state's field at once.
    """
    if not has_hamiltonian(spec):
        raise ValueError("variant has no Hamiltonian")
    return spec.energy_node(q, p, prefix)


def canonical_skew_matrix(d: int) -> np.ndarray:
    """Skew block matrix whose solve alone reproduces the canonical flow."""
    k = np.zeros((2 * d, 2 * d))
    k[:d, d:] = -np.eye(d)
    k[d:, :d] = np.eye(d)
    return k


def phase_velocity_nodes(spec, q: Node, p: Node,
                         prefix: str = "field") -> tuple[Node, Node]:
    """Graphs for (dq/dt, dp/dt) under the variant's equations, or for the
    rate of a chart state when ``spec`` is the field owner of a ``chart``.

    Accepts a single state (vectors) or a batch (row per state).
    """
    return spec.field_nodes(q, p, prefix)


# ---------------------------------------------------------------------------
# verification helpers


def check_field_gradients(spec, n_states: int, rng: np.random.Generator,
                          fd_step: float = 1e-5, tol: float = 1e-5) -> dict:
    """Check the field against finite differences of the energy.

    The conservative form of a canonical-equation variant must have the
    field (dH/dp, -dH/dq); each partial is compared against central
    differences of the energy over random states.  Graphs are built once and
    re-evaluated per state.
    """
    spec = spec.conservative()
    d = spec.q_dim
    base = spec.bindings("field")
    q_leaf = eg.parameter("q", (d,))
    p_leaf = eg.parameter("p", (d,))
    h_node = hamiltonian_node(spec, q_leaf, p_leaf, "field")
    field_nodes = phase_velocity_nodes(spec, q_leaf, p_leaf, "field")
    worst = 0.0
    for _ in range(n_states):
        binds = {**base, "q": rng.uniform(-1, 1, d), "p": rng.uniform(-1, 1, d)}
        dq, dp = eg.evaluate(field_nodes, binds)
        fd_p = eg.finite_difference(h_node, p_leaf, binds, fd_step)
        fd_q = eg.finite_difference(h_node, q_leaf, binds, fd_step)
        worst = max(worst, eg.relative_error(dq, fd_p), eg.relative_error(dp, -fd_q))
    return {"max_relative_error": worst, "tolerance": tol, "passed": worst <= tol}

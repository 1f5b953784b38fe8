"""Dynamics variants: metric diagonals, energies, fields, the learned
two-form, and the convexity projection."""

from dataclasses import dataclass

import numpy as np
import pytest

from hamgnn import engine as eg
from hamgnn import hamiltonian as ham
from hamgnn import odeint as oi
from hamgnn.hamiltonian import PhaseState, Signature
from hamgnn.odeint import IntegrationConfig
from oracles import concat_energy_spec


def zero_energy_net(d):
    return eg.MlpParams([(np.zeros((4, 2 * d)), np.zeros(4), "tanh"),
                         (np.zeros((1, 4)), np.zeros(1), None)])


def canonical_symplectic(d, rng):
    return ham.LearnedSymplecticForm.canonical(
        eg.MlpParams.init((2 * d, 12, 1), ("tanh", None), rng))


def at_state(spec, graph, *arrays):
    """The value of ``graph(*leaves)`` over constant leaves holding ``arrays``,
    with the spec's networks bound as in a layer's field."""
    return eg.evaluate(graph(*map(eg.constant, arrays)), spec.bindings("field"))


def energy(spec, state):
    return float(at_state(spec, lambda q, p: ham.hamiltonian_node(spec, q, p),
                          state.q, state.p))


def field(spec, state):
    return at_state(spec, lambda q, p: spec.field_nodes(q, p, "field"),
                    state.q, state.p)


def metric_diag(spec, q):
    return at_state(spec, lambda q: spec.metric_diag_node(q, "field"), q)


def skew(spec, state):
    return at_state(spec, lambda z: spec.skew_node(z, "field"),
                    np.concatenate([state.q, state.p]))


# ---------------------------------------------------------------------------
# types


def test_phase_state_validation():
    with pytest.raises(ValueError, match="finite"):
        PhaseState([np.nan], [0.0])
    st = PhaseState([1.0, 2.0], [3.0, 4.0])
    assert st.dim == 2


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 3)
    assert Signature(2, 3).sign_vector().tolist() == [-1, -1, 1, 1, 1]


def test_vanilla_ode_requires_two_layers(rng):
    with pytest.raises(ValueError, match="two affine layers"):
        ham.VanillaOde(eg.MlpParams.init((3, 4, 4, 3), ("tanh", "tanh", None), rng))


# ---------------------------------------------------------------------------
# inverse-metric diagonal


def test_metric_diag_zero_net_positive_signature():
    net = eg.MlpParams([(np.zeros((2, 2)), np.zeros(2), None)])
    spec = ham.GeodesicMetric(net, Signature(0, 2))
    assert metric_diag(spec, [0.7, -0.3]) == pytest.approx([0.51, 0.51])


def test_metric_diag_zero_net_mixed_signature():
    net = eg.MlpParams([(np.zeros((2, 2)), np.zeros(2), None)])
    spec = ham.GeodesicMetric(net, Signature(1, 1))
    assert metric_diag(spec, [0.0, 0.0]) == pytest.approx([-0.51, 0.51])


def test_metric_diag_bounds_and_signs_random(rng, new_spec):
    spec = new_spec("geodesic", 4, 8, rng, signature=Signature(1, 3))
    signs = np.array([-1.0, 1.0, 1.0, 1.0])
    for _ in range(1000):
        diag = metric_diag(spec, rng.uniform(-3, 3, 4))
        assert np.all(np.abs(diag) > 0.01)
        assert np.all(np.abs(diag) < 1.01)
        assert np.all(np.sign(diag) == signs)


def test_metric_diag_sign_pattern_is_function_of_signature(rng, new_spec):
    d = 8
    for r in range(d + 1):
        spec = new_spec("geodesic", d, 8, rng, signature=Signature(r, d - r))
        diag = metric_diag(spec, rng.uniform(-1, 1, d))
        expected = np.concatenate([-np.ones(r), np.ones(d - r)])
        assert np.all(np.sign(diag) == expected)


# ---------------------------------------------------------------------------
# energy


def test_energy_frozen_unit_metric(rng, frozen_metric, new_spec):
    spec = frozen_metric(new_spec("geodesic", 2, 8, rng), np.ones(2))
    assert energy(spec, PhaseState([9.0, -2.0], [3.0, 4.0])) == 12.5


def test_energy_zero_network_is_zero(rng):
    spec = ham.FlexibleHamiltonian(zero_energy_net(3))
    for _ in range(10):
        st = PhaseState(rng.normal(size=3), rng.normal(size=3))
        assert energy(spec, st) == 0.0


def test_energy_negative_frozen_metric(rng, frozen_metric, new_spec):
    spec = frozen_metric(
        new_spec("geodesic", 2, 8, rng, signature=Signature(2, 0)), -np.ones(2))
    assert energy(spec, PhaseState([0.0, 0.0], [1.0, 1.0])) == -1.0


@pytest.mark.parametrize("tag", ["higher_dim", "vanilla_ode"])
def test_energyless_variants_raise(tag, rng, new_spec):
    spec = new_spec(tag, 3, 8, rng)
    with pytest.raises(ValueError, match="variant has no Hamiltonian"):
        energy(spec, PhaseState(np.zeros(3), np.zeros(3)))


# ---------------------------------------------------------------------------
# field


def test_harmonic_oscillator_field(rng, oscillator, new_spec):
    spec = oscillator(new_spec("flexible", 2, 8, rng))
    dq, dp = field(spec, PhaseState([1.0, 0.0], [0.0, 1.0]))
    assert dq.tolist() == [0.0, 1.0]
    assert dp.tolist() == [-1.0, 0.0]


def test_free_particle_field(rng, frozen_metric, new_spec):
    spec = frozen_metric(new_spec("geodesic", 2, 8, rng), np.ones(2))
    dq, dp = field(spec, PhaseState([0.4, 0.5], [2.0, -1.0]))
    assert dq.tolist() == [2.0, -1.0]
    assert dp == pytest.approx([0.0, 0.0])


def test_canonical_form_reproduces_plain_field(rng):
    d = 3
    sw = canonical_symplectic(d, rng)
    plain = ham.FlexibleHamiltonian(sw.energy_net)
    for _ in range(5):
        st = PhaseState(rng.normal(size=d), rng.normal(size=d))
        dq1, dp1 = field(sw, st)
        dq2, dp2 = field(plain, st)
        assert eg.relative_error(dq1, dq2) <= 1e-8
        assert eg.relative_error(dp1, dp2) <= 1e-8


def assert_field_adds_bias(spec, plain, rng):
    st = PhaseState(rng.normal(size=3), rng.normal(size=3))
    dq_r, dp_r = field(spec, st)
    dq_p, dp_p = field(plain, st)
    q_leaf = eg.parameter("q", (3,))
    bias = eg.evaluate(spec.bias_net.graph(q_leaf, "b"),
                       {"q": st.q, **spec.bias_net.bindings("b")})
    assert dq_r == pytest.approx(dq_p)
    assert dp_r == pytest.approx(dp_p + bias)


def test_relaxed_field_adds_position_bias(rng, new_spec):
    spec = new_spec("relaxed", 3, 8, rng)
    assert_field_adds_bias(spec, ham.FlexibleHamiltonian(spec.energy_net), rng)


def test_geodesic_relaxed_field_adds_position_bias(rng, new_spec):
    spec = new_spec("geodesic_relaxed", 3, 8, rng)
    assert_field_adds_bias(spec, ham.GeodesicMetric(spec.metric_net, spec.signature), rng)


def test_higher_dim_momentum_field_matches_direct_formula(rng, new_spec):
    spec = new_spec("higher_dim", 3, 8, rng, momentum_dim=5, rho=0.25)
    q = rng.normal(size=3)
    p = rng.normal(size=5)
    dq, dp = field(spec, PhaseState(q, p))

    def run(net, v):
        out = v
        for w, b, act in net.layers:
            out = out @ w.T + b
            if act == "tanh":
                out = np.tanh(out)
        return out

    assert dq == pytest.approx(np.tanh(run(spec.h1_net, p) - 0.25 * q))
    assert dp == pytest.approx(np.tanh(run(spec.h2_net, q) - 0.25 * p))


def test_vanilla_ode_field_ignores_momentum(rng, new_spec):
    spec = new_spec("vanilla_ode", 3, 8, rng)
    q = rng.normal(size=3)
    dq1, dp1 = field(spec, PhaseState(q, rng.normal(size=3)))
    dq2, dp2 = field(spec, PhaseState(q, rng.normal(size=3)))
    assert np.array_equal(dq1, dq2)
    assert dp1.tolist() == [0.0, 0.0, 0.0]


def test_batched_field_matches_per_state(rng, new_spec):
    for tag in ("geodesic", "flexible", "convex", "relaxed", "geodesic_relaxed",
                "symplectic", "higher_dim", "vanilla_ode"):
        spec = (canonical_symplectic(3, rng) if tag == "symplectic"
                else new_spec(tag, 3, 8, rng))
        qb = rng.normal(size=(4, 3))
        pb = rng.normal(size=(4, spec.p_dim))
        qn = eg.parameter("qb", qb.shape)
        pn = eg.parameter("pb", pb.shape)
        dq_n, dp_n = ham.phase_velocity_nodes(spec, qn, pn, "field")
        binds = {"qb": qb, "pb": pb, **spec.bindings("field")}
        dq, dp = eg.evaluate([dq_n, dp_n], binds)
        for i in range(4):
            dq_i, dp_i = field(spec, PhaseState(qb[i], pb[i]))
            assert eg.relative_error(dq[i], dq_i) <= 1e-12, tag
            assert eg.relative_error(dp[i], dp_i) <= 1e-12, tag


# ---------------------------------------------------------------------------
# spec interface


@dataclass
class Rotation(ham.HamiltonianSpec):
    """A variant defined outside the library: the field dq = p, dp = -q.
    Its one network is a trainable parameter that the field does not read."""

    carried_net: eg.MlpParams
    q_dim = p_dim = 1

    def field_nodes(self, q, p, prefix):
        return p, eg.negate(q)


def test_spec_subclass_supplies_its_own_field(rng):
    spec = Rotation(eg.MlpParams.init((1, 2, 1), ("tanh", None), rng))
    items = spec.param_items("field")
    expected = spec.carried_net.param_items("field.carried")
    assert [n for n, _ in items] == [n for n, _ in expected]
    assert all(a is b for (_, a), (_, b) in zip(items, expected))

    traj = oi.integrate(spec, PhaseState([1.0], [0.0]),
                        IntegrationConfig("rk4", 1.0, 0.01))
    for t, st in zip(traj.times, traj.states):
        assert abs(st.q[0] - np.cos(t)) <= 1e-6
        assert abs(st.p[0] + np.sin(t)) <= 1e-6


@pytest.mark.parametrize("tag", ham.VARIANTS)
def test_conservative_form_zeroes_only_the_relaxed_bias(tag, rng, new_spec):
    spec = new_spec(tag, 3, 8, rng)
    before = [(n, a.tobytes()) for n, a in spec.param_items("field")]
    kept = spec.conservative()
    assert [(n, a.tobytes()) for n, a in spec.param_items("field")] == before
    if tag not in ("relaxed", "geodesic_relaxed"):
        assert kept is spec
        return
    assert type(kept) is type(spec)
    q = eg.parameter("q", (3,))
    bias = eg.evaluate(kept.bias_net.graph(q, "b"),
                       {"q": rng.normal(size=3), **kept.bias_net.bindings("b")})
    assert np.all(bias == 0.0)
    for (name, old), (_, new) in zip(before, kept.param_items("field")):
        if ".bias." not in name:
            assert new.tobytes() == old, name


# ---------------------------------------------------------------------------
# learned two-form


def test_assemble_w_linear_form(rng):
    # f(z) = Az has constant Jacobian A, so W_ab = d_a f_b - d_b f_a = (A^T - A)_ab
    d = 2
    a = rng.normal(size=(2 * d, 2 * d))
    spec = ham.LearnedSymplecticForm(
        eg.MlpParams.init((2 * d, 4, 1), ("tanh", None), rng),
        eg.MlpParams([(a, np.zeros(2 * d), None)]), eps=1e-3)
    w = skew(spec, PhaseState(rng.normal(size=d), rng.normal(size=d)))
    assert w == pytest.approx(a.T - a)


def test_assemble_w_gradient_form_vanishes(rng):
    # f = grad of a quadratic means f(z) = Sz with S symmetric, so W = 0
    d = 2
    s = rng.normal(size=(2 * d, 2 * d))
    s = s + s.T
    spec = ham.LearnedSymplecticForm(
        eg.MlpParams.init((2 * d, 4, 1), ("tanh", None), rng),
        eg.MlpParams([(s, np.zeros(2 * d), None)]), eps=1e-3)
    w = skew(spec, PhaseState(rng.normal(size=d), rng.normal(size=d)))
    assert np.max(np.abs(w)) <= 1e-12


def test_assemble_w_random_net_skew_and_fd(rng, new_spec):
    d = 3
    spec = new_spec("symplectic", d, 8, rng)
    st = PhaseState(rng.normal(size=d), rng.normal(size=d))
    w = skew(spec, st)
    assert np.max(np.abs(w + w.T)) == 0.0

    z0 = np.concatenate([st.q, st.p])
    leaf = eg.parameter("z", (2 * d,))
    f_graph = spec.form_net.graph(leaf, "form")
    binds = spec.form_net.bindings("form")

    def f_at(z):
        return eg.evaluate(f_graph, {**binds, "z": z})

    step = 1e-6
    jac = np.zeros((2 * d, 2 * d))
    for j in range(2 * d):
        plus, minus = z0.copy(), z0.copy()
        plus[j] += step
        minus[j] -= step
        jac[:, j] = (f_at(plus) - f_at(minus)) / (2 * step)
    assert eg.relative_error(w, jac.T - jac) <= 1e-6


# ---------------------------------------------------------------------------
# project


def test_project_convex_clamps_later_layers(rng, new_spec):
    spec = new_spec("convex", 3, 8, rng)
    spec.energy_net.layers[1][0][0, 0] = -0.3
    spec.energy_net.layers[1][0][0, 1] = 0.7
    first = spec.energy_net.layers[0][0]
    first[0, 0] = -0.3
    spec.project()
    assert spec.energy_net.layers[1][0][0, 0] == 0.0
    assert spec.energy_net.layers[1][0][0, 1] == 0.7
    assert first[0, 0] == -0.3
    assert all(np.all(w >= 0.0) for w, _, _ in spec.energy_net.layers[1:])


def test_convex_energy_validation():
    layers = [(np.array([[-1.0, 2.0]]), np.zeros(1), "rehu"),
              (np.array([[-0.5]]), np.zeros(1), None)]
    with pytest.raises(ValueError, match="layer 2 has negative weights"):
        ham.ConvexHamiltonian(eg.MlpParams(layers))
    with pytest.raises(ValueError, match="'tanh' is not convex"):
        ham.ConvexHamiltonian(eg.MlpParams([(np.ones((2, 2)), np.zeros(2), "tanh"),
                                            (np.ones((1, 2)), np.zeros(1), None)]))


def test_convex_variant_admits_kappa_activations(rng, new_spec):
    spec = new_spec("convex", 3, 8, rng, convex_activation="kappa")
    st = PhaseState(rng.normal(size=3), rng.normal(size=3))
    assert np.isfinite(energy(spec, st))
    assert ham.check_field_gradients(spec, 5, rng)["passed"]


@pytest.mark.parametrize("activation", ham.CONVEX_ACTIVATIONS)
def test_convexity_witness(rng, new_spec, activation):
    spec = new_spec("convex", 4, 8, rng, convex_activation=activation)
    spec.project()
    for _ in range(1000):
        a = PhaseState(rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4))
        b = PhaseState(rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4))
        lam = rng.uniform(0.0, 1.0)
        mid = PhaseState(lam * a.q + (1 - lam) * b.q, lam * a.p + (1 - lam) * b.p)
        h_mid = energy(spec, mid)
        bound = lam * energy(spec, a) + (1 - lam) * energy(spec, b)
        assert h_mid <= bound + 1e-10


# ---------------------------------------------------------------------------
# gradient-path identity (small version; the acceptance suite runs the full one)


@pytest.mark.parametrize("tag", ["geodesic", "flexible", "convex", "relaxed",
                                 "geodesic_relaxed"])
def test_field_matches_energy_finite_differences(tag, rng, new_spec):
    for d in (2, 8):
        spec = new_spec(tag, d, 8, rng)
        rep = ham.check_field_gradients(spec, 10, rng)
        assert rep["passed"], (tag, d, rep)


@pytest.mark.parametrize("tag", ["flexible", "convex", "relaxed", "symplectic"])
def test_split_energy_input_matches_the_concat_reference(tag, rng, new_spec):
    d = 3
    spec = new_spec(tag, d, 8, rng)
    reference = concat_energy_spec(spec)
    q, p = eg.parameter("q", (d,)), eg.parameter("p", (d,))
    leaves = [q, p] + [eg.parameter(name, arr.shape)
                       for name, arr in spec.param_items("field")]
    weights = [eg.constant(rng.normal(size=d)) for _ in range(2)]

    def outputs(s):
        """Energy, field and the gradients of a fixed weighting of both."""
        energy = ham.hamiltonian_node(s, q, p)
        dq, dp = s.field_nodes(q, p, "field")
        probe = eg.add(energy, eg.add(eg.reduce_sum(eg.mul(dq, weights[0])),
                                      eg.reduce_sum(eg.mul(dp, weights[1]))))
        # the symplectic form net's last bias is read by no field
        return [energy, dq, dp,
                *eg.gradient_all(probe, leaves, allow_unused=tag == "symplectic")]

    got, want = outputs(spec), outputs(reference)
    for _ in range(5):
        binds = {**spec.bindings("field"), "q": rng.uniform(-1, 1, d),
                 "p": rng.uniform(-1, 1, d)}
        for g, w in zip(eg.evaluate(got, binds), eg.evaluate(want, binds)):
            assert eg.relative_error(g, w) <= 1e-12
    if tag == "symplectic":
        return  # its field follows its two-form, not the canonical equations
    for s in (spec, reference):
        assert ham.check_field_gradients(s, 10, rng)["passed"]


def test_symplectic_field_differentiates_the_energy_graph_of_the_diagnostics(rng, new_spec):
    spec = new_spec("symplectic", 3, 4, rng)
    q, p = eg.parameter("q", (3,)), eg.parameter("p", (3,))
    dq, dp = spec.field_nodes(q, p, "field")
    nodes = eg._reachable([dq, dp])
    energy = [n for n in nodes if n.op == "affine"
              and n.attrs.get("label", "").startswith("field.energy")]
    # hamiltonian_node's first energy layer takes q and p apart: no energy
    # affine reads the joined state, which only the two-form's net reads
    assert {n.inputs[0] for n in energy if n.attrs["label"].endswith("layer 0")} == {q, p}
    assert not [n for n in energy if n.inputs[0].op == "concat"]
    assert [n for n in nodes if n.op == "affine" and n.inputs[0].op == "concat"
            and n.attrs.get("label") == "field.form layer 0"]
    # grad H = (dH/dq, dH/dp) with the canonical field's negation folded away
    (grad_h,) = [n.inputs[1] for n in nodes if n.op == "solve"]
    assert grad_h.op == "concat"
    assert not [part for part in grad_h.inputs if part.op == "scale"]

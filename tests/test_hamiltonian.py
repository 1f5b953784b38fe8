"""Dynamics variants: metric diagonals, energies, fields, the learned
two-form, and the convexity projection."""

import numpy as np
import pytest

from hamgnn import engine as eg
from hamgnn import hamiltonian as ham
from hamgnn.hamiltonian import PhaseState, Signature


def zero_energy_net(d):
    return eg.MlpParams([(np.zeros((4, 2 * d)), np.zeros(4), "tanh"),
                         (np.zeros((1, 4)), np.zeros(1), None)])


def canonical_symplectic(d, rng, eps=1e-12):
    """Learned form frozen at the canonical one-form coefficients (p, 0)."""
    coeff = np.zeros((2 * d, 2 * d))
    coeff[:d, d:] = np.eye(d)
    return ham.LearnedSymplecticForm(
        eg.MlpParams.init((2 * d, 12, 1), ("tanh", None), rng),
        eg.MlpParams([(coeff, np.zeros(2 * d), None)]), eps=eps)


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


def test_make_spec_rejects_unknown_tag(rng):
    with pytest.raises(ValueError, match="unknown variant"):
        ham.make_spec("nope", 4, 8, rng)


def test_make_spec_rejects_signature_mismatch(rng):
    with pytest.raises(ValueError, match="signature"):
        ham.make_spec("geodesic", 4, 8, rng, signature=Signature(1, 2))


def test_vanilla_ode_requires_two_layers(rng):
    with pytest.raises(ValueError, match="two affine layers"):
        ham.VanillaOde(eg.MlpParams.init((3, 4, 4, 3), ("tanh", "tanh", None), rng))


# ---------------------------------------------------------------------------
# metric_inverse_diag


def test_metric_diag_zero_net_positive_signature():
    net = eg.MlpParams([(np.zeros((2, 2)), np.zeros(2), None)])
    spec = ham.GeodesicMetric(net, Signature(0, 2))
    out = ham.metric_inverse_diag(spec, [0.7, -0.3])
    assert out.array == pytest.approx([0.51, 0.51])


def test_metric_diag_zero_net_mixed_signature():
    net = eg.MlpParams([(np.zeros((2, 2)), np.zeros(2), None)])
    spec = ham.GeodesicMetric(net, Signature(1, 1))
    out = ham.metric_inverse_diag(spec, [0.0, 0.0])
    assert out.array == pytest.approx([-0.51, 0.51])


def test_metric_diag_bounds_and_signs_random(rng):
    spec = ham.make_spec("geodesic", 4, 8, rng, signature=Signature(1, 3))
    signs = np.array([-1.0, 1.0, 1.0, 1.0])
    for _ in range(1000):
        diag = ham.metric_inverse_diag(spec, rng.uniform(-3, 3, 4)).array
        assert np.all(np.abs(diag) > 0.01)
        assert np.all(np.abs(diag) < 1.01)
        assert np.all(np.sign(diag) == signs)


def test_metric_diag_sign_pattern_is_function_of_signature(rng):
    d = 8
    for r in range(d + 1):
        spec = ham.make_spec("geodesic", d, 8, rng, signature=Signature(r, d - r))
        diag = ham.metric_inverse_diag(spec, rng.uniform(-1, 1, d)).array
        expected = np.concatenate([-np.ones(r), np.ones(d - r)])
        assert np.all(np.sign(diag) == expected)


def test_metric_diag_dimension_mismatch(rng):
    spec = ham.make_spec("geodesic", 3, 8, rng)
    with pytest.raises(ValueError, match="dimension"):
        ham.metric_inverse_diag(spec, [1.0, 2.0])


# ---------------------------------------------------------------------------
# eval_hamiltonian


def test_energy_frozen_unit_metric(rng, frozen_metric):
    spec = frozen_metric(ham.make_spec("geodesic", 2, 8, rng), np.ones(2))
    assert ham.eval_hamiltonian(spec, PhaseState([9.0, -2.0], [3.0, 4.0])) == 12.5


def test_energy_zero_network_is_zero(rng):
    spec = ham.FlexibleHamiltonian(zero_energy_net(3))
    for _ in range(10):
        st = PhaseState(rng.normal(size=3), rng.normal(size=3))
        assert ham.eval_hamiltonian(spec, st) == 0.0


def test_energy_negative_frozen_metric(rng, frozen_metric):
    spec = frozen_metric(
        ham.make_spec("geodesic", 2, 8, rng, signature=Signature(2, 0)), -np.ones(2))
    assert ham.eval_hamiltonian(spec, PhaseState([0.0, 0.0], [1.0, 1.0])) == -1.0


@pytest.mark.parametrize("tag", ["higher_dim", "vanilla_ode"])
def test_energyless_variants_raise(tag, rng):
    spec = ham.make_spec(tag, 3, 8, rng)
    with pytest.raises(ValueError, match="variant has no Hamiltonian"):
        ham.eval_hamiltonian(spec, PhaseState(np.zeros(3), np.zeros(3)))


# ---------------------------------------------------------------------------
# phase_velocity


def test_harmonic_oscillator_field(rng, oscillator):
    spec = oscillator(ham.make_spec("flexible", 2, 8, rng))
    dq, dp = ham.phase_velocity(spec, PhaseState([1.0, 0.0], [0.0, 1.0]))
    assert dq.tolist() == [0.0, 1.0]
    assert dp.tolist() == [-1.0, 0.0]


def test_free_particle_field(rng, frozen_metric):
    spec = frozen_metric(ham.make_spec("geodesic", 2, 8, rng), np.ones(2))
    dq, dp = ham.phase_velocity(spec, PhaseState([0.4, 0.5], [2.0, -1.0]))
    assert dq.tolist() == [2.0, -1.0]
    assert dp.array == pytest.approx([0.0, 0.0])


def test_phase_velocity_dimension_mismatch(rng):
    spec = ham.make_spec("flexible", 3, 8, rng)
    with pytest.raises(ValueError, match="dimensions"):
        ham.phase_velocity(spec, PhaseState([1.0, 2.0], [1.0, 2.0]))


def test_canonical_form_reproduces_plain_field(rng):
    d = 3
    sw = canonical_symplectic(d, rng)
    plain = ham.FlexibleHamiltonian(sw.energy_net)
    for _ in range(5):
        st = PhaseState(rng.normal(size=d), rng.normal(size=d))
        dq1, dp1 = ham.phase_velocity(sw, st)
        dq2, dp2 = ham.phase_velocity(plain, st)
        assert eg.relative_error(dq1.array, dq2.array) <= 1e-8
        assert eg.relative_error(dp1.array, dp2.array) <= 1e-8


def test_relaxed_field_adds_position_bias(rng):
    spec = ham.make_spec("relaxed", 3, 8, rng)
    plain = ham.FlexibleHamiltonian(spec.energy_net)
    st = PhaseState(rng.normal(size=3), rng.normal(size=3))
    dq_r, dp_r = ham.phase_velocity(spec, st)
    dq_p, dp_p = ham.phase_velocity(plain, st)
    q_leaf = eg.parameter("q", (3,))
    bias = eg.evaluate(spec.bias_net.graph(q_leaf, "b"),
                       {"q": st.q, **spec.bias_net.bindings("b")})
    assert dq_r.array == pytest.approx(dq_p.array)
    assert dp_r.array == pytest.approx(dp_p.array + bias)


def test_higher_dim_momentum_field_matches_direct_formula(rng):
    spec = ham.make_spec("higher_dim", 3, 8, rng, momentum_dim=5, rho=0.25)
    q = rng.normal(size=3)
    p = rng.normal(size=5)
    dq, dp = ham.phase_velocity(spec, PhaseState(q, p))

    def run(net, v):
        out = v
        for w, b, act in net.layers:
            out = out @ w.T + b
            if act == "tanh":
                out = np.tanh(out)
        return out

    assert dq.array == pytest.approx(np.tanh(run(spec.h1_net, p) - 0.25 * q))
    assert dp.array == pytest.approx(np.tanh(run(spec.h2_net, q) - 0.25 * p))


def test_vanilla_ode_field_ignores_momentum(rng):
    spec = ham.make_spec("vanilla_ode", 3, 8, rng)
    q = rng.normal(size=3)
    dq1, dp1 = ham.phase_velocity(spec, PhaseState(q, rng.normal(size=3)))
    dq2, dp2 = ham.phase_velocity(spec, PhaseState(q, rng.normal(size=3)))
    assert np.array_equal(dq1.array, dq2.array)
    assert dp1.array.tolist() == [0.0, 0.0, 0.0]


def test_batched_field_matches_per_state(rng):
    for tag in ("geodesic", "flexible", "convex", "relaxed", "geodesic_relaxed",
                "symplectic", "higher_dim", "vanilla_ode"):
        spec = (canonical_symplectic(3, rng) if tag == "symplectic"
                else ham.make_spec(tag, 3, 8, rng))
        qb = rng.normal(size=(4, 3))
        pb = rng.normal(size=(4, spec.p_dim))
        qn = eg.parameter("qb", qb.shape)
        pn = eg.parameter("pb", pb.shape)
        dq_n, dp_n = ham.phase_velocity_nodes(spec, qn, pn, "field")
        binds = {"qb": qb, "pb": pb, **ham.spec_bindings(spec, "field")}
        dq, dp = eg.evaluate([dq_n, dp_n], binds)
        for i in range(4):
            dq_i, dp_i = ham.phase_velocity(spec, PhaseState(qb[i], pb[i]))
            assert eg.relative_error(dq[i], dq_i.array) <= 1e-12, tag
            assert eg.relative_error(dp[i], dp_i.array) <= 1e-12, tag


# ---------------------------------------------------------------------------
# assemble_W


def test_assemble_w_linear_form(rng):
    # f(z) = Az has constant Jacobian A, so W_ab = d_a f_b - d_b f_a = (A^T - A)_ab
    d = 2
    a = rng.normal(size=(2 * d, 2 * d))
    spec = ham.LearnedSymplecticForm(
        eg.MlpParams.init((2 * d, 4, 1), ("tanh", None), rng),
        eg.MlpParams([(a, np.zeros(2 * d), None)]))
    w = ham.assemble_W(spec, PhaseState(rng.normal(size=d), rng.normal(size=d)))
    assert w.array == pytest.approx(a.T - a)


def test_assemble_w_gradient_form_vanishes(rng):
    # f = grad of a quadratic means f(z) = Sz with S symmetric, so W = 0
    d = 2
    s = rng.normal(size=(2 * d, 2 * d))
    s = s + s.T
    spec = ham.LearnedSymplecticForm(
        eg.MlpParams.init((2 * d, 4, 1), ("tanh", None), rng),
        eg.MlpParams([(s, np.zeros(2 * d), None)]))
    w = ham.assemble_W(spec, PhaseState(rng.normal(size=d), rng.normal(size=d)))
    assert np.max(np.abs(w.array)) <= 1e-12


def test_assemble_w_random_net_skew_and_fd(rng):
    d = 3
    spec = ham.make_spec("symplectic", d, 8, rng)
    st = PhaseState(rng.normal(size=d), rng.normal(size=d))
    w = ham.assemble_W(spec, st).array
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
# project_convex


def test_project_convex_clamps_later_layers(rng):
    spec = ham.make_spec("convex", 3, 8, rng)
    spec.energy_net.layers[1][0][0, 0] = -0.3
    spec.energy_net.layers[1][0][0, 1] = 0.7
    first = spec.energy_net.layers[0][0]
    first[0, 0] = -0.3
    ham.project_convex(spec)
    assert spec.energy_net.layers[1][0][0, 0] == 0.0
    assert spec.energy_net.layers[1][0][0, 1] == 0.7
    assert first[0, 0] == -0.3
    assert all(np.all(w >= 0.0) for w, _, _ in spec.energy_net.layers[1:])


def test_project_convex_rejects_other_variants(rng):
    with pytest.raises(TypeError):
        ham.project_convex(ham.make_spec("flexible", 3, 8, rng))


def test_convex_variant_admits_kappa_activations(rng):
    spec = ham.make_spec("convex", 3, 8, rng, convex_activation="kappa")
    st = PhaseState(rng.normal(size=3), rng.normal(size=3))
    assert np.isfinite(ham.eval_hamiltonian(spec, st))
    assert ham.check_field_gradients(spec, 5, rng)["passed"]


def test_convexity_witness(rng):
    spec = ham.make_spec("convex", 4, 8, rng)
    ham.project_convex(spec)
    for _ in range(1000):
        a = PhaseState(rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4))
        b = PhaseState(rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4))
        lam = rng.uniform(0.0, 1.0)
        mid = PhaseState(lam * a.q + (1 - lam) * b.q, lam * a.p + (1 - lam) * b.p)
        h_mid = ham.eval_hamiltonian(spec, mid)
        bound = (lam * ham.eval_hamiltonian(spec, a)
                 + (1 - lam) * ham.eval_hamiltonian(spec, b))
        assert h_mid <= bound + 1e-10


# ---------------------------------------------------------------------------
# gradient-path identity (small version; the acceptance suite runs the full one)


@pytest.mark.parametrize("tag", ["geodesic", "flexible", "convex", "relaxed",
                                 "geodesic_relaxed"])
def test_field_matches_energy_finite_differences(tag, rng):
    for d in (2, 8):
        spec = ham.make_spec(tag, d, 8, rng)
        rep = ham.check_field_gradients(spec, 10, rng)
        assert rep["passed"], (tag, d, rep)

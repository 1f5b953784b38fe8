"""Solver correctness: exactness cases, conservation, convergence order,
differentiability through the unrolled steps, and the geodesic oracle."""

import math
import warnings

import numpy as np
import pytest

from hamgnn import engine as eg
from hamgnn import hamiltonian as ham
from hamgnn import odeint as oi
from hamgnn.hamiltonian import PhaseState
from hamgnn.odeint import IntegrationConfig
from oracles import (AnalyticDiagMetric, canonical_integrate_nodes, delta_chart_integrate_nodes,
                     reference_geodesic_check)


def harmonic(oscillator, new_spec, rng, dim=1):
    return oscillator(new_spec("flexible", dim, 4, rng))


def identity_metric(d=2):
    return AnalyticDiagMetric(d, lambda q: np.ones(d),
                              lambda q: np.zeros((d, d)))


def half_plane_metric():
    return AnalyticDiagMetric(
        2,
        lambda q: np.array([q[1] ** 2, q[1] ** 2]),
        lambda q: np.array([[0.0, 0.0], [2 * q[1], 2 * q[1]]]))


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        IntegrationConfig("leapfrog", 1.0, 0.1)
    with pytest.raises(ValueError, match="positive"):
        IntegrationConfig("euler", -1.0, 0.1)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            IntegrationConfig("euler", horizon, 0.1)
    with pytest.raises(ValueError, match="step"):
        IntegrationConfig("euler", 1.0, 2.0)
    with pytest.raises(ValueError, match=r"^step 5e-324 is too small"):
        IntegrationConfig("euler", 1.0, 5e-324)


def test_config_reports_step_adjustment():
    cfg = IntegrationConfig("euler", 1.0, 0.3)
    with pytest.warns(UserWarning, match="does not divide"):
        h = cfg.effective_step
    assert cfg.n_steps == 3
    assert h == pytest.approx(1.0 / 3.0)


def test_config_exact_division_is_silent():
    cfg = IntegrationConfig("euler", 1.0, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cfg.effective_step == 0.25
    assert cfg.n_steps == 4


# ---------------------------------------------------------------------------
# integrate


def test_free_particle_euler_is_exact(rng, frozen_metric, new_spec):
    spec = frozen_metric(new_spec("geodesic", 1, 4, rng), np.ones(1))
    traj = oi.integrate(spec, PhaseState([0.0], [2.0]),
                        IntegrationConfig("euler", 1.0, 0.5))
    assert len(traj.states) == 3
    assert traj.states[-1].q.tolist() == [2.0]
    assert traj.states[-1].p.tolist() == [2.0]


def test_harmonic_oscillator_rk4_full_turn(rng, oscillator, new_spec):
    spec = harmonic(oscillator, new_spec, rng)
    cfg = IntegrationConfig("rk4", 2 * math.pi, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = oi.integrate(spec, PhaseState([1.0], [0.0]), cfg)
    err = math.hypot(traj.states[-1].q[0] - 1.0, traj.states[-1].p[0])
    assert err <= 1e-6


def test_zero_field_keeps_state_fixed(rng):
    spec = ham.FlexibleHamiltonian(
        eg.MlpParams([(np.zeros((4, 4)), np.zeros(4), "tanh"),
                      (np.zeros((1, 4)), np.zeros(1), None)]))
    st = PhaseState(rng.normal(size=2), rng.normal(size=2))
    traj = oi.integrate(spec, st, IntegrationConfig("euler", 1.0, 0.25))
    for s in traj.states:
        assert np.array_equal(s.q, st.q)
        assert np.array_equal(s.p, st.p)


def test_integrate_dimension_mismatch(rng, new_spec):
    spec = new_spec("flexible", 3, 4, rng)
    with pytest.raises(ValueError, match="dimensions"):
        oi.integrate(spec, PhaseState([0.0], [0.0]),
                     IntegrationConfig("euler", 1.0, 0.5))


def test_integrate_reports_divergence():
    big = 1e80
    spec = ham.VanillaOde(
        eg.MlpParams([(np.full((1, 1), big), np.zeros(1), "relu"),
                      (np.full((1, 1), big), np.zeros(1), None)]))
    with pytest.raises(ValueError, match="diverged"):
        oi.integrate(spec, PhaseState([1.0], [0.0]),
                     IntegrationConfig("euler", 4.0, 1.0))


# ---------------------------------------------------------------------------
# energy drift


def test_rk4_drift_tiny_on_harmonic(rng, oscillator, new_spec):
    spec = harmonic(oscillator, new_spec, rng)
    traj = oi.integrate(spec, PhaseState([1.0], [0.0]),
                        IntegrationConfig("rk4", 1.0, 0.01))
    assert oi.energy_drift(spec, traj)["relative_drift"] <= 1e-8


def test_euler_drift_halves_with_step(rng, oscillator, new_spec):
    spec = harmonic(oscillator, new_spec, rng)

    def drift(h):
        traj = oi.integrate(spec, PhaseState([1.0], [0.0]),
                            IntegrationConfig("euler", 1.0, h))
        return oi.energy_drift(spec, traj)["max_abs_drift"]

    ratio = drift(0.02) / drift(0.01)
    assert 1.8 <= ratio <= 2.2


def test_zero_energy_zero_drift(rng):
    spec = ham.FlexibleHamiltonian(
        eg.MlpParams([(np.zeros((4, 2)), np.zeros(4), "tanh"),
                      (np.zeros((1, 4)), np.zeros(1), None)]))
    traj = oi.integrate(spec, PhaseState([0.4], [0.2]),
                        IntegrationConfig("euler", 1.0, 0.25))
    report = oi.energy_drift(spec, traj)
    assert report["max_abs_drift"] == 0.0
    assert report["relative_drift"] == 0.0


def test_energy_drift_requires_hamiltonian(rng, new_spec):
    spec = new_spec("vanilla_ode", 2, 4, rng)
    traj = oi.integrate(spec, PhaseState(np.zeros(2), np.zeros(2)),
                        IntegrationConfig("euler", 1.0, 0.5))
    with pytest.raises(ValueError, match="variant has no Hamiltonian"):
        oi.energy_drift(spec, traj)


# ---------------------------------------------------------------------------
# convergence order and differentiability


def _endpoint_error(spec, method, h):
    traj = oi.integrate(spec, PhaseState([1.0], [0.0]),
                        IntegrationConfig(method, 1.0, h))
    return math.hypot(traj.states[-1].q[0] - math.cos(1.0),
                      traj.states[-1].p[0] + math.sin(1.0))


def test_global_order_euler_and_rk4(rng, oscillator, new_spec):
    spec = harmonic(oscillator, new_spec, rng)
    hs = [0.1, 0.05, 0.025, 0.0125]
    for method, order in (("euler", 1.0), ("rk4", 4.0)):
        errs = [_endpoint_error(spec, method, h) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - order) <= 0.3, (method, slope)


def test_gradient_through_solver_matches_fd(rng, new_spec):
    spec = new_spec("flexible", 4, 8, rng)
    q0 = eg.parameter("q0", (4,))
    p0 = eg.parameter("p0", (4,))
    nodes = oi.integrate_nodes(spec, q0, p0, IntegrationConfig("euler", 1.0, 0.25))
    target = eg.reduce_sum(eg.mul(nodes[-1][0], nodes[-1][0]))
    binds = {"q0": rng.normal(size=4), "p0": rng.normal(size=4),
             **spec.bindings("field")}
    assert eg.check_gradient(target, p0, binds, 1e-6, 1e-4)["passed"]
    assert eg.check_gradient(target, q0, binds, 1e-6, 1e-4)["passed"]


def test_time_reversal_quadratic_hamiltonian(rng, oscillator, new_spec):
    spec = harmonic(oscillator, new_spec, rng, dim=3)
    cfg = IntegrationConfig("rk4", 1.5, 0.01)
    start = PhaseState(rng.normal(size=3), rng.normal(size=3))
    fwd = oi.integrate(spec, start, cfg)
    back = oi.integrate(spec, PhaseState(fwd.states[-1].q, -fwd.states[-1].p), cfg)
    assert np.max(np.abs(back.states[-1].q - start.q)) <= 1e-6
    assert np.max(np.abs(back.states[-1].p + start.p)) <= 1e-6


# ---------------------------------------------------------------------------
# first-layer chart


def orbit_and_gradients(integrate_nodes, spec, cfg, rng, rows=None):
    """Every stored state of one orbit (of ``rows`` states, or of one) and
    the gradients of a fixed weighting of the last state with respect to
    the start and every field parameter, as graphs and their bindings."""
    d = spec.q_dim
    shape = (d,) if rows is None else (rows, d)
    q0, p0 = eg.parameter("q0", shape), eg.parameter("p0", shape)
    states = integrate_nodes(spec, q0, p0, cfg)
    weights = [eg.constant(np.random.default_rng(5).normal(size=shape)) for _ in range(2)]
    q_end, p_end = states[-1]
    probe = eg.add(eg.reduce_sum(eg.mul(q_end, weights[0])),
                   eg.reduce_sum(eg.mul(p_end, weights[1])))
    leaves = [q0, p0] + [eg.parameter(name, arr.shape)
                         for name, arr in spec.param_items("field")]
    binds = {"q0": rng.uniform(-1, 1, shape), "p0": rng.uniform(-1, 1, shape),
             **spec.bindings("field")}
    flat = [n for pair in states for n in pair]
    return flat + eg.gradient_all(probe, leaves, allow_unused=True), binds


@pytest.mark.parametrize("rows", [None, 5], ids=["single", "batched"])
@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("tag", ["flexible", "convex"])
def test_chart_orbit_matches_the_canonical_orbit(rng, new_spec, tag, method, rows):
    spec = new_spec(tag, 3, 6, rng)
    cfg = IntegrationConfig(method, 1.0, 0.25)
    got, binds = orbit_and_gradients(oi.integrate_nodes, spec, cfg, rng, rows)
    want, _ = orbit_and_gradients(canonical_integrate_nodes, spec, cfg, rng, rows)
    assert len(got) == len(want) == 2 * (cfg.n_steps + 1) + 2 + len(spec.param_items("f"))
    for g, w in zip(eg.evaluate(got, binds), eg.evaluate(want, binds)):
        # relative to the array's largest entry: an entry that cancels to a
        # few 1e-5 of it keeps only the absolute error of the others
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("tag", sorted(ham.VARIANTS))
def test_every_variant_stores_the_states_of_its_canonical_orbit(rng, new_spec, tag):
    # a spec that inherits a chart its field does not have fails here
    spec = new_spec(tag, 3, 4, rng)
    cfg = IntegrationConfig("rk4", 1.0, 0.5)
    for rows in (None, 3):
        shape = (3,) if rows is None else (rows, 3)
        q0, p0 = eg.parameter("q0", shape), eg.parameter("p0", shape)
        binds = {"q0": rng.uniform(-1, 1, shape), "p0": rng.uniform(-1, 1, shape),
                 **spec.bindings("field")}
        got, want = ([n for pair in integrate(spec, q0, p0, cfg) for n in pair]
                     for integrate in (oi.integrate_nodes, canonical_integrate_nodes))
        for g, w in zip(eg.evaluate(got, binds), eg.evaluate(want, binds)):
            assert eg.relative_error(g, w) <= 1e-12


def test_the_solver_takes_p0_or_the_momentum_map_that_makes_it(rng, new_spec):
    spec = new_spec("flexible", 3, 4, rng)
    q0, p0 = eg.parameter("q0", (3,)), eg.parameter("p0", (3,))
    net = eg.MlpParams.init((3, 3), (None,), rng)
    for p, momentum in ((p0, (net, "momentum")), (None, None)):
        with pytest.raises(ValueError, match="takes p0 or the momentum map"):
            oi.integrate_nodes(spec, q0, p, IntegrationConfig(), momentum=momentum)


@pytest.mark.parametrize("rows", [None, 5], ids=["single", "batched"])
@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("tag", ["flexible", "convex"])
def test_chart_orbit_matches_the_delta_chart_orbit(rng, new_spec, tag, method, rows):
    spec = new_spec(tag, 3, 6, rng)
    cfg = IntegrationConfig(method, 0.9, 0.3)  # a step that is no power of two
    got, binds = orbit_and_gradients(oi.integrate_nodes, spec, cfg, rng, rows)
    want, _ = orbit_and_gradients(delta_chart_integrate_nodes, spec, cfg, rng, rows)
    assert len(got) == len(want)
    for g, w in zip(eg.evaluate(got, binds), eg.evaluate(want, binds)):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_the_chart_moves_the_first_layer_by_a_skew_product(rng, new_spec):
    for tag in ("flexible", "convex"):
        _assert_chart_moves_by_a_skew_product(new_spec(tag, 3, 6, rng), tag)


def _assert_chart_moves_by_a_skew_product(spec, tag):
    q0, p0 = eg.parameter("q0", (4, 3)), eg.parameter("p0", (4, 3))
    owner, a0, s0, _, unit = spec.chart(q0, p0, "field", 0.5)
    assert a0.shape == (4, 6) and eg._is_zero_fill(s0) and unit == 1.0
    # the rate's matrix is h·diag(w1)·A for flexible, whose output row w1
    # folds into it, and h·A, skew in every bit, for convex
    binds = spec.bindings("field")
    matrix = eg.evaluate(owner.matrix, binds)
    wq, wp = binds["field.energy.w0"][:, :3], binds["field.energy.w0"][:, 3:]
    skew = wp @ wq.T - (wp @ wq.T).T
    if tag == "flexible":
        row = 0.5 * binds["field.energy.w1"][0]
        assert matrix.tobytes() == (row[:, None] * skew).tobytes()
    else:
        assert matrix.tobytes() == (0.5 * skew).tobytes()
        assert np.array_equal(matrix, -matrix.T)
    # s starts as a zero fill that is never built, and a unit step adds
    # the rate itself: an Euler step scales no state
    (q_end, _), = oi.integrate_nodes(spec, q0, p0, IntegrationConfig("euler", 0.5, 0.5))[1:]
    nodes = eg._reachable([q_end])
    assert not [n for n in nodes if eg._is_zero_fill(n)]
    assert not [n for n in nodes if n.op == "scale" and n.shape == (4, 6)]
    if tag == "flexible":  # a0 from q and p, and q_end
        assert sum(n.op == "affine" for n in nodes) == 3


# ---------------------------------------------------------------------------
# geodesic oracle


def test_identity_metric_gives_straight_lines():
    rep = reference_geodesic_check(identity_metric(), [0.0, 0.0], [1.0, 0.5],
                                   IntegrationConfig("rk4", 1.0, 0.01))
    assert rep["max_residual"] <= 1e-6
    qs = rep["positions"]
    times = np.linspace(0.0, 1.0, len(qs))
    expected = np.outer(times, [1.0, 0.5])
    assert np.max(np.abs(qs - expected)) <= 1e-9


def test_zero_momentum_stays_put():
    rep = reference_geodesic_check(identity_metric(), [0.3, -0.4], [0.0, 0.0],
                                   IntegrationConfig("rk4", 1.0, 0.01))
    assert rep["max_residual"] == 0.0
    assert np.max(np.abs(rep["positions"] - np.array([0.3, -0.4]))) == 0.0


def test_half_plane_geodesic_is_unit_semicircle():
    rep = reference_geodesic_check(half_plane_metric(), [0.0, 1.0], [1.0, 0.0],
                                   IntegrationConfig("rk4", 1.0, 1e-3))
    qs = rep["positions"]
    assert np.max(np.abs(qs[:, 0] ** 2 + qs[:, 1] ** 2 - 1.0)) <= 1e-4
    assert qs[-1, 0] > 0.4  # it actually moved along the circle

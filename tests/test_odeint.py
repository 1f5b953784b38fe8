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
from oracles import AnalyticDiagMetric, reference_geodesic_check


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

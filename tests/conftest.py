from dataclasses import dataclass

import numpy as np
import pytest

from hamgnn import engine as eg
from hamgnn import graphdata as gd
from hamgnn import hamiltonian as ham
from hamgnn import model as md
from hamgnn import train as tr
from hamgnn.model import ModelConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sbm_dataset():
    return gd.synth_dataset("sbm", sizes=(20, 20), p_in=0.5, p_out=0.01, seed=0)


@pytest.fixture
def path3_dataset():
    return gd.GraphDataset("path3", np.array([[1.0], [2.0], [3.0]]),
                           np.zeros(3, dtype=int), [(0, 1), (1, 2)],
                           [0], [1], [2])


@pytest.fixture
def c4_dataset():
    return gd.GraphDataset("c4", np.eye(4), np.zeros(4, dtype=int),
                           [(0, 1), (1, 2), (2, 3), (0, 3)], [0], [1], [2])


@dataclass
class FrozenMetric(ham.GeodesicMetric):
    """Geodesic flow whose inverse-metric diagonal is the constant ``diag``."""

    diag: np.ndarray

    def metric_diag_node(self, q, prefix):
        return eg.constant(self.diag)


@dataclass
class Oscillator(ham.FlexibleHamiltonian):
    """Harmonic oscillator H = (|q|^2 + |p|^2) / 2; the energy net is ignored,
    so the orbit moves in (q, p), not in the energy net's first layer."""

    chart = ham.HamiltonianSpec.chart

    def energy_node(self, q, p, prefix):
        kinetic = eg.add(eg.mul(q, q), eg.mul(p, p))
        return eg.scale(eg.reduce_sum(kinetic), 0.5)


@pytest.fixture
def frozen_metric():
    """``frozen_metric(spec, diag)``: a geodesic spec with its learned
    inverse-metric diagonal replaced by the constant ``diag``."""
    return lambda spec, diag: FrozenMetric(spec.metric_net, spec.signature,
                                           np.asarray(diag, dtype=np.float64))


@pytest.fixture
def oscillator():
    """``oscillator(spec)``: a flexible spec turned into the harmonic
    oscillator."""
    return lambda spec: Oscillator(spec.energy_net)


@pytest.fixture
def new_spec():
    """``new_spec(variant, dim, net_hidden, rng, **settings)``: a freshly drawn
    spec from ``make_spec`` on the model config with those settings."""
    def build(variant, dim, net_hidden, rng, **settings):
        cfg = ModelConfig(hidden_dim=dim, net_hidden=net_hidden, variant=variant,
                          **settings)
        return ham.make_spec(cfg, rng)
    return build


@pytest.fixture
def training_outputs():
    """``training_outputs(cfg, dataset, encode_nodes=md.encode_nodes)``: what
    one classification epoch of ``fit`` evaluates (loss, embeddings, every
    parameter gradient in ``param_items`` order, logits) and the bindings of
    fresh parameters."""
    def build(cfg, dataset, encode_nodes=md.encode_nodes):
        params = md.init_params(cfg, dataset.num_features, dataset.num_classes, seed=0)
        z, _ = encode_nodes(params, cfg, dataset)
        logits = params.head.graph(z, "head")
        loss = tr.cross_entropy_node(logits, dataset.labels, dataset.train_mask)
        leaves = [eg.parameter(name, arr.shape) for name, arr in params.param_items()]
        grads = eg.gradient_all(loss, leaves, allow_unused=True)
        return [loss, z, *grads, logits], params.bindings()
    return build

"""The benchmark's workloads: inputs, model, training settings and sampling.

Each workload is a closed loop with one caller: the benchmark starts an epoch
only after the previous one has finished (``train.fit`` drives the epochs and
the benchmark waits on each record), then calls ``model.encode`` the way
``hamgnn eval`` does.  A run makes one fit of ``epochs`` epochs, then fits of
``short_epochs`` epochs while the time budget allows, and at least
``min_fits`` fits in all; ``encodes`` encodes follow each fit.  Each fit
starts with set-up, so the short fits sample set-up time and encode time
throughout the run.

``tail_pct`` is fixed per workload, so a faster program (more samples) does
not move the percentile: the minimum fits give ``epochs - 1 + (min_fits - 1)
* (short_epochs - 1)`` epoch intervals, which leaves at least ten samples
above ``tail_pct``.

Why each workload was chosen, and which layer it loads or bypasses, is
recorded in ``BENCHMARK.json``.  This module imports nothing beyond the
standard library, so the launcher can read it before numpy is loaded.
"""

from __future__ import annotations

WORKLOADS = {
    "cora-class": {
        "data": ("cora", {}),
        "model": {"hidden_dim": 64, "layers": 3, "variant": "flexible",
                  "decoder": "classification"},
        "integration": {"method": "euler", "horizon": 1.0, "step": 0.5},
        "train": {"lr": 0.01, "weight_decay": 0.001, "task": "classification"},
        "epochs": 21, "short_epochs": 5, "min_fits": 4, "tail_pct": 65, "encodes": 3,
    },
    "cora-link": {
        "data": ("cora", {}),
        "model": {"hidden_dim": 64, "layers": 3, "variant": "flexible",
                  "decoder": "link"},
        "integration": {"method": "euler", "horizon": 1.0, "step": 0.5},
        "train": {"lr": 0.01, "weight_decay": 0.001, "task": "link"},
        "epochs": 21, "short_epochs": 5, "min_fits": 4, "tail_pct": 65, "encodes": 3,
    },
}

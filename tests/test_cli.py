"""Command-line behavior: strict configs, reproducible outputs, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hamgnn import graphdata as gd
from hamgnn.cli import build_configs, load_run_config, main
from hamgnn.model import ModelConfig
from hamgnn.odeint import IntegrationConfig
from hamgnn.schema import config_to_dict
from hamgnn.train import TrainConfig


@pytest.fixture
def workdir(tmp_path):
    ds = gd.synth_dataset("sbm", sizes=(20, 20), p_in=0.5, p_out=0.01, seed=0)
    gd.save_dataset(ds, tmp_path / "sbm")
    tree = gd.synth_dataset("tree", depth=3, branching=2, seed=0)
    gd.save_dataset(tree, tmp_path / "tree")
    config = {
        "dataset": str(tmp_path / "sbm"),
        "out_dir": str(tmp_path / "run"),
        "seed": 1,
        "model": {"hidden_dim": 16, "layers": 2, "variant": "flexible",
                  "net_hidden": 16},
        "integration": {"method": "euler", "horizon": 1.0, "step": 0.5},
        "train": {"lr": 0.01, "weight_decay": 0.001, "max_epochs": 120,
                  "patience": 60},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def test_train_on_sbm_fixture(workdir, capsys):
    rc = main(["train", "--config", str(workdir / "config.json")])
    assert rc == 0
    metrics = json.loads((workdir / "run" / "metrics.json").read_text())
    assert metrics["test_accuracy"] >= 0.95
    assert (workdir / "run" / "history.csv").exists()
    assert (workdir / "run" / "checkpoint" / "params.bin").exists()
    # one stderr line per epoch
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("epoch")]
    assert len(err_lines) == metrics["epochs_run"]


def test_train_rejects_unknown_key(workdir, capsys):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["train"]["lr_sched"] = "cosine"
    (workdir / "bad.json").write_text(json.dumps(cfg))
    rc = main(["train", "--config", str(workdir / "bad.json")])
    assert rc == 1
    assert "lr_sched" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("model", "signature", [4]),
    ("model", "layers", 2.5),
    ("model", "hidden_dim", 4.0),
    ("model", "net_hidden", "8"),
    ("model", "momentum_dim", 2.5),
    ("train", "max_epochs", 2.5),
    ("model", "layers", True),
    ("train", "decay_biases", "no"),
    (None, "seed", 1.5),
    (None, "seed", "1"),
])
def test_train_rejects_wrong_type_by_name(workdir, capsys, section, key, value):
    cfg = json.loads((workdir / "config.json").read_text())
    (cfg[section] if section else cfg)[key] = value
    (workdir / "bad.json").write_text(json.dumps(cfg))
    rc = main(["train", "--config", str(workdir / "bad.json")])
    assert rc == 1
    name = f"{section}.{key}" if section else key
    assert f"error: {name} must be" in capsys.readouterr().err


def test_readme_config_example_lists_every_default(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("A run config is", 1)[1].split("```json\n", 1)[1]
    (tmp_path / "run.json").write_text(example.split("```", 1)[0])
    raw = load_run_config(tmp_path / "run.json")
    model_cfg, train_cfg, seed = build_configs(raw)
    assert (model_cfg, train_cfg, seed) == (ModelConfig(), TrainConfig(), 0)
    assert raw["model"] == config_to_dict(ModelConfig(), "integration")
    assert raw["integration"] == config_to_dict(IntegrationConfig())
    assert raw["train"] == config_to_dict(TrainConfig(), "seed")


def test_train_rejects_inconsistent_signature(workdir, capsys):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["model"]["variant"] = "geodesic"
    cfg["model"]["signature"] = [3, 4]
    (workdir / "bad.json").write_text(json.dumps(cfg))
    rc = main(["train", "--config", str(workdir / "bad.json")])
    assert rc == 1
    assert "signature" in capsys.readouterr().err


def test_override_flag_reaches_config(workdir):
    rc = main(["train", "--config", str(workdir / "config.json"),
               "--set", "train.max_epochs=3", "--set", "train.patience=3",
               "--set", f"out_dir={workdir / 'short'}"])
    assert rc == 0
    metrics = json.loads((workdir / "short" / "metrics.json").read_text())
    assert metrics["epochs_run"] <= 3
    assert metrics["config"]["train"]["max_epochs"] == 3


def test_echoed_config_reruns_to_same_outputs(workdir):
    assert main(["train", "--config", str(workdir / "config.json")]) == 0
    first = json.loads((workdir / "run" / "metrics.json").read_text())
    echoed = dict(first["config"])
    echoed["out_dir"] = str(workdir / "rerun")
    (workdir / "echoed.json").write_text(json.dumps(echoed))
    assert main(["train", "--config", str(workdir / "echoed.json")]) == 0
    second = json.loads((workdir / "rerun" / "metrics.json").read_text())
    assert second["test_accuracy"] == first["test_accuracy"]
    assert second["best_epoch"] == first["best_epoch"]
    assert ((workdir / "rerun" / "history.csv").read_text()
            == (workdir / "run" / "history.csv").read_text())
    assert ((workdir / "rerun" / "checkpoint" / "params.bin").read_bytes()
            == (workdir / "run" / "checkpoint" / "params.bin").read_bytes())


def test_threads_flag_is_accepted(workdir):
    rc = main(["--threads", "1", "gradcheck", "--variant", "flexible",
               "--dim", "2", "--seed", "0"])
    assert rc == 0


def test_unapplied_thread_cap_is_reported(workdir, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    rc = main(["--threads", "2", "gradcheck", "--variant", "flexible",
               "--dim", "2", "--seed", "0"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().err.splitlines() if "thread cap" in l]
    assert len(lines) == 1
    assert "not applied" in lines[0] and "threadpoolctl" in lines[0]


def test_eval_reproduces_training_metric(workdir):
    assert main(["train", "--config", str(workdir / "config.json")]) == 0
    trained = json.loads((workdir / "run" / "metrics.json").read_text())
    rc = main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint"),
               "--dataset", str(workdir / "sbm"),
               "--out", str(workdir / "eval"), "--export-embeddings"])
    assert rc == 0
    evaluated = json.loads((workdir / "eval" / "metrics.json").read_text())
    assert evaluated["test_accuracy"] == trained["test_accuracy"]
    rows = (workdir / "eval" / "embeddings.csv").read_text().strip().split("\n")
    assert len(rows) == 40
    assert len(rows[0].split(",")) == 16


def test_eval_rejects_wrong_dimension(workdir, capsys):
    assert main(["train", "--config", str(workdir / "config.json")]) == 0
    other = gd.synth_dataset("sbm", sizes=(5, 5, 5), p_in=0.6, p_out=0.05, seed=1)
    gd.save_dataset(other, workdir / "threeblocks")
    rc = main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint"),
               "--dataset", str(workdir / "threeblocks")])
    assert rc == 1
    assert "features" in capsys.readouterr().err


def test_eval_rejects_task_without_head(workdir, capsys):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["model"]["decoder"] = "link"
    cfg["train"]["task"] = "link"
    cfg["train"]["max_epochs"] = 5
    cfg["train"]["patience"] = 5
    (workdir / "link.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(workdir / "link.json")]) == 0
    rc = main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint"),
               "--dataset", str(workdir / "sbm"), "--task", "classification"])
    assert rc == 1
    assert "classification head" in capsys.readouterr().err


def test_hyperbolicity_tree_and_cycle(workdir, tmp_path, capsys):
    rc = main(["hyperbolicity", "--dataset", str(workdir / "tree"),
               "--out", str(tmp_path / "hyp")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["max_delta"] == 0.0

    c4 = gd.GraphDataset("c4", np.eye(4), np.zeros(4, int),
                         [(0, 1), (1, 2), (2, 3), (0, 3)], [0], [1], [2])
    gd.save_dataset(c4, workdir / "c4")
    rc = main(["hyperbolicity", "--dataset", str(workdir / "c4"),
               "--out", str(tmp_path / "hyp2")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["max_delta"] == 1.0
    csv = (tmp_path / "hyp2" / "hyperbolicity.csv").read_text()
    assert csv.splitlines()[0] == "delta,count"


def test_hyperbolicity_sampled_deterministic(workdir, tmp_path, capsys):
    args = ["hyperbolicity", "--dataset", str(workdir / "sbm"),
            "--mode", "sampled", "--samples", "100", "--seed", "4",
            "--out", str(tmp_path / "h")]
    assert main(args) == 0
    first = (tmp_path / "h" / "hyperbolicity.csv").read_text()
    assert main(args) == 0
    assert (tmp_path / "h" / "hyperbolicity.csv").read_text() == first


def test_mix_command(workdir, capsys):
    rc = main(["mix", "--dataset-a", str(workdir / "sbm"),
               "--dataset-b", str(workdir / "tree"),
               "--out", str(workdir / "mixed"), "--seed", "3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["nodes"] == 55
    mixed = gd.load_dataset(workdir / "mixed")
    crossing = [e for e in mixed.edges if (e[0] < 40) != (e[1] < 40)]
    assert crossing == []


def test_mix_doubles_when_self_mixed(workdir, capsys):
    rc = main(["mix", "--dataset-a", str(workdir / "tree"),
               "--dataset-b", str(workdir / "tree"),
               "--out", str(workdir / "mixed2")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["nodes"] == 30


def test_mix_missing_input(workdir, capsys):
    rc = main(["mix", "--dataset-a", str(workdir / "absent"),
               "--dataset-b", str(workdir / "tree"),
               "--out", str(workdir / "m3")])
    assert rc == 1


def test_gradcheck_passes_for_known_variants(capsys):
    for variant in ("flexible", "geodesic", "symplectic", "vanilla_ode"):
        rc = main(["gradcheck", "--variant", variant, "--dim", "4", "--seed", "0"])
        assert rc == 0, variant
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        if variant == "flexible":
            assert report["checks"]["euler_halving_ratio"]["passed"]


def test_gradcheck_unknown_variant(capsys):
    assert main(["gradcheck", "--variant", "nope"]) == 1
    assert "unknown variant" in capsys.readouterr().err


def test_sweep_layers_writes_table(workdir, capsys):
    rc = main(["sweep-layers", "--config", str(workdir / "config.json"),
               "--layers", "1,2", "--set", "train.max_epochs=25",
               "--set", "train.patience=25",
               "--set", f"out_dir={workdir / 'sweep'}"])
    assert rc == 0
    csv = (workdir / "sweep" / "layer_sweep.csv").read_text().strip().splitlines()
    assert csv[0] == "layers,best_val,test_metric,epochs"
    assert len(csv) == 3


def test_console_entry_point_runs(workdir):
    # the installed script path: one subprocess smoke test
    result = subprocess.run(
        [sys.executable, "-m", "hamgnn.cli", "gradcheck", "--variant",
         "flexible", "--dim", "2", "--seed", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["passed"]

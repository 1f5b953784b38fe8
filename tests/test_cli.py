"""Command-line behavior: strict configs, reproducible outputs, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hamgnn
from hamgnn import graphdata as gd
from hamgnn import model as md
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


@pytest.mark.parametrize("command", ["train", "eval"])
def test_malformed_input_file_exits_1_with_one_error_line(workdir, capsys, command):
    if command == "train":
        (workdir / "sbm" / "edges.tsv").write_text("0\t1\nx\t2\n")
        argv = ["train", "--config", str(workdir / "config.json")]
        named = "node id must be an integer; got 'x' at edges.tsv line 2"
    else:
        (workdir / "ckpt").mkdir()
        (workdir / "ckpt" / "manifest.json").write_text("[]")
        argv = ["eval", "--checkpoint", str(workdir / "ckpt"),
                "--dataset", str(workdir / "sbm")]
        named = "manifest.json must be a JSON object, got []"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert [l for l in err.splitlines() if l.startswith("error:")] == [f"error: {named}"]
    assert "Traceback" not in err


def test_train_rejects_unknown_key(workdir, capsys):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["train"]["lr_sched"] = "cosine"
    (workdir / "bad.json").write_text(json.dumps(cfg))
    rc = main(["train", "--config", str(workdir / "bad.json")])
    assert rc == 1
    assert "lr_sched" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["net_hidden", "momentum_dim"])
def test_train_rejects_zero_width(workdir, capsys, key):
    rc = main(["train", "--config", str(workdir / "config.json"),
               "--set", f"model.{key}=0"])
    assert rc == 1
    assert f"error: {key} must be at least 1" in capsys.readouterr().err


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


def test_zero_threads_flag_is_rejected(capsys):
    rc = main(["--threads", "0", "gradcheck", "--variant", "vanilla_ode", "--dim", "2"])
    assert rc == 1
    assert "error: thread cap must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, text", [
    ("train", "lr", "NaN"), ("integration", "horizon", "Infinity"),
    ("integration", "step", "-Infinity"),
    pytest.param("integration", "horizon", "1" + "0" * 400, id="integration-horizon-1e400")])
@pytest.mark.parametrize("via", ["file", "override"])
def test_train_rejects_a_non_finite_number_by_name(workdir, capsys, section, key, text, via):
    value = json.loads(text)
    if via == "file":
        cfg = json.loads((workdir / "config.json").read_text())
        cfg[section][key] = value
        (workdir / "bad.json").write_text(json.dumps(cfg))  # json writes NaN / Infinity
        argv = ["train", "--config", str(workdir / "bad.json")]
    else:
        argv = ["train", "--config", str(workdir / "config.json"),
                "--set", f"{section}.{key}={text}"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {section}.{key} must be a finite number, got {value!r}" in err
    assert not (workdir / "run").exists()


def test_an_integer_override_past_the_digit_limit_fails_by_key(workdir, capsys):
    text = "1" + "0" * 5000  # json.loads refuses integers over 4300 digits
    argv = ["train", "--config", str(workdir / "config.json"),
            "--set", f"integration.horizon={text}"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: integration.horizon must be a finite number, got " in err
    assert not (workdir / "run").exists()


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


def test_link_eval_reproduces_training_metric(workdir):
    assert main(["train", "--config", str(workdir / "config.json"),
                 "--set", "model.decoder=link", "--set", "train.task=link",
                 "--set", "train.max_epochs=4", "--set", "train.patience=4"]) == 0
    trained = json.loads((workdir / "run" / "metrics.json").read_text())
    assert main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint"),
                 "--dataset", str(workdir / "sbm"), "--task", "link",
                 "--out", str(workdir / "eval")]) == 0
    evaluated = json.loads((workdir / "eval" / "metrics.json").read_text())
    assert evaluated["task"] == "link" and "test_accuracy" not in evaluated
    assert evaluated["test_roc_auc"] == trained["test_roc_auc"]


def test_eval_with_exported_embeddings_encodes_once(workdir, monkeypatch):
    assert main(["train", "--config", str(workdir / "config.json"),
                 "--set", "train.max_epochs=2", "--set", "train.patience=2"]) == 0
    checkpoint = workdir / "run" / "checkpoint"
    calls = []
    encode_nodes = md.encode_nodes

    def spy(*args):
        calls.append(args)
        return encode_nodes(*args)

    monkeypatch.setattr(md, "encode_nodes", spy)
    assert main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(workdir / "sbm"),
                 "--out", str(workdir / "eval"), "--export-embeddings"]) == 0
    assert len(calls) == 1
    params, manifest = md.load_checkpoint(checkpoint)
    model_cfg, _, _ = build_configs(manifest["config"])
    z = md.encode(params, model_cfg, gd.load_dataset(workdir / "sbm"))
    rows = (workdir / "eval" / "embeddings.csv").read_text().splitlines()
    assert np.array([[float(x) for x in row.split(",")] for row in rows]).tobytes() == z.tobytes()


def test_eval_of_an_overflowing_compressor_exits_2_naming_the_layer(workdir, capsys):
    assert main(["train", "--config", str(workdir / "config.json"),
                 "--set", "train.max_epochs=1", "--set", "train.patience=1"]) == 0
    checkpoint = workdir / "run" / "checkpoint"
    params, manifest = md.load_checkpoint(checkpoint)
    for _, arr in params.compressor.param_items("compress"):
        arr[...] = 1e308
    md.save_checkpoint(params, manifest["config"], checkpoint)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(workdir / "sbm")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"runtime error: non-finite intermediate at <Node \d+ elementwise-add "
                        r"'compress layer 0' shape=\(40, 16\)> \(rows \[.+\]\)", line)


@pytest.mark.parametrize("argv, message", [
    (["train", "--set", "train.lr"], "override 'train.lr' must look like dotted.key=value"),
    (["train", "--set", "dataset.x=1"], "cannot override through non-object key 'dataset'"),
    (["train", "--set", "extra=1"], "unknown key 'extra' in the config root"),
    (["train", "--set", "train.task=link"], "link task needs the link decoder"),
    (["sweep-layers", "--layers", " , "], "need at least one layer count"),
    (["sweep-layers", "--layers", "1,x"], "bad layer list '1,x'"),
], ids=["set-without-equals", "set-through-a-value", "unknown-root-key",
        "link-task-class-decoder", "empty-layer-list", "non-integer-layer"])
def test_a_bad_command_line_fails_by_name(workdir, capsys, argv, message):
    command, *rest = argv
    assert main([command, "--config", str(workdir / "config.json"), *rest]) == 1
    err = capsys.readouterr().err
    assert [l for l in err.splitlines() if l.startswith("error:")] == [f"error: {message}"]
    assert "Traceback" not in err and not (workdir / "run").exists()


def test_a_missing_config_file_or_dataset_key_fails_by_name(workdir, capsys):
    absent = workdir / "absent.json"
    assert main(["train", "--config", str(absent)]) == 1
    assert f"error: config file not found: {absent}" in capsys.readouterr().err.splitlines()
    cfg = json.loads((workdir / "config.json").read_text())
    del cfg["dataset"]
    (workdir / "bad.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(workdir / "bad.json")]) == 1
    assert "error: missing required key 'dataset'" in capsys.readouterr().err.splitlines()
    assert not (workdir / "run").exists()


def test_a_non_integer_thread_cap_variable_fails_by_name(monkeypatch, capsys):
    monkeypatch.setenv("HAMGNN_THREADS", "abc")
    assert main(["gradcheck", "--variant", "flexible", "--dim", "2"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: HAMGNN_THREADS must be an integer, got 'abc'"]


def test_diverged_training_exits_2_and_records_the_epoch(workdir, capsys):
    rc = main(["train", "--config", str(workdir / "config.json"),
               "--set", "train.lr=1e300", "--set", "train.max_epochs=5",
               "--set", "train.patience=5"])
    assert rc == 2
    metrics = json.loads((workdir / "run" / "metrics.json").read_text())
    epoch = metrics["diverged_at_epoch"]
    assert 1 <= epoch <= 5 and metrics["epochs_run"] == epoch - 1
    assert f"training diverged at epoch {epoch}" in capsys.readouterr().err.splitlines()


def _strict_json(text):
    """Parses RFC 8259 JSON: NaN and +-Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_a_run_diverging_at_epoch_1_writes_null_metrics(workdir, capsys):
    rc = main(["train", "--config", str(workdir / "config.json"),
               "--set", "integration.horizon=1.7e308", "--set", "integration.step=1.7e308"])
    assert rc == 2
    metrics = _strict_json((workdir / "run" / "metrics.json").read_text())
    assert metrics["diverged_at_epoch"] == 1 and metrics["epochs_run"] == 0
    assert metrics["best_val_metric"] is None and metrics["test_accuracy"] is None


def test_eval_without_test_nodes_writes_a_null_accuracy(workdir, capsys):
    assert main(["train", "--config", str(workdir / "config.json"),
                 "--set", "train.max_epochs=2", "--set", "train.patience=2"]) == 0
    ds = gd.load_dataset(workdir / "sbm")
    gd.save_dataset(gd.GraphDataset("untested", ds.features, ds.labels, ds.edges,
                                     ds.train_mask, ds.val_mask, []), workdir / "untested")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint"),
                 "--dataset", str(workdir / "untested"), "--out", str(workdir / "ev")]) == 0
    line = _strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    metrics = _strict_json((workdir / "ev" / "metrics.json").read_text())
    assert line["test_accuracy"] is None and metrics["test_accuracy"] is None
    assert 0.0 <= line["val_accuracy"] == metrics["val_accuracy"] <= 1.0


def test_an_overflowing_adam_step_diverges_at_the_next_epoch(workdir, capsys):
    # the loss stays finite, near 1e305, but its gradient's square does not
    rc = main(["train", "--config", str(workdir / "config.json"),
               "--set", "integration.horizon=1e300", "--set", "integration.step=1e300",
               "--set", "train.max_epochs=5", "--set", "train.patience=5"])
    assert rc == 2
    metrics = _strict_json((workdir / "run" / "metrics.json").read_text())
    assert metrics["diverged_at_epoch"] == 2 and metrics["epochs_run"] == 1
    assert "training diverged at epoch 2" in capsys.readouterr().err.splitlines()


def test_eval_rejects_wrong_dimension(workdir, capsys):
    assert main(["train", "--config", str(workdir / "config.json")]) == 0
    other = gd.synth_dataset("sbm", sizes=(5, 5, 5), p_in=0.6, p_out=0.05, seed=1)
    gd.save_dataset(other, workdir / "threeblocks")
    rc = main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint"),
               "--dataset", str(workdir / "threeblocks")])
    assert rc == 1
    assert "features" in capsys.readouterr().err


def test_eval_rejects_a_dataset_with_more_classes(workdir, capsys):
    assert main(["train", "--config", str(workdir / "config.json"),
                 "--set", "train.max_epochs=2", "--set", "train.patience=2"]) == 0
    ds = gd.load_dataset(workdir / "sbm")
    four = gd.GraphDataset("sbm4", ds.features, ds.labels + 2 * (np.arange(ds.n) % 2),
                           ds.edges, ds.train_mask, ds.val_mask, ds.test_mask)
    gd.save_dataset(four, workdir / "four")
    rc = main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint"),
               "--dataset", str(workdir / "four")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: dataset has 4 classes but the checkpoint was trained with 2" in err
    assert "Traceback" not in err


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
    for variant in ("geodesic", "flexible", "convex", "relaxed", "symplectic",
                    "geodesic_relaxed", "higher_dim", "vanilla_ode"):
        rc = main(["gradcheck", "--variant", variant, "--dim", "4", "--seed", "0"])
        assert rc == 0, variant
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True, variant
        # every verdict is printed as a JSON boolean, never as 0.0/1.0
        assert all(check["passed"] is True for check in report["checks"].values()), \
            (variant, report["checks"])
        if variant == "flexible":
            assert report["checks"]["euler_halving_ratio"]["passed"]
        if variant in ("relaxed", "geodesic_relaxed"):
            # their bias breaks conservation by design, so only the
            # conservation checks run with it removed
            assert report["checks"]["rk4_drift"]["bias_removed"] is True
            assert report["checks"]["euler_halving_ratio"]["bias_removed"] is True
            assert "bias_removed" not in report["checks"]["field_vs_energy_fd"]


# sha256 of the printed JSON of `hamgnn gradcheck --dim 3 --seed 1 --variant V`.
# Every figure in it comes from derivative rules, so equal digests show that a
# change to the engine's rules kept every bit of the first- and second-order
# gradients these checks evaluate.  The energy variants were re-pinned once,
# when the energy net's first layer came to take q and p apart; symplectic
# and geodesic_relaxed again when the backward sweep came to add adjoints in
# descending node id, the sigmoid became ``scipy.special.expit`` and the
# symplectic field came to take grad H from the canonical field.
GRADCHECK_DIGESTS = {
    "geodesic": "29fbae62153a7f4848d7a9c2b5641cec3bec9f64518601d8502a9c78dbbaa2f1",
    "flexible": "5ccf828c33a7a1c49c61e8ca0c1076edefa3a29e590009dbf95e0855e2f02376",
    "convex": "73c5ab3dfb09c492f8b906fe4de1630996aea5b3359dc6af84e8f33641dd6171",
    "relaxed": "87c69e45240164c6a25c8097c564a96e99523b7f36dfe7355f858eb4f70ad283",
    "symplectic": "e4ab8a66da3b778f962f1504a9888ad7a9801d7179399fa808dad95ba355b393",
    "geodesic_relaxed": "28370aaff868d6665247d6e39e2d34e805afc9bb5351fd0ffb0dc62771a8a62d",
    "higher_dim": "09670fb473e82082f9627fd09a30fd5ef68bb4d9e5f31c26d588843fc06f129e",
    "vanilla_ode": "daef09e7adf18ed1ff9c86b7cd590fe4365133a97764d0e91fbea73d9f8b5d4d",
}


@pytest.mark.parametrize("variant, digest", GRADCHECK_DIGESTS.items())
def test_gradcheck_report_digest_is_pinned(capsys, variant, digest):
    rc = main(["gradcheck", "--dim", "3", "--seed", "1", "--variant", variant])
    assert rc == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
    # the installed script path: one subprocess smoke test, of the package
    # these tests import
    source = str(Path(hamgnn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-m", "hamgnn.cli", "gradcheck", "--variant",
         "flexible", "--dim", "2", "--seed", "1"],
        capture_output=True, text=True, timeout=300, env=env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["passed"]

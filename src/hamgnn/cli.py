"""Command-line entry points for reproducible runs.

Commands: ``train``, ``eval``, ``sweep-layers``, ``hyperbolicity``, ``mix``,
``gradcheck``.  A run is driven by one strict JSON config (unknown keys and
values of the wrong type are rejected by name) optionally overridden with
repeated ``--set dotted.key=value`` flags; the effective config is echoed
into metrics.json so any run can be reproduced from its own outputs.  The
environment variable ``HAMGNN_THREADS`` (or ``--threads``) caps
numeric-library parallelism through ``threadpoolctl``; without it, a warning
on stderr says the cap was not applied.

Exit codes: 0 success, 1 configuration error, 2 runtime error or divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import engine as eg
from . import graphdata as gd
from . import hamiltonian as ham
from . import model as md
from . import odeint as oi
from . import train as tr
from .hamiltonian import PhaseState
from .model import ModelConfig
from .odeint import IntegrationConfig
from .schema import check_json_value, config_from_dict, config_to_dict, load_json_object
from .train import TrainConfig

__all__ = ["main"]


class ConfigError(ValueError):
    pass


# num_features / num_classes appear in echoed configs (checkpoints need
# them); they are derived from the dataset and ignored on input
_TOP_KEYS = {"dataset", "out_dir", "seed", "model", "integration", "train",
             "num_features", "num_classes"}


def _apply_thread_cap(flag_value=None):
    cap = flag_value if flag_value is not None else os.environ.get("HAMGNN_THREADS")
    if cap is None or cap == "":
        return
    try:
        limit = int(cap)
    except ValueError:
        raise ConfigError(f"HAMGNN_THREADS must be an integer, got {cap!r}")
    if limit < 1:
        raise ConfigError("thread cap must be at least 1")
    try:
        import threadpoolctl
    except ImportError:
        # numpy is loaded by now, so setting the BLAS variables would be too late
        print(f"warning: thread cap {limit} not applied: threadpoolctl is not "
              "installed and the BLAS library has already started; set "
              "OPENBLAS_NUM_THREADS / OMP_NUM_THREADS / MKL_NUM_THREADS before "
              "starting hamgnn instead", file=sys.stderr)
        return
    threadpoolctl.threadpool_limits(limits=limit)


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like dotted.key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer past Python's digit limit
        value = raw
    return key.strip(), value


def _apply_overrides(config: dict, overrides):
    for text in overrides or ():
        key, value = _parse_override(text)
        target = config
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"cannot override through non-object key {part!r}")
        target[parts[-1]] = value
    return config


def load_run_config(path, overrides=None) -> dict:
    """Read a run config, apply overrides, and check its top-level keys;
    ``build_configs`` checks the sections."""
    try:
        raw = load_json_object(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    _apply_overrides(raw, overrides)
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key {key!r} in the config root")
    for required in ("dataset", "out_dir"):
        if required not in raw:
            raise ConfigError(f"missing required key {required!r}")
    return raw


def build_configs(raw: dict) -> tuple[ModelConfig, TrainConfig, int]:
    """Instantiate validated config objects from the parsed document; its
    "model", "integration" and "train" sections hold exactly the fields of
    ModelConfig, IntegrationConfig and TrainConfig."""
    seed = check_json_value(raw.get("seed", 0), int, "seed")
    integration = config_from_dict(IntegrationConfig, raw.get("integration", {}),
                                   "integration")
    model_cfg = config_from_dict(ModelConfig, raw.get("model", {}), "model",
                                 integration=integration)
    train_cfg = config_from_dict(TrainConfig, raw.get("train", {}), "train", seed=seed)
    tr.check_decoder(model_cfg, train_cfg)
    return model_cfg, train_cfg, seed


def _dump_metrics(metrics: dict | list, **kw) -> str:
    """``metrics``, one dict or a list of them, as strict JSON: a metric that
    has no value (NaN, or the -inf best of a run with no finished epoch) is
    written as null."""
    def strict(row: dict) -> dict:
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in row.items()}
    rows = [strict(row) for row in metrics] if isinstance(metrics, list) else strict(metrics)
    return json.dumps(rows, allow_nan=False, **kw)


def cmd_train(args) -> int:
    raw = load_run_config(args.config, args.set)
    model_cfg, train_cfg, seed = build_configs(raw)
    dataset = gd.load_dataset(raw["dataset"])
    out_dir = Path(raw["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.time()
    best, history = tr.fit(model_cfg, train_cfg, dataset,
                           log=lambda line: print(line, file=sys.stderr))
    wall = time.time() - started

    echo = {"dataset": str(raw["dataset"]), "out_dir": str(raw["out_dir"]),
            "seed": seed, "model": config_to_dict(model_cfg, "integration"),
            "integration": config_to_dict(model_cfg.integration),
            "train": config_to_dict(train_cfg, "seed"),
            "num_features": dataset.num_features,
            "num_classes": dataset.num_classes}
    md.save_checkpoint(best, echo, out_dir / "checkpoint")
    history.to_csv(out_dir / "history.csv")

    metrics = {"config": echo, "seed": seed, "task": train_cfg.task,
               "wall_time_s": wall, "best_epoch": history.best_epoch,
               "best_val_metric": history.best_val,
               "epochs_run": len(history.records)}
    if train_cfg.task == "classification":
        metrics["test_accuracy"] = history.test_at_best
    else:
        metrics["test_roc_auc"] = history.test_at_best
    if history.diverged_at is not None:
        metrics["diverged_at_epoch"] = history.diverged_at
        metrics["divergence_cause"] = history.divergence_cause
    (out_dir / "metrics.json").write_text(_dump_metrics(metrics, indent=1) + "\n",
                                          encoding="utf-8")
    if history.diverged_at is not None:
        print(f"training diverged at epoch {history.diverged_at}\n"
              f"cause: {history.divergence_cause}", file=sys.stderr)
        return 2
    return 0


def cmd_eval(args) -> int:
    params, manifest = md.load_checkpoint(args.checkpoint)
    echo = manifest["config"]
    dataset = gd.load_dataset(args.dataset)
    if dataset.num_features != echo["num_features"]:
        raise ConfigError(
            f"dataset has {dataset.num_features} features but the checkpoint "
            f"was trained with {echo['num_features']}")
    model_cfg, train_cfg, _ = build_configs(echo)
    train_cfg = dataclasses.replace(train_cfg, task=args.task or train_cfg.task)
    if train_cfg.task == "classification" and dataset.num_classes > echo["num_classes"]:
        raise ConfigError(
            f"dataset has {dataset.num_classes} classes but the checkpoint "
            f"was trained with {echo['num_classes']}")
    out_dir = Path(args.out or args.checkpoint)
    out_dir.mkdir(parents=True, exist_ok=True)

    metrics, z = tr.evaluate_params(params, model_cfg, train_cfg, dataset)
    metrics = {"config": echo, "task": train_cfg.task, **metrics}
    (out_dir / "metrics.json").write_text(_dump_metrics(metrics, indent=1) + "\n",
                                          encoding="utf-8")
    if args.export_embeddings:
        with open(out_dir / "embeddings.csv", "w", encoding="utf-8") as fh:
            for row in z:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
    print(_dump_metrics({k: v for k, v in metrics.items() if k != "config"}))
    return 0


def cmd_hyperbolicity(args) -> int:
    dataset = gd.load_dataset(args.dataset)
    report = gd.delta_hyperbolicity(dataset, mode=args.mode,
                                    samples=args.samples, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "hyperbolicity.csv", "w", encoding="utf-8") as fh:
        fh.write("delta,count\n")
        for delta, count in report["histogram"].items():
            fh.write(f"{delta!r},{count}\n")
    print(json.dumps({"max_delta": report["max_delta"],
                      "num_quadruples": report["num_quadruples"]}))
    return 0


def cmd_mix(args) -> int:
    a = gd.load_dataset(args.dataset_a)
    b = gd.load_dataset(args.dataset_b)
    mixed = gd.mix_datasets(a, b, seed=args.seed)
    gd.save_dataset(mixed, args.out)
    print(json.dumps({"nodes": mixed.n, "edges": len(mixed.edges),
                      "classes": mixed.num_classes,
                      "features": mixed.num_features}))
    return 0


def run_gradcheck(variant: str, dim: int, seed: int) -> dict:
    """Field-gradient, conservation, and solver-differentiability checks."""
    cfg = ModelConfig(hidden_dim=dim, net_hidden=16, variant=variant)
    rng = np.random.default_rng(seed)
    report: dict = {"variant": variant, "dim": dim, "checks": {}}

    if variant == "symplectic":
        # the learned form deviates from the canonical equations by design;
        # the identity is asserted in its canonical configuration
        spec = ham.LearnedSymplecticForm.canonical(
            eg.MlpParams.init((2 * dim, 16, 1), ("tanh", None), rng))
    else:
        spec = ham.make_spec(cfg, rng)

    if ham.has_hamiltonian(spec):
        field = ham.check_field_gradients(spec, 20, rng)
        report["checks"]["field_vs_energy_fd"] = field
        state = PhaseState(rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim))
        # the relaxed variants' bias breaks conservation by design: the
        # conservation checks run on the conservative form, whose bias is zero
        conserved = spec.conservative()
        removed = {} if conserved is spec else {"bias_removed": True}
        traj = oi.integrate(conserved, state, IntegrationConfig("rk4", 1.0, 0.01))
        drift = oi.energy_drift(conserved, traj)
        report["checks"]["rk4_drift"] = {
            "relative_drift": drift["relative_drift"],
            "passed": drift["relative_drift"] <= 1e-3, **removed}

        def euler_drift(h):
            t = oi.integrate(conserved, state, IntegrationConfig("euler", 1.0, h))
            return oi.energy_drift(conserved, t)["max_abs_drift"]

        big, small = euler_drift(0.02), euler_drift(0.01)
        ratio = big / small if small else float("nan")
        report["checks"]["euler_halving_ratio"] = {
            "ratio": ratio, "passed": bool(np.isfinite(ratio) and 1.8 <= ratio <= 2.2),
            **removed}

    q0 = eg.parameter("q0", (dim,))
    p0 = eg.parameter("p0", (spec.p_dim,))
    nodes = oi.integrate_nodes(spec, q0, p0, IntegrationConfig("euler", 1.0, 0.25))
    target = eg.reduce_sum(eg.mul(nodes[-1][0], nodes[-1][0]))
    binds = {"q0": rng.uniform(-1, 1, dim), "p0": rng.uniform(-1, 1, spec.p_dim),
             **spec.bindings("field")}
    first_param = spec.param_items("field")[0]
    worst = 0.0
    for leaf in (q0, eg.parameter(first_param[0], first_param[1].shape)):
        rep = eg.check_gradient(target, leaf, binds, 1e-5, 1e-4)
        worst = max(worst, rep["max_relative_error"])
    report["checks"]["solver_gradient_fd"] = {
        "max_relative_error": worst, "passed": worst <= 1e-4}

    report["passed"] = all(c["passed"] for c in report["checks"].values())
    return report


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(args.variant, args.dim, args.seed)
    print(json.dumps(report, indent=1, default=float))
    return 0 if report["passed"] else 2


def cmd_sweep_layers(args) -> int:
    raw = load_run_config(args.config, args.set)
    model_cfg, train_cfg, seed = build_configs(raw)
    try:
        counts = [int(x) for x in args.layers.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"bad layer list {args.layers!r}")
    tr.layer_configs(model_cfg, counts)  # a bad count fails before the load and the mkdir
    dataset = gd.load_dataset(raw["dataset"])
    out_dir = Path(raw["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = tr.layer_sweep(model_cfg, train_cfg, dataset, counts)
    with open(out_dir / "layer_sweep.csv", "w", encoding="utf-8") as fh:
        fh.write("layers,best_val,test_metric,epochs,diverged_at\n")
        for row in rows:
            diverged = "" if row["diverged_at"] is None else row["diverged_at"]
            fh.write(f"{row['layers']},{row['best_val']!r},"
                     f"{row['test_metric']!r},{row['epochs']},{diverged}\n")
    print(_dump_metrics(rows))
    return 2 if any(row["diverged_at"] is not None for row in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamgnn",
        description="Node embedding along learnable phase-space orbits")
    parser.add_argument("--threads", type=int,
                        help="cap numeric-library parallelism "
                             "(overrides HAMGNN_THREADS)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a dotted config key")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="re-evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--task", choices=("classification", "link"))
    p_eval.add_argument("--out", help="output directory (default: checkpoint)")
    p_eval.add_argument("--export-embeddings", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_hyp = sub.add_parser("hyperbolicity", help="four-point hyperbolicity report")
    p_hyp.add_argument("--dataset", required=True)
    p_hyp.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p_hyp.add_argument("--samples", type=int)
    p_hyp.add_argument("--seed", type=int, default=0)
    p_hyp.add_argument("--out", default=".")
    p_hyp.set_defaults(func=cmd_hyperbolicity)

    p_mix = sub.add_parser("mix", help="disjoint union of two datasets")
    p_mix.add_argument("--dataset-a", required=True)
    p_mix.add_argument("--dataset-b", required=True)
    p_mix.add_argument("--out", required=True)
    p_mix.add_argument("--seed", type=int, default=0)
    p_mix.set_defaults(func=cmd_mix)

    p_gc = sub.add_parser("gradcheck", help="field/energy verification suite")
    p_gc.add_argument("--variant", required=True)
    p_gc.add_argument("--dim", type=int, default=8)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_sweep = sub.add_parser("sweep-layers", help="accuracy per layer count")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--layers", required=True,
                         help="comma-separated layer counts, e.g. 3,10")
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sweep.set_defaults(func=cmd_sweep_layers)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_thread_cap(args.threads)
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

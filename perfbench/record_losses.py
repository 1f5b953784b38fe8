#!/usr/bin/env python3
"""Record the train losses that the benchmark's output checks compare against.

    python3 perfbench/record_losses.py --seeds 0-10

Run from the root of a source checkout.  For each workload and seed it
generates the inputs and fits for the workload's full epoch count, exactly
as a benchmark run does, then stores the first-epoch and the final train
loss in ``expected_loss.json`` (entries for other seeds are kept).  Record
only when the library's outputs are meant to change: the stored values are
the reference later versions are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.pop("HAMGNN_THREADS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(max(1, min(2, os.cpu_count() or 1)))
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

import gen  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    args = parser.parse_args(argv)

    recorded = json.loads(worker.EXPECTED_LOSS.read_text(encoding="utf-8"))
    work = Path.cwd() / ".perfbench-work" / f"record-{os.getpid()}"
    try:
        for name in sorted(WORKLOADS):
            workload = WORKLOADS[name]
            kind, options = workload["data"]
            for seed in args.seeds:
                shutil.rmtree(work, ignore_errors=True)
                gen.write(work, *getattr(gen, kind)(seed, **options))
                model_cfg, train_cfg = worker.configs(workload, seed, workload["epochs"])
                fit = worker.fit_once(work, model_cfg, train_cfg)
                if len(fit.losses) != workload["epochs"]:
                    raise SystemExit(f"{name} seed {seed}: fit stopped early")
                recorded.setdefault(name, {})[str(seed)] = {
                    "first": fit.losses[0], "final": fit.losses[-1]}
                print(f"{name} seed {seed}: first {fit.losses[0]!r} final {fit.losses[-1]!r}",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ordered = {name: dict(sorted(recorded[name].items(), key=lambda kv: int(kv[0])))
               for name in sorted(recorded)}
    worker.EXPECTED_LOSS.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

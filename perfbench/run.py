#!/usr/bin/env python3
"""Training benchmark for the hamgnn library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The launcher generates the
workload's dataset directory from the seed, then measures it in a fresh
worker process (``worker.py``) that imports the library from ``src/`` with
the BLAS thread count fixed in its environment before numpy loads.  The
library's own ``HAMGNN_THREADS`` cap is not used: without ``threadpoolctl``
it has no effect.  The worker's report lines are passed through, and the
last line of the output is the result as one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer ones
(spans are also written to ``.perfbench-work/``).  Workloads are listed in
``workloads.py``.  Self-tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# the BLAS thread count is capped at two so that figures from machines with
# many cores stay comparable with the two-core machine the bounds were set on
BLAS_THREADS = str(max(1, min(2, os.cpu_count() or 1)))
WORKER_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hamgnn training benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "hamgnn" / "__init__.py").is_file():
        print(f"error: no library source at {src / 'hamgnn'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("HAMGNN_THREADS", None)
    import gen  # numpy loads here, after the thread variables are set

    kind, options = WORKLOADS[args.workload]["data"]
    work = root / ".perfbench-work"
    data_dir = work / f"{args.workload}-s{args.seed}-{os.getpid()}"
    trace_out = work / f"trace-{args.workload}-s{args.seed}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--dataset", str(data_dir),
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", str(trace_out)]
    try:
        gen.write(data_dir, *getattr(gen, kind)(args.seed, **options))
        proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        print(f"error: worker exited with code {proc.returncode} and no result",
              file=sys.stderr)
        return proc.returncode or 4
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"blas_threads {BLAS_THREADS}")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

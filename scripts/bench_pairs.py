#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on the working tree, in
alternating pairs, and summarise the end-to-end metrics.

Usage:
    python scripts/bench_pairs.py --parent REF --workload cora-class \
        [--seed 1 --pairs 5]

Run from anywhere inside a git checkout.  The parent ref and the working
tree (tracked and untracked files that git does not ignore, as ``git add
-A`` would stage them) are exported with ``git archive`` into a temporary
directory, so each side runs from its own clean copy.  Pair k runs
``perfbench/run.py --workload W --seed S --seconds T`` once on each side:
odd pairs run the parent first, even pairs the change.  The run length T,
the metrics and their better direction are those ``BENCHMARK.json`` gives:
its ``run_seconds`` and its end-to-end metrics.

The output is one JSON object: per metric, both medians, the pairs the
change won (strictly better) and those it tied, the interquartile range of
the parent's runs, the change's median relative to the parent's, and
whether the gain rule holds (``gain``: the change won at least 9 pairs in
10, and its median is better than the parent's by more than the parent's
interquartile range); and every run's ``correct`` and ``failed``.  The
script exits 1, naming the pair and the side on stderr, if a run was not
correct or reported failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def summarize(pairs: list, metrics: list) -> dict:
    """``pairs`` holds one ``(parent, change)`` per pair, each a run's
    result object (``{"correct", "failed", "metrics": {name: {"value"}}}``);
    ``metrics`` holds ``(name, better)`` with ``better`` "lower" or
    "higher".  A metric that a run does not report is left out of that
    pair."""
    out = {}
    for name, better in metrics:
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs
                if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        if not both:
            continue
        parent, change = zip(*both)
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else (parent[0],) * 3)
        sign = 1.0 if better == "lower" else -1.0
        p50, c50 = statistics.median(parent), statistics.median(change)
        wins = sum(sign * (c - p) < 0 for p, c in both)
        out[name] = {"parent_median": p50, "change_median": c50,
                     "change_over_parent": c50 / p50 - 1.0 if p50 else None,
                     "wins": wins, "ties": sum(c == p for p, c in both),
                     "pairs": len(both), "parent_iqr": q3 - q1,
                     "gain": 10 * wins >= 9 * len(both) and sign * (p50 - c50) > q3 - q1}
    runs = [{"pair": k, "side": side, "correct": run.get("correct"),
             "failed": run.get("failed")}
            for k, (p, c) in enumerate(pairs, start=1)
            for side, run in (("parent", p), ("change", c))]
    return {"metrics": out, "runs": runs}


def failed_runs(runs: list) -> list:
    """One line, naming the pair and the side, for each run of ``runs`` (as
    ``summarize`` lists them) that was not correct or reported failed
    operations."""
    return [f"pair {r['pair']} {r['side']}: correct={r['correct']}, failed={r['failed']}"
            for r in runs if r["correct"] is not True or r["failed"] != 0]


def _git(args: list, cwd: Path, env=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(repo: Path, tree: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", tree], cwd=repo, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _working_tree(repo: Path, scratch: Path) -> str:
    """The tree ``git add -A`` would stage, built in a temporary index so
    that the repository's own index is untouched."""
    env = {**os.environ, "GIT_INDEX_FILE": str(scratch / "index")}
    _git(["read-tree", "HEAD"], repo, env)
    _git(["add", "-A"], repo, env)
    return _git(["write-tree"], repo, env)


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "metrics": {},
                "error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parent/change benchmark pairs")
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    repo = Path(_git(["rev-parse", "--show-toplevel"], Path.cwd()))
    spec = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        scratch = Path(tmp)
        sides = {"parent": scratch / "parent", "change": scratch / "change"}
        _export(repo, _git(["rev-parse", f"{args.parent}^{{tree}}"], repo), sides["parent"])
        _export(repo, _working_tree(repo, scratch), sides["change"])
        pairs = []
        for k in range(1, args.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            result = {side: _run(sides[side], args.workload, args.seed, seconds)
                      for side in order}
            pairs.append((result["parent"], result["change"]))
            print(f"pair {k}/{args.pairs} done", file=sys.stderr)
    summary = summarize(pairs, metrics)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "parent": args.parent,
                      "seconds": seconds, **summary}))
    failed = failed_runs(summary["runs"])
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

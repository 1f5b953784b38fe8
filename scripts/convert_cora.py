#!/usr/bin/env python3
"""Convert the public citation-graph distribution (cora.content / cora.cites)
into the portable dataset directory format.

Usage:
    python scripts/convert_cora.py path/to/cora/ data/cora \
        [--train 140 --val 500 --test 1000 --seed 0]

Expects the classic two-file layout:
  * ``cora.content``: <paper id> <w0> ... <w1432> <class label> per line
  * ``cora.cites``:   <cited id> <citing id> per line

Self-citations, duplicate citation pairs and citations of unknown ids are
dropped (the portable format treats edges as an undirected set).  A paper id
listed twice, or split sizes that do not fit the node count, stop the
conversion.  Splits are a seeded random draw of the requested sizes, which
mirrors the usual 140/500/1000 protocol in size but not in the exact node
choice.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hamgnn import graphdata as gd  # noqa: E402


def convert(src: Path, dst: Path, train: int, val: int, test: int, seed: int,
            stem: str) -> gd.GraphDataset:
    content = src / f"{stem}.content"
    cites = src / f"{stem}.cites"
    if not content.exists() or not cites.exists():
        raise SystemExit(f"expected {content} and {cites}")

    index, rows, label_names = {}, [], []
    for line in content.read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] in index:
            raise SystemExit(f"{content}: paper id {parts[0]!r} is listed twice")
        index[parts[0]] = len(rows)
        rows.append([float(x) for x in parts[1:-1]])
        label_names.append(parts[-1])
    n = len(rows)
    if min(train, val, test) < 0 or train + val + test > n:
        raise SystemExit(f"split sizes --train {train} --val {val} --test {test} "
                         f"do not fit the {n} nodes of {content}")
    classes = {name: c for c, name in enumerate(sorted(set(label_names)))}
    labels = np.array([classes[name] for name in label_names])

    edges = set()
    skipped = 0
    for line in cites.read_text().splitlines():
        parts = line.split()
        if len(parts) != 2:
            continue
        a, b = parts
        if a not in index or b not in index or a == b:
            skipped += 1
            continue
        u, v = index[a], index[b]
        edges.add((min(u, v), max(u, v)))

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    masks = (order[:train], order[train:train + val],
             order[train + val:train + val + test])

    dataset = gd.GraphDataset(name=dst.name, features=np.array(rows),
                              labels=labels, edges=sorted(edges),
                              train_mask=masks[0], val_mask=masks[1],
                              test_mask=masks[2])
    gd.save_dataset(dataset, dst)
    print(f"wrote {dst}: {dataset.n} nodes, {len(dataset.edges)} edges, "
          f"{dataset.num_classes} classes, {dataset.num_features} features "
          f"({skipped} citation lines skipped)")
    return dataset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", type=Path)
    parser.add_argument("destination", type=Path)
    parser.add_argument("--stem", default="cora",
                        help="file stem, e.g. cora or citeseer")
    parser.add_argument("--train", type=int, default=140)
    parser.add_argument("--val", type=int, default=500)
    parser.add_argument("--test", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    convert(args.source, args.destination, args.train, args.val, args.test,
            args.seed, args.stem)
    return 0


if __name__ == "__main__":
    sys.exit(main())

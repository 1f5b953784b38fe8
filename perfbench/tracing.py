"""Spans and counts recorded from outside the library.

``Tracer`` replaces public functions of the library's modules with wrappers
that record one span per call: (name, start, end, parent).  Spans stay in
memory and are written out once, at the end of the run.  Nothing in the
library is edited; the wrappers are removed when the tracer closes.

Counts that need the graph (nodes evaluated, nodes a field call added) are
taken after the traced work from references the wrappers keep, so walking
the graph is not charged to any span.
"""

from __future__ import annotations

import json
import time


class Tracer:
    """Context manager that wraps ``(module, attribute)`` pairs while open."""

    def __init__(self, targets, keep=(), clock=time.perf_counter):
        self.targets = list(targets)       # (module, attribute, span name)
        self.keep = set(keep)              # span names whose calls are kept
        self.clock = clock
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.calls: list[tuple] = []       # (span index, args, kwargs, result)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrapper(self, func, name):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [name, self.clock(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if name in self.keep:
                self.calls.append((index, args, kwargs, result))
            return result
        return traced

    def __enter__(self):
        for module, attr, name in self.targets:
            func = getattr(module, attr)
            self._saved.append((module, attr, func))
            setattr(module, attr, self._wrapper(func, name))
        return self

    def __exit__(self, *exc):
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved.clear()
        return False

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _clip(start, end, window):
    if window is None:
        return start, end
    return max(start, window[0]), min(end, window[1])


def self_times(spans, window=None) -> list[float]:
    """Per span: its duration inside ``window`` minus the part of that
    interval its child spans cover."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        lo, hi = _clip(start, end, window)
        if hi <= lo:
            out.append(0.0)
            continue
        covered = []
        for cs, ce in children.get(index, ()):
            cs, ce = max(cs, lo), min(ce, hi)
            if ce > cs:
                covered.append((cs, ce))
        out.append((hi - lo) - union_length(covered))
    return out


def in_window(span, window) -> bool:
    """A span belongs to the window its start falls in (half-open)."""
    return window[0] <= span[1] < window[1]


# ---------------------------------------------------------------------------
# graph walks (over ``Node.inputs``; nodes are identified by ``nid``)


def walk(outputs, stop_below: int | None = None) -> list:
    """Every node reachable from ``outputs``.  With ``stop_below`` given,
    nodes with a smaller or equal id are neither counted nor expanded: node
    ids grow with creation and inputs predate their consumers, so this
    yields exactly the nodes created after that id."""
    seen, order = set(), []
    stack = list(outputs)
    while stack:
        node = stack.pop()
        if node.nid in seen or (stop_below is not None and node.nid <= stop_below):
            continue
        seen.add(node.nid)
        order.append(node)
        stack.extend(node.inputs)
    return order


def constant_bytes(nodes) -> int:
    """Bytes held by constant nodes, each distinct array counted once."""
    arrays = {id(n.attrs["value"]): n.attrs["value"] for n in nodes if n.op == "constant"}
    return sum(a.nbytes for a in arrays.values())


def affine_flops(node) -> int:
    """Multiply-add count of one affine node, computed from its shapes."""
    xs, ws = node.inputs[0].shape, node.inputs[1].shape
    if node.attrs.get("tx"):
        xs = xs[::-1]
    if node.attrs.get("tw"):
        ws = ws[::-1]
    rows = xs[0] if len(xs) == 2 else 1
    inner = xs[-1]
    cols = ws[1] if len(ws) == 2 else 1
    return 2 * rows * inner * cols

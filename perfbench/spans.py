"""Spans for the traced benchmark run.

A span is one timed call into a layer of the package, recorded from the
benchmark's own code: name (`<layer>.<function>`), start, end, parent span
and run id.  Spans stay in memory while the run is measured and are written
out as JSON lines once it ends.  Only `time.perf_counter` is used.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = (
    "simulate", "features", "io", "likelihood", "fit",
    "core", "rank_eval", "baselines", "cli",
)


class Tracer:
    """Records nested spans; span i's parent is an earlier index or -1."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []

    @contextmanager
    def span(self, name):
        """Times the block; yields the span's id."""
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(None)
        self._open.append(i)
        self.starts.append(time.perf_counter())
        try:
            yield i
        finally:
            self.ends[i] = time.perf_counter()
            self._open.pop()

    def add(self, name, start, end):
        """A span measured by the caller, under the innermost open span."""
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(start)
        self.ends.append(end)

    def durations(self, name):
        return [
            e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name
        ]

    def total(self, name):
        return sum(self.durations(name))

    def self_times(self):
        """Per-span duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def children(self, parent, name):
        """Durations of the spans called `name` directly under `parent`."""
        return [
            self.ends[i] - self.starts[i]
            for i in range(parent + 1, len(self.names))
            if self.parents[i] == parent and self.names[i] == name
        ]

    def layer_self_times(self, root):
        """Self time summed per layer over the spans strictly under `root`;
        a span's layer is the first component of its name."""
        out = dict.fromkeys(LAYERS, 0.0)
        own = self.self_times()
        for i in range(root + 1, len(self.names)):
            p = self.parents[i]
            while p > root:
                p = self.parents[p]
            if p == root:
                layer = self.names[i].split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + own[i]
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "run_id": self.run_id, "id": i, "name": name,
                    "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i],
                }) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced passes; records nothing."""

    @contextmanager
    def span(self, name):
        yield None


def percentile(values, q):
    """Linear-interpolated percentile (numpy's default rule), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

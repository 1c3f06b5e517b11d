"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op id).  Spans live in flat typed arrays
(about 40 bytes each) so that per-row spans of a long trial fit in memory,
and are written out once, when the run ends.  ``NullTracer`` has the same
interface and records nothing, so each workload has a single op code path for
both the traced and the untraced run.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


class NullTracer:
    """Untraced run: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    @contextmanager
    def op(self, op_id: int):
        yield


class Tracer:
    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self._stack: list[int] = []
        self._op = -1

    def _intern(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name: str, t0: int) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.start.append(t0)
        self.end.append(t0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        return idx

    def call(self, name, fn, *args):
        """Run fn(*args) as a leaf span under the current op."""
        t0 = perf_counter_ns()
        out = fn(*args)
        t1 = perf_counter_ns()
        self.end[self._open(name, t0)] = t1
        return out

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; every call inside it is its child."""
        self._op = op_id
        idx = self._open("op", perf_counter_ns())
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.end[idx] = perf_counter_ns()
            self._op = -1

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op_id": np.frombuffer(self.op_id, dtype=np.int64),
        }

    def self_times(self) -> dict:
        """name -> array of self times in seconds, one entry per span.

        Self time is a span's duration minus the durations of its children;
        children of one span run one after another, so they never overlap.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        own = dur.copy()
        has_parent = a["parent"] >= 0
        np.subtract.at(own, a["parent"][has_parent], dur[has_parent])
        return {name: own[a["name_id"] == i] * 1e-9 for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def span_cost_s(calls: int = 20000) -> float:
    """Tracing cost of one leaf span, from timing a no-op with and without it."""
    noop = int
    t = Tracer()
    with t.op(0):
        t0 = perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = perf_counter_ns()
        for _ in range(calls):
            t.call("noop", noop)
        t2 = perf_counter_ns()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls * 1e-9)

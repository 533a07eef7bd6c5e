"""Spans around calls into the program's modules, recorded from outside.

``Tracer.wrap`` replaces a function in the namespace that looks it up
(``model.py`` imports the kernels from ``tensor``; ``train.py`` and
``cli.py`` import ``forward``), so the program itself is unchanged. Spans
are kept in memory and written out when the run ends. A span records its
name, start, end, the span that was open when it started, the number of
autograd nodes built while it was open, and a few attributes of its call.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MIB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, t0, t1, parent, nodes, attrs)
        self.nodes = 0
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str, attrs=None):
        """Time every call of ``owner.attr`` as a span named ``name``;
        ``attrs(args, kwargs)`` picks what to record about the call."""
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            nodes0 = self.nodes
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.nodes - nodes0,
                              attrs(args, kwargs) if attrs else None)

        self._patch(owner, attr, traced)

    def count_nodes(self, tensor_cls):
        """Count calls of the engine's node constructor ``Tensor._from_op``."""
        fn = tensor_cls.__dict__["_from_op"].__func__

        def counted(data, parents, backward):
            self.nodes += 1
            return fn(data, parents, backward)
        self._patch(tensor_cls, "_from_op", staticmethod(counted))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "nodes",
                                  "attrs"], "spans": self.spans}, f)


class SpanIndex:
    """Queries over the recorded spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for i, s in enumerate(spans):
            self.children[s[3]].append(i)

    def dur(self, i) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def named(self, name, since=-math.inf, until=math.inf) -> list[int]:
        """Spans called ``name`` that started in [since, until)."""
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and since <= s[1] < until]

    def descendants(self, i):
        todo = list(self.children[i])
        while todo:
            j = todo.pop()
            yield j
            todo.extend(self.children[j])

    def within(self, i, name) -> list[int]:
        return [j for j in self.descendants(i) if self.spans[j][0] == name]

    def total_within(self, i, name) -> float:
        return sum(self.dur(j) for j in self.within(i, name))

    def self_time(self, i) -> float:
        return self.dur(i) - sum(self.dur(j) for j in self.children[i])


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def graph_memory(step, backward=True) -> dict:
    """Bytes that what ``step()`` returns keeps alive (its autograd graph)
    and, if ``backward``, the peak during ``backward()`` of that scalar
    loss, from tracemalloc and relative to the traced memory before the
    step. The cyclic garbage
    collector is held off, so that when it runs does not move the figures."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = step()
        out = {"retained": (tracemalloc.get_traced_memory()[0] - base) / MIB}
        if backward:
            tracemalloc.reset_peak()
            loss.backward()
            out["backward_peak"] = (tracemalloc.get_traced_memory()[1] - base) / MIB
        del loss
    finally:
        tracemalloc.stop()
        gc.enable()
    return out


# The model's own 2-D GEMM: SMALL's MLP input, batch 16 x 65 tokens by 250
# channels, times the 250 x 1000 fc1 weight.
CEILING_SHAPE = (1040, 250, 1000)


def gemm_ceiling_gflops(reps: int = 40) -> float:
    m, k, n = CEILING_SHAPE
    rng = np.random.default_rng(0)
    a, b = rng.random((m, k)), rng.random((k, n))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * m * k * n / median(times) / 1e9

"""In-memory spans around the calls the benchmark makes into each layer.

A span is (name, start, end, parent).  Spans stay in memory until a repeat
ends and are then folded into per-name totals.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans plus the time no span covers add up to the repeat's wall time.

``instrument`` routes the calls ``decentrack.harness`` makes into the other
modules through spans by swapping module attributes for the length of one
repeat; it changes no arithmetic, so traces stay byte-identical.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

import numpy as np

from decentrack import harness, models

# harness attribute -> span name of the layer it belongs to
_HARNESS_CALLS = {
    "run_round": "algorithms.round",
    "init_states": "algorithms.init_states",
    "comm_cost": "algorithms.comm_cost",
    "consensus_error": "harness.consensus_error",
}


class NullTracer:
    """Stand-in for untraced repeats: every span is a no-op."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, summed duration, summed self time)."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, tuple[int, float, float]] = {}
        for (name, start, end, _), child in zip(self.spans, children):
            count, total, self_time = out.get(name, (0, 0.0, 0.0))
            out[name] = (count + 1, total + (end - start), self_time + (end - start - child))
        return out


class _TimedWeights(np.ndarray):
    """View of a mixing matrix whose matrix products are recorded as spans.

    Every ufunc runs on plain-array views of its operands, so results are
    plain arrays computed exactly as without the wrapper.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = tuple(
            x.view(np.ndarray) if isinstance(x, _TimedWeights) else x for x in inputs
        )
        if ufunc is not np.matmul or method != "__call__":
            return getattr(ufunc, method)(*plain, **kwargs)
        idx = self.tracer.begin("topology.mix")
        try:
            return ufunc(*plain, **kwargs)
        finally:
            self.tracer.end(idx)


@contextmanager
def instrument(tracer: Tracer, W, problem):
    """Trace harness -> {algorithms, models, topology} calls for one repeat."""
    saved = {attr: getattr(harness, attr) for attr in _HARNESS_CALLS}
    make_oracle = models.make_oracle
    weights = W.weights

    def traced_make_oracle(*args, **kwargs):
        return tracer.wrap("models.oracle", make_oracle(*args, **kwargs))

    timed = weights.view(_TimedWeights)
    timed.tracer = tracer
    try:
        for attr, name in _HARNESS_CALLS.items():
            setattr(harness, attr, tracer.wrap(name, saved[attr]))
        models.make_oracle = traced_make_oracle
        W.weights = timed
        if problem is not None:
            problem.evaluate = tracer.wrap("models.evaluate", problem.evaluate)
        yield
    finally:
        for attr, fn in saved.items():
            setattr(harness, attr, fn)
        models.make_oracle = make_oracle
        W.weights = weights
        if problem is not None:
            problem.__dict__.pop("evaluate", None)

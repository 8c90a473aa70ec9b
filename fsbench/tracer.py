"""Spans around the program's public functions, for the traced run.

A span is (id, name, start_ns, end_ns, parent id, tick); spans of one tick
(one serve tick, or one ingest/train round) share the tick id, and set-up
spans carry tick -1. Functions are wrapped where their caller looks them up
(for example model_train's own `encode` and `decode_series` names), only
while `installed()` is active, so untraced work runs the original code.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.tick = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Trace owner.attr as `name`; after(tracer, args, result) may count."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original, self._traced(original, name, after)))

    def replace(self, owner, attr: str, substitute) -> None:
        """Swap owner.attr for substitute while installed."""
        self._patches.append((owner, attr, getattr(owner, attr), substitute))

    def _traced(self, fn, name: str, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.tick))
            if after is not None:
                after(tracer, args, out)
            return out
        return traced

    @contextmanager
    def installed(self, tick: int):
        self.tick = tick
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    # ----------------------------------------------------------------------
    # summaries

    def durations_s(self, name: str) -> np.ndarray:
        return np.array([(e - s) / 1e9 for _, n, s, e, _, _ in self.spans if n == name])

    def mean_s(self, name: str) -> float:
        d = self.durations_s(name)
        return float(d.mean()) if d.size else 0.0

    def quantile_ms(self, name: str, q: float) -> float:
        """Quantile of call durations; 0 unless ten calls lie beyond it."""
        d = self.durations_s(name)
        if d.size == 0 or (q > 0.5 and d.size * (1.0 - q) < 10):
            return 0.0
        return float(np.quantile(d, q) * 1e3)

    def write(self, path, t_origin_ns: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, s, e, parent, tick in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start_ns": s - t_origin_ns,
                                     "end_ns": e - t_origin_ns,
                                     "parent": parent, "tick": tick}) + "\n")

"""Seeded input generator for the forecasting-service benchmark.

Writes inputs in the program's documented formats (span JSONL, metrics CSV,
features JSON, graph JSON) and keeps the ground truth it used, so checks can
compare the program's outputs against values it never computed:

  - each API's stage set and forward edges (a tree over distinct services),
  - each trace's end-to-end latency as the critical-path sum of stage work,
  - the trace count of every (api, window).

Only numpy is used here; nothing in this module imports the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

CLIENT = "client"
DELTA_S = 30
CAP = 150
WINDOW_US = DELTA_S * 1_000_000
N_SERVICE_POOL = 48
LABEL_PERIOD = 24
DEPLOYMENT_SEED = 2024

# The program's default request-rate schedule (stlgt.workload_sim:
# DEFAULT_R0, DEFAULT_AMP, DEFAULT_PERIOD_W, DEFAULT_BURSTS; the defaults of
# `stlgt simulate`), restated so the benchmark never runs the simulator:
# r(t) = R0 + AMP cos(2 pi t / PERIOD_W) req/s, plus BURST_EXTRA req/s during
# a burst, and Poisson(r(t) * DELTA_S) traces per API and window. That is 120
# traces in a mean window, 75 to 165 over a period and about 300 in a burst,
# against the subsample cap of 150.
R0 = 4.0
AMP = 1.5
PERIOD_W = 16
BURST_EXTRA = 5.0


def _burst_windows(n_bursts: int = 140) -> frozenset[int]:
    """Windows inside a burst of the default schedule: onsets from window 40
    with the spacing cycle (13, 21, 17, 24), durations cycling (2, 7, 7, 2,
    2, 7)."""
    out, t = set(), 40
    spacings, durations = (13, 21, 17, 24), (2, 7, 7, 2, 2, 7)
    for i in range(n_bursts):
        dur = durations[i % len(durations)]
        out.update(range(t, t + dur))
        t += dur + spacings[i % len(spacings)]
    return frozenset(out)


BURST_WINDOWS = _burst_windows()


def rate_at(t: int) -> float:
    """Requests per second of one API in window t."""
    rate = R0 + AMP * math.cos(2.0 * math.pi * t / PERIOD_W)
    return rate + (BURST_EXTRA if t in BURST_WINDOWS else 0.0)
D_SERVICE = 6
D_SPAN = 3

SPAN_LINE = ('{"trace_id":"%s","span_id":"s%d","parent_service":"%s",'
             '"service":"%s","api":"%s","start_us":%d,"end_us":%d,'
             '"status":"%s"}\n')
METRICS_HEADER = ("window_index,service,pod_count,cpu_usage_ratio,"
                  "memory_usage_ratio,network_rx_bytes,network_tx_bytes,"
                  "disk_io_bytes\n")


@dataclass(frozen=True)
class Topology:
    """Stage tree of one API; stage 0 is the client-called root and every
    stage's parent has a smaller index, so reversed order is bottom-up."""
    api: str
    services: tuple[str, ...]        # one distinct service per stage
    parent: tuple[int, ...]          # parent stage index, -1 for the root
    pre_ms: np.ndarray = field(compare=False)   # work before children
    post_ms: np.ndarray = field(compare=False)  # work after children return

    @property
    def n(self) -> int:
        return len(self.services)

    def key(self, i: int) -> tuple[str, str]:
        p = self.parent[i]
        return (CLIENT if p < 0 else self.services[p], self.services[i])

    def stage_keys(self) -> set[tuple[str, str]]:
        return {self.key(i) for i in range(self.n)}

    def forward_edge_keys(self) -> set[tuple[tuple[str, str], tuple[str, str]]]:
        return {(self.key(self.parent[i]), self.key(i)) for i in range(1, self.n)}

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for i in range(1, self.n):
            kids[self.parent[i]].append(i)
        return kids


def make_topology(rng, api: str, n: int) -> Topology:
    """Random recursive tree over n services drawn from a shared pool."""
    pool = rng.choice(max(N_SERVICE_POOL, n), size=n, replace=False)
    services = tuple(f"svc{int(s):03d}" for s in pool)
    parent = (-1,) + tuple(int(rng.integers(0, i)) for i in range(1, n))
    pre_ms = rng.uniform(0.2, 2.0, size=n)
    post_ms = rng.uniform(0.1, 1.0, size=n)
    return Topology(api, services, parent, pre_ms, post_ms)


def periodic_load(t, phase: float):
    """Smooth load around 1 with period LABEL_PERIOD windows (train labels)."""
    return 1.0 + 0.4 * np.cos(2.0 * math.pi * np.asarray(t) / LABEL_PERIOD + phase)


@dataclass
class WindowTruth:
    count: int                 # traces that arrived in the window
    latencies_us: np.ndarray   # critical-path end-to-end latency per trace


class Traffic:
    """Span traffic of several APIs, one window at a time.

    sizes maps api -> stage count. Every API follows the default rate
    schedule (rate_at), so the windows requested fix the mean load and the
    bursts, and the seed drives the Poisson counts, the trace shapes and the
    latencies. The stage trees are the deployment and do not depend on the
    seed, so the cost of a window depends on its traffic, not on a reshaped
    service. Windows must be requested in a fixed order for output to repeat.
    """

    def __init__(self, seed: int, sizes: dict[str, int]):
        deployment = np.random.default_rng(DEPLOYMENT_SEED)
        self.topologies = {api: make_topology(deployment, api, n)
                           for api, n in sizes.items()}
        self.rng = np.random.default_rng([seed, 11])
        self.services = tuple(sorted({s for tp in self.topologies.values()
                                      for s in tp.services}))
        self._started: set[str] = set()

    def window(self, api: str, t: int) -> tuple[list[str], WindowTruth]:
        """Span lines of one (api, window); the API's first window starts
        with a trace that visits every stage."""
        rate = rate_at(t)
        count = max(1, int(self.rng.poisson(rate * DELTA_S)))
        full_first = api not in self._started
        self._started.add(api)
        lines, lat = window_traces(self.rng, self.topologies[api], t, count,
                                   rate / R0, full_first)
        return lines, WindowTruth(count, lat)

    def metrics_rows(self, t: int, drop: float = 0.05) -> list[str]:
        """One metrics row per service; a dropped row is carried forward by
        the reader. The first window requested keeps every row."""
        load = rate_at(t) / R0
        first = "metrics" not in self._started
        self._started.add("metrics")
        rng = self.rng
        rows = []
        for s in self.services:
            if not first and rng.random() < drop:
                continue
            cpu = min(1.0, max(0.0, 0.25 + 0.4 * (load - 0.6) + rng.normal(0, 0.05)))
            mem = min(1.0, max(0.0, 0.5 + rng.normal(0, 0.03)))
            rx = 1e6 * load * rng.lognormal(0, 0.2)
            tx = 8e5 * load * rng.lognormal(0, 0.2)
            disk = 2e5 * rng.lognormal(0, 0.3)
            rows.append(f"{t},{s},{int(rng.integers(1, 5))},{cpu!r},{mem!r},"
                        f"{rx!r},{tx!r},{disk!r}\n")
        return rows


def window_traces(rng, topo: Topology, t: int, count: int, load: float,
                  full_first: bool, failure_rate: float = 0.01):
    """Span lines and critical-path latencies of `count` traces in window t.

    Each stage does its pre-work, dispatches its included children in
    parallel, waits for the slowest, then does its post-work; so the root's
    duration is the critical-path sum. A non-root stage (with its subtree)
    is skipped with probability 0.1, except in the first trace when
    `full_first` is set.
    """
    n = topo.n
    kids = topo.children()
    scale = (1.0 + 0.6 * (load - 1.0)) * 1000.0
    noise = rng.lognormal(0.0, 0.35, size=(count, n, 2))
    pre = np.maximum(1, (topo.pre_ms * scale * noise[:, :, 0]).astype(np.int64))
    post = np.maximum(1, (topo.post_ms * scale * noise[:, :, 1]).astype(np.int64))
    keep = rng.random((count, n)) >= 0.1
    keep[:, 0] = True
    if full_first:
        keep[0, :] = True
    for i in range(1, n):
        keep[:, i] &= keep[:, topo.parent[i]]

    dur = np.zeros((count, n), dtype=np.int64)
    for i in reversed(range(n)):
        slowest = np.zeros(count, dtype=np.int64)
        for c in kids[i]:
            slowest = np.maximum(slowest, np.where(keep[:, c], dur[:, c], 0))
        dur[:, i] = pre[:, i] + slowest + post[:, i]

    start = np.zeros((count, n), dtype=np.int64)
    start[:, 0] = t * WINDOW_US + rng.integers(0, WINDOW_US - 1, size=count)
    for i in range(1, n):
        p = topo.parent[i]
        start[:, i] = start[:, p] + pre[:, p]
    end = start + dur
    failed = rng.random((count, n)) < failure_rate

    parents = [topo.key(i)[0] for i in range(n)]
    lines = []
    for k in range(count):
        trace_id = f"{topo.api}-{t}-{k}"
        for i in np.flatnonzero(keep[k]):
            lines.append(SPAN_LINE % (
                trace_id, i, parents[i], topo.services[i], topo.api,
                start[k, i], end[k, i], "failed" if failed[k, i] else "ok"))
    return lines, dur[:, 0].copy()


def write_span_files(traffic: Traffic, windows: range, spans_write,
                     metrics_write) -> tuple[dict[tuple[str, int], WindowTruth], int]:
    """Stream every API's spans and the metrics CSV for the given windows;
    returns the per-(api, window) truth and the span count."""
    truth = {}
    n_spans = 0
    metrics_write(METRICS_HEADER)
    for t in windows:
        for api in traffic.topologies:
            lines, wt = traffic.window(api, t)
            spans_write("".join(lines))
            n_spans += len(lines)
            truth[(api, t)] = wt
        metrics_write("".join(traffic.metrics_rows(t)))
    return truth, n_spans


# --------------------------------------------------------------------------
# features and graph files for training

def tree_graph_json(api: str, n: int, seed: int) -> str:
    """Graph JSON (documented schema) of a random stage tree with n stages."""
    topo = make_topology(np.random.default_rng([seed, 12]), api, n)
    nodes = [{"index": i, "parent": topo.key(i)[0], "service": topo.services[i]}
             for i in range(n)]
    edges = sorted([topo.parent[i], i] for i in range(1, n))
    return json.dumps({"schema_version": 1, "api": api, "nodes": nodes,
                       "edges": edges}, sort_keys=True) + "\n"


def stratified_uniform(rng, n: int, block: int = LABEL_PERIOD) -> np.ndarray:
    """Uniform(0, 1) draws in which every block of consecutive values holds
    exactly one value per 1/block stratum, in seeded random order.

    Any split made of whole blocks then has nearly the same empirical
    distribution, so quality metrics computed on a split of a few hundred
    windows vary little between seeds while the series still differs.
    """
    out = np.empty(n)
    for lo in range(0, n, block):
        m = min(block, n - lo)
        out[lo:lo + m] = (rng.permutation(block)[:m] + rng.random(m)) / block
    return out


def features_json(api: str, n: int, n_windows: int, seed: int) -> tuple[str, np.ndarray]:
    """Features JSON (documented schema) and its p95 label series.

    The label is a slow periodic load response (fixed phase, so a split of
    whole periods sees the same load shape) plus window-level noise of
    similar size, so a quantile forecaster has a clear edge over repeating
    the last label.
    """
    rng = np.random.default_rng([seed, 13])
    load = periodic_load(np.arange(n_windows), 0.0)
    y = 40.0 + 25.0 * load + 20.0 * (stratified_uniform(rng, n_windows) - 0.5)
    node_gain = rng.uniform(0.5, 1.5, size=n)
    windows = []
    for t in range(n_windows):
        x = np.empty((n, D_SERVICE + D_SPAN))
        x[:, 0] = rng.integers(1, 5, size=n)
        x[:, 1] = np.clip(0.3 * load[t] * node_gain + rng.normal(0, 0.05, n), 0, 1)
        x[:, 2] = np.clip(0.5 + rng.normal(0, 0.03, n), 0, 1)
        x[:, 3] = 1e6 * load[t] * node_gain * rng.lognormal(0, 0.2, n)
        x[:, 4] = 8e5 * load[t] * node_gain * rng.lognormal(0, 0.2, n)
        x[:, 5] = 2e5 * rng.lognormal(0, 0.3, n)
        starts = rng.uniform(0.0, 0.5, n)
        x[:, 6] = starts
        x[:, 7] = np.minimum(1.0, starts + rng.uniform(0.1, 0.5, n))
        x[:, 8] = x[:, 7] - x[:, 6]
        count = max(1, int(rng.poisson(R0 * DELTA_S * load[t])))
        lat = np.sort(y[t] * rng.uniform(0.3, 1.1, size=5))
        c = [count / DELTA_S, lat[1], lat[3], lat[4], lat.mean(), lat[2],
             float(rng.uniform(0.0, 0.02))]
        windows.append({"t": t, "X": x.reshape(-1).tolist(), "c": c,
                        "y": float(y[t]), "trace_count": count})
    text = json.dumps({"schema_version": 1, "api": api, "delta_s": DELTA_S,
                       "cap": CAP, "seed": seed, "windows": windows},
                      sort_keys=True) + "\n"
    return text, y

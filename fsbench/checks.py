"""Correctness checks on the program's outputs.

Every check compares an output against a value the program does not compute
itself: the generator's ground truth, a numpy reimplementation of a formula,
or a second public path through the program. None compares against a stored
copy of earlier output. Each raises CheckFailed with a message naming what
differed; fsbench/selftest.py shows that each one rejects a corrupted output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gen import CAP, DELTA_S

# p95 labels and throughputs are the same float operations in the same
# order as the generator's numpy calls, so they may differ only by rounding.
LABEL_RTOL = 1e-12
# batch-1 predict and predict_batches run the same ops on different batch
# shapes; BLAS may sum in another order, so allow float64 rounding growth.
BATCH_RTOL = 1e-6
BATCH_ATOL_MS = 1e-6
MIX_RTOL = 1e-10
MIX_ATOL = 1e-12


class CheckFailed(AssertionError):
    pass


def _fail(msg: str):
    raise CheckFailed(msg)


# --------------------------------------------------------------------------
# ingest

def check_topology(api: str, graph, topo) -> None:
    """Stage nodes and forward edges equal the generated stage tree."""
    keys = [(n.parent, n.service) for n in graph.nodes]
    if len(keys) != topo.n or set(keys) != topo.stage_keys():
        _fail(f"{api}: stage nodes {sorted(keys)} != generated {sorted(topo.stage_keys())}")
    edges = {(keys[i], keys[j]) for i, j in graph.forward_edges}
    if len(graph.forward_edges) != topo.n - 1 or edges != topo.forward_edge_keys():
        _fail(f"{api}: forward edges differ from the generated tree")


def check_window_features(api: str, feats, truth: dict) -> None:
    """Per-window trace counts equal the generator's; at or under the cap,
    the p95 label and the throughput equal numpy over generated latencies."""
    want = {t: wt for (a, t), wt in truth.items() if a == api}
    got = {w.t: w for w in feats}
    if sorted(got) != sorted(want):
        _fail(f"{api}: windows {sorted(got)} != generated {sorted(want)}")
    for t, w in got.items():
        wt = want[t]
        if w.trace_count != wt.count:
            _fail(f"{api} window {t}: trace_count {w.trace_count} != {wt.count}")
        if wt.count > CAP:
            continue
        p95 = float(np.quantile(wt.latencies_us / 1000.0, 0.95))
        if not math.isclose(w.y, p95, rel_tol=LABEL_RTOL, abs_tol=0.0):
            _fail(f"{api} window {t}: p95 label {w.y!r} != {p95!r}")
        if not math.isclose(float(w.c[0]), wt.count / DELTA_S, rel_tol=LABEL_RTOL):
            _fail(f"{api} window {t}: throughput {w.c[0]!r} != {wt.count / DELTA_S!r}")


def check_saved_counts(api: str, path, truth: dict) -> None:
    """The saved features file, read with the json module, carries the
    generator's trace count for every window."""
    with open(path, encoding="utf-8") as fh:
        saved = {w["t"]: w["trace_count"] for w in json.load(fh)["windows"]}
    want = {t: wt.count for (a, t), wt in truth.items() if a == api}
    if saved != want:
        _fail(f"{api}: saved trace counts differ from the generated ones")


# --------------------------------------------------------------------------
# train

def persistence_reference(y: np.ndarray, train_frac: float, val_frac: float,
                          l_hist: int, horizon: int):
    """Test-split future labels and the repeat-last-label forecasts, built
    from the generated label series by the documented split rule."""
    n = len(y)
    test = y[int(n * train_frac) + int(n * val_frac):]
    origins = range(l_hist - 1, len(test) - horizon)
    future = np.array([test[j + 1:j + 1 + horizon] for j in origins])
    last = np.array([[test[j]] * horizon for j in origins])
    return future, last


def mean_pinball(y: np.ndarray, y_hat: np.ndarray, q: float) -> float:
    u = y - y_hat
    return float(np.mean(np.maximum(q * u, (q - 1.0) * u)))


def check_train(test_y: np.ndarray, model_pinball: float, pred_ms: np.ndarray,
                future: np.ndarray, last: np.ndarray, q: float) -> float:
    """The test labels the program built equal the reference ones, its
    reported pinball matches its predictions, and it beats persistence.
    Returns the persistence pinball."""
    if test_y.shape != future.shape or not np.array_equal(test_y, future):
        _fail(f"test labels {test_y.shape} differ from the generated split {future.shape}")
    if not np.all(np.isfinite(pred_ms)) or pred_ms.shape != future.shape:
        _fail("test predictions are not a finite (samples, H) array")
    own = mean_pinball(future, pred_ms, q)
    if not math.isclose(own, model_pinball, rel_tol=1e-9):
        _fail(f"evaluate() pinball {model_pinball!r} != pinball of predictions {own!r}")
    persistence = mean_pinball(future, last, q)
    if not model_pinball < persistence:
        _fail(f"test pinball {model_pinball:.4f} ms does not beat persistence "
              f"{persistence:.4f} ms")
    return persistence


def check_repeatable(what: str, first, again) -> None:
    """A round on the same inputs reproduces the first round's result."""
    if first != again:
        _fail(f"{what}: a repeated round gave {again!r}, the first gave {first!r}")


# --------------------------------------------------------------------------
# serve

def check_forecast(api: str, yhat, horizon: int) -> None:
    if len(yhat) != horizon or not all(math.isfinite(v) for v in yhat):
        _fail(f"{api}: forecast {yhat!r} is not {horizon} finite values")


def check_batch_agreement(api: str, single: np.ndarray, batched: np.ndarray) -> None:
    """Batch-1 forecasts equal predict_batches on the same histories."""
    if single.shape != batched.shape or not np.allclose(
            single, batched, rtol=BATCH_RTOL, atol=BATCH_ATOL_MS):
        worst = float(np.max(np.abs(single - batched))) if single.shape == batched.shape else math.inf
        _fail(f"{api}: batch-1 and batched forecasts differ by up to {worst} ms")


def explicit_linear_mix(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(V + (Q K^T) V / N) / (1 + (Q K^T) 1 / N), forming the N x N matrix."""
    n = q.shape[0]
    a = q @ k.T
    return (v + a @ v / n) / (1.0 + a.sum(axis=1, keepdims=True) / n)


def check_linear_mix(api: str, out: np.ndarray, q, k, v) -> None:
    ref = explicit_linear_mix(q, k, v)
    if out.shape != ref.shape or not np.allclose(out, ref, rtol=MIX_RTOL, atol=MIX_ATOL):
        _fail(f"{api}: linear_global_mix differs from the explicit N x N formula")

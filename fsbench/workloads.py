"""The benchmark's three workloads of the forecasting service.

ingest  offline featurization of one long span file plus its metrics CSV
train   training on a features file and a large stage graph, then test eval
serve   single-client closed-loop replay: newest window in, H-step forecast out

Each workload runs whole operations (an ingest round, a train round, a serve
tick of one forecast per API) until the run's seconds have elapsed, and
times only the program's work: input generation and checks stay outside the
timed regions. The program is driven only through its public functions, and
always through their module attribute, so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import sys
import time
import traceback
import warnings
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stlgt import cli
from stlgt import model_train as mt
from stlgt import numeric_core as nc
from stlgt import span_graph as sg
from stlgt import spatial_encoder as se
from stlgt import temporal_decoder as td
from stlgt import trace_ingest as ti
from stlgt.config import ModelConfig, TrainConfig

import checks
import gen
from gen import CAP, DELTA_S
from tracer import Tracer

MODEL = ModelConfig()

# ingest: four APIs up to N=32 stages over one whole load period, so every
# seed carries the same mean load; it starts at the schedule's first burst,
# so windows 40, 41 and 55 of every API are bursts above the cap
INGEST_APIS = {"checkout": 32, "search": 20, "cart": 12, "login": 6}
INGEST_WINDOWS = range(40, 40 + gen.PERIOD_W)
CONSTRUCT_FRAC = 0.70

# train: ~100-stage graph; splits are whole label periods (216/24/144 windows)
TRAIN_N = 96
TRAIN_WINDOWS = 384
TRAIN_CFG = TrainConfig(max_epochs=1, patience=2, train_frac=216 / 384,
                        val_frac=24 / 384)

# serve: three small graphs, so the median forecast is the middle API's;
# the checkpoints train on 50 history windows (30 train, 18 validation: one
# validation sample of L + H windows)
SERVE_APIS = {"login": 6, "cart": 14, "checkout": 32}
SERVE_HISTORY = 50
SERVE_TRAIN_CFG = TrainConfig(max_epochs=1, patience=2, train_frac=0.6,
                              val_frac=0.37)
SERVE_BATCH_SAMPLES = 48


@dataclass
class Run:
    seed: int
    seconds: float
    traced: bool
    out: Path
    tracer: Tracer = field(default_factory=Tracer)
    attempted: int = 0
    failed: int = 0
    measure_start: float = 0.0
    op_s: list[float] = field(default_factory=list)       # successful ops
    op_traced: list[bool] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)

    def setup_tracing(self):
        """Trace a set-up call in the traced run only."""
        return self.tracer.installed(-1) if self.traced else nullcontext()

    def measure(self, op) -> None:
        """Run op(i) for whole operations until `seconds` have passed.

        op returns its own timed duration (seconds) or raises; a raised
        operation counts as failed. In the traced run every other op is
        traced, so the untraced ones give the tracing overhead.
        """
        self.measure_start = time.perf_counter()
        i = 0
        while time.perf_counter() - self.measure_start < self.seconds:
            traced = self.traced and i % 2 == 0
            with self.tracer.installed(i) if traced else nullcontext():
                try:
                    self.op_s.append(op(i))
                    self.op_traced.append(traced)
                except checks.CheckFailed:
                    raise
                except Exception:  # noqa: BLE001 - a failed op is counted, run goes on
                    traceback.print_exc(file=sys.stderr)
                    self.failed += 1
            i += 1

    def record_e2e(self, items: float, latencies_s) -> None:
        """Items per second of timed work over the whole run, and the
        median latency of one operation (a round, or one forecast)."""
        self.e2e["items_per_s"] = items / float(np.sum(self.op_s))
        self.e2e["op_p50_ms"] = float(np.median(latencies_s)) * 1e3

    def overhead_pct(self) -> float:
        """Median over adjacent (traced, untraced) op pairs of the traced
        op's extra time, as a share of the untraced one."""
        ratios = [self.op_s[k] / self.op_s[k + 1] for k in range(len(self.op_s) - 1)
                  if self.op_traced[k] and not self.op_traced[k + 1]]
        return 100.0 * (float(np.median(ratios)) - 1.0) if ratios else 0.0


def _api_windows(grouped, api: str):
    return sorted((wt for (a, _), wt in grouped.items() if a == api),
                  key=lambda w: w.window_index)


# --------------------------------------------------------------------------
# ingest

def ingest(run: Run) -> None:
    traffic = gen.Traffic(run.seed, INGEST_APIS)
    spans_path, metrics_path = run.out / "spans.jsonl", run.out / "metrics.csv"
    with open(spans_path, "w", encoding="utf-8") as sf, \
            open(metrics_path, "w", encoding="utf-8") as mf:
        truth, n_spans = gen.write_span_files(traffic, INGEST_WINDOWS,
                                              sf.write, mf.write)
    saved = {api: run.out / f"{api}.features.json" for api in INGEST_APIS}
    first: list = []

    def round_(i: int) -> float:
        run.attempted += 1
        t0 = time.perf_counter()
        with open(spans_path, encoding="utf-8") as fh:
            records = ti.parse_spans(fh)
        with open(metrics_path, encoding="utf-8") as fh:
            metrics = ti.load_service_metrics(fh)
        mcg = ti.derive_mcg(records)
        grouped = ti.group_traces(records, DELTA_S)
        n_parsed = len(records)
        del records
        out = {}
        for api in INGEST_APIS:
            windows = _api_windows(grouped, api)
            n_construct = max(1, int(len(windows) * CONSTRUCT_FRAC))
            graph = sg.build_span_graph(windows[:n_construct], mcg)
            feats = sg.assemble_windows(graph, windows, metrics, DELTA_S,
                                        cap=CAP, seed=run.seed)
            sg.save_features(saved[api], api, DELTA_S, CAP, run.seed, feats)
            out[api] = (graph, feats)
        elapsed = time.perf_counter() - t0
        if n_parsed != n_spans:
            raise checks.CheckFailed(f"parsed {n_parsed} spans, generated {n_spans}")
        digest = {api: ([w.t for w in f], [w.y for w in f], [w.trace_count for w in f])
                  for api, (_, f) in out.items()}
        if not first:
            for api, (graph, feats) in out.items():
                checks.check_topology(api, graph, traffic.topologies[api])
                checks.check_window_features(api, feats, truth)
                checks.check_saved_counts(api, saved[api], truth)
            first.append(digest)
        else:
            checks.check_repeatable("ingest features", first[0], digest)
        return elapsed

    run.measure(round_)
    run.record_e2e(n_spans * len(run.op_s), run.op_s)


# --------------------------------------------------------------------------
# train

def train(run: Run) -> None:
    graph_path = run.out / "graph.json"
    feats_path = run.out / "features.json"
    graph_path.write_text(gen.tree_graph_json("bulk", TRAIN_N, run.seed), encoding="utf-8")
    text, labels = gen.features_json("bulk", TRAIN_N, TRAIN_WINDOWS, run.seed)
    feats_path.write_text(text, encoding="utf-8")
    del text
    with run.setup_tracing():
        graph = sg.load_graph(graph_path)
        _, windows = sg.load_features(feats_path)
    future, repeated = checks.persistence_reference(
        labels, TRAIN_CFG.train_frac, TRAIN_CFG.val_frac, MODEL.L, MODEL.H)
    n_train_samples = int(TRAIN_WINDOWS * TRAIN_CFG.train_frac) - MODEL.L - MODEL.H + 1
    last: dict = {}   # the latest round's outputs

    def round_(i: int) -> float:
        run.attempted += 1
        t0 = time.perf_counter()
        result, normalizer, ops, test = cli.train_on_windows(windows, graph, MODEL, TRAIN_CFG)
        metrics = mt.evaluate(result.params, MODEL, ops, normalizer, test, TRAIN_CFG.q)
        elapsed = time.perf_counter() - t0
        if last:
            checks.check_repeatable("test pinball", last["round"][-1].mean_pinball,
                                    metrics.mean_pinball)
        last["round"] = (result, normalizer, ops, test, metrics)
        return elapsed

    run.measure(round_)
    result, normalizer, ops, test, metrics = last["round"]
    epochs = len(result.report)
    run.record_e2e(n_train_samples * epochs * len(run.op_s), run.op_s)

    pred_ms = normalizer.denorm_y(mt.predict_batches(
        result.params, MODEL, ops, normalizer.norm_x(test.x), normalizer.norm_c(test.c)))
    persistence = checks.check_train(test.y, metrics.mean_pinball, pred_ms,
                                     future, repeated, TRAIN_CFG.q)
    run.layer["model_train.test_pinball_ms"] = metrics.mean_pinball
    run.layer["model_train.persistence_pinball_ms"] = persistence
    run.layer["model_train.test_mape_pct"] = float(
        np.mean(np.abs(future - pred_ms) / future) * 100.0)
    run.layer["model_train.epochs_run"] = epochs


# --------------------------------------------------------------------------
# serve

@dataclass
class ApiState:
    params: dict
    cfg: ModelConfig
    normalizer: object
    graph: object
    ops: object
    history: deque
    samples: list = field(default_factory=list)   # (history, forecast) pairs


def serve(run: Run) -> None:
    traffic = gen.Traffic(run.seed, SERVE_APIS)
    spans_path, metrics_path = run.out / "history.jsonl", run.out / "metrics.csv"
    with open(spans_path, "w", encoding="utf-8") as sf, \
            open(metrics_path, "w", encoding="utf-8") as mf:
        truth, _ = gen.write_span_files(traffic, range(SERVE_HISTORY), sf.write, mf.write)
    with open(spans_path, encoding="utf-8") as fh:
        records = ti.parse_spans(fh)
    with open(metrics_path, encoding="utf-8") as fh:
        metrics = ti.load_service_metrics(fh)
    grouped = ti.group_traces(records, DELTA_S)
    mcg = ti.derive_mcg(records)
    del records

    states: dict[str, ApiState] = {}
    for api in SERVE_APIS:
        windows = _api_windows(grouped, api)
        graph = sg.build_span_graph(windows, mcg)
        checks.check_topology(api, graph, traffic.topologies[api])
        feats = sg.assemble_windows(graph, windows, metrics, DELTA_S, cap=CAP, seed=run.seed)
        checks.check_window_features(api, feats, truth)
        with warnings.catch_warnings():   # the two test windows make no sample
            warnings.simplefilter("ignore", UserWarning)
            result, normalizer, _, _ = cli.train_on_windows(feats, graph, MODEL,
                                                            SERVE_TRAIN_CFG)
        ckpt = run.out / f"{api}.ckpt"
        mt.save_checkpoint(ckpt, result.params, MODEL, SERVE_TRAIN_CFG, normalizer, graph)
        with run.setup_tracing():
            params, cfg, _, normalizer, graph = mt.load_checkpoint(ckpt)
            ops = se.build_operators(graph)
        states[api] = ApiState(params, cfg, normalizer, graph, ops,
                               deque(feats[-cfg.L:], maxlen=cfg.L))
    del grouped, truth

    latencies: list[float] = []

    def forecast(api: str, st: ApiState, t: int, lines: list[str]):
        t0 = time.perf_counter()
        records = ti.parse_spans(lines)
        wt = ti.group_traces(records, DELTA_S)[(api, t)]
        st.history.append(sg.assemble_window(st.graph, wt, metrics, DELTA_S,
                                             cap=CAP, seed=run.seed))
        fc = mt.predict(st.params, st.cfg, st.ops, st.normalizer, list(st.history))
        return time.perf_counter() - t0, fc

    def tick(i: int) -> float:
        t = SERVE_HISTORY + 1 + i
        tick_lat = []
        for api, st in states.items():
            lines, _ = traffic.window(api, t)
            run.attempted += 1
            elapsed, fc = forecast(api, st, t, lines)
            tick_lat.append(elapsed)
            checks.check_forecast(api, fc.yhat_ms, st.cfg.H)
            if len(st.samples) < SERVE_BATCH_SAMPLES:
                st.samples.append((list(st.history), fc.yhat_ms))
        latencies.extend(tick_lat)
        return sum(tick_lat)

    # warm-up tick, part of set-up: first batch-1 forecast on every graph
    for api, st in states.items():
        lines, _ = traffic.window(api, SERVE_HISTORY)
        forecast(api, st, SERVE_HISTORY, lines)

    run.measure(tick)
    run.record_e2e(len(latencies), latencies)

    rng = np.random.default_rng([run.seed, 21])
    ops_n, macs, max_out = [], [], []
    for api, st in states.items():
        hists = [h for h, _ in st.samples]
        single = np.array([fc for _, fc in st.samples])
        x = st.normalizer.norm_x(np.array([[w.X for w in h] for h in hists]))
        c = st.normalizer.norm_c(np.array([[w.c for w in h] for h in hists]))
        batched = st.normalizer.denorm_y(mt.predict_batches(st.params, st.cfg, st.ops, x, c))
        checks.check_batch_agreement(api, single, batched)

        n, d = st.ops.n, st.cfg.d
        q, k = rng.random((n, d)), rng.random((n, d))
        v = rng.normal(size=(n, d))
        mixed = se.linear_global_mix(nc.Tensor(q), nc.Tensor(k), nc.Tensor(v)).data
        checks.check_linear_mix(api, mixed, q, k, v)

        with nc.count_ops() as stats:
            mt.predict(st.params, st.cfg, st.ops, st.normalizer, list(st.history))
        ops_n.append(stats.ops)
        macs.append(stats.macs)
        max_out.append(stats.max_out_elems)
    run.layer["numeric_core.ops_per_forecast"] = float(np.mean(ops_n))
    run.layer["numeric_core.macs_per_forecast"] = float(np.mean(macs))
    run.layer["numeric_core.max_out_elems"] = float(max(max_out))


WORKLOADS = {"ingest": ingest, "train": train, "serve": serve}


# --------------------------------------------------------------------------
# traced run

def install_targets(run: Run) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    tr = run.tracer

    def count(key, fn):
        def after(tracer, args, out):
            tracer.counts[key] += fn(args, out)
        return after

    def kept(tracer, args, out):
        tracer.counts["traces_arrived"] += len(args[0].traces)
        tracer.counts["traces_kept"] += len(out.traces)

    tr.wrap(ti, "parse_spans", "trace_ingest.parse_spans",
            count("spans_parsed", lambda a, out: len(out)))
    tr.wrap(ti, "group_traces", "trace_ingest.group_traces")
    tr.wrap(ti, "derive_mcg", "trace_ingest.derive_mcg")
    tr.wrap(ti, "load_service_metrics", "trace_ingest.load_service_metrics")
    tr.wrap(sg, "build_span_graph", "span_graph.build_span_graph")
    tr.wrap(sg, "assemble_windows", "span_graph.assemble_windows")
    tr.wrap(sg, "assemble_window", "span_graph.assemble_window",
            count("windows_assembled", lambda a, out: 1))
    tr.wrap(sg, "subsample_traces", "span_graph.subsample_traces", kept)
    tr.wrap(sg, "save_features", "span_graph.save_features")
    tr.wrap(sg, "load_features", "span_graph.load_features")
    tr.wrap(cli, "train_on_windows", "cli.train_on_windows")
    tr.wrap(cli, "build_operators", "spatial_encoder.build_operators")
    tr.wrap(se, "build_operators", "spatial_encoder.build_operators")
    tr.wrap(mt, "encode", "spatial_encoder.encode")
    tr.wrap(se, "linear_global_mix", "spatial_encoder.global_mix")
    tr.wrap(se, "premix", "spatial_encoder.premix")
    tr.wrap(se, "gcn_branch", "spatial_encoder.gcn_branch")
    tr.wrap(mt, "decode_series", "temporal_decoder.decode_series")
    tr.wrap(td, "times_block", "temporal_decoder.times_block")
    tr.wrap(nc.Tape, "backward", "numeric_core.tape_backward")
    tr.wrap(mt.AdamW, "step", "model_train.adamw_step")
    tr.wrap(mt, "evaluate", "model_train.evaluate")
    tr.wrap(mt, "predict", "model_train.predict")
    tr.wrap(mt, "predict_batches", "model_train.predict_batches")
    tr.wrap(mt, "load_checkpoint", "model_train.load_checkpoint")

    class CountingTape(nc.Tape):
        """Counts the ops recorded in each training step."""

        def __enter__(self):
            self._counter = nc.count_ops()
            self._stats = self._counter.__enter__()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                self._counter.__exit__(*exc)
                tr.counts["train_steps"] += 1
                tr.counts["train_step_ops"] += self._stats.ops

    tr.replace(mt, "Tape", CountingTape)


def layer_metrics(run: Run) -> dict[str, float]:
    tr = run.tracer
    c = tr.counts
    m = {
        "trace_ingest.parse_spans_s": tr.mean_s("trace_ingest.parse_spans"),
        "trace_ingest.group_traces_s": tr.mean_s("trace_ingest.group_traces"),
        "trace_ingest.derive_mcg_s": tr.mean_s("trace_ingest.derive_mcg"),
        "trace_ingest.load_service_metrics_s": tr.mean_s("trace_ingest.load_service_metrics"),
        "trace_ingest.spans_parsed": c["spans_parsed"],
        "span_graph.assemble_window_ms_p50": tr.quantile_ms("span_graph.assemble_window", 0.5),
        "span_graph.build_span_graph_s": tr.mean_s("span_graph.build_span_graph"),
        "span_graph.save_features_s": tr.mean_s("span_graph.save_features"),
        "span_graph.load_features_s": tr.mean_s("span_graph.load_features"),
        "span_graph.windows_assembled": c["windows_assembled"],
        "span_graph.traces_arrived": c["traces_arrived"],
        "span_graph.traces_kept_ratio": (c["traces_kept"] / c["traces_arrived"]
                                         if c["traces_arrived"] else 0.0),
        "spatial_encoder.encode_s": tr.mean_s("spatial_encoder.encode"),
        "spatial_encoder.global_mix_s": tr.mean_s("spatial_encoder.global_mix"),
        "spatial_encoder.premix_s": tr.mean_s("spatial_encoder.premix"),
        "spatial_encoder.gcn_branch_s": tr.mean_s("spatial_encoder.gcn_branch"),
        "spatial_encoder.build_operators_s": tr.mean_s("spatial_encoder.build_operators"),
        "temporal_decoder.decode_series_s": tr.mean_s("temporal_decoder.decode_series"),
        "temporal_decoder.times_block_s": tr.mean_s("temporal_decoder.times_block"),
        "numeric_core.ops_per_forecast": 0.0,
        "numeric_core.macs_per_forecast": 0.0,
        "numeric_core.max_out_elems": 0.0,
        "numeric_core.tape_backward_s": tr.mean_s("numeric_core.tape_backward"),
        "numeric_core.ops_per_train_step": (c["train_step_ops"] / c["train_steps"]
                                            if c["train_steps"] else 0.0),
        "model_train.predict_ms_p50": tr.quantile_ms("model_train.predict", 0.5),
        "model_train.predict_ms_p99": tr.quantile_ms("model_train.predict", 0.99),
        "model_train.adamw_step_s": tr.mean_s("model_train.adamw_step"),
        "model_train.evaluate_s": tr.mean_s("model_train.evaluate"),
        "model_train.load_checkpoint_s": tr.mean_s("model_train.load_checkpoint"),
        "model_train.epochs_run": 0.0,
        "model_train.test_pinball_ms": 0.0,
        "model_train.persistence_pinball_ms": 0.0,
        "model_train.test_mape_pct": 0.0,
        "trace.overhead_pct": run.overhead_pct(),
        "trace.spans_recorded": float(len(tr.spans)),
    }
    m.update(run.layer)
    return m

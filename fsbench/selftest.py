"""Self-test of the benchmark's correctness checks.

    python3 fsbench/selftest.py

Each check must accept the program's real output on a small seeded input and
reject a deliberately corrupted copy of that output. Runs in a few seconds
from the root of a source checkout; exits 0 when every check behaves, 1
(naming the cases) otherwise.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from stlgt import cli  # noqa: E402
from stlgt import model_train as mt  # noqa: E402
from stlgt import numeric_core as nc  # noqa: E402
from stlgt import span_graph as sg  # noqa: E402
from stlgt import spatial_encoder as se  # noqa: E402
from stlgt import trace_ingest as ti  # noqa: E402
from stlgt.config import ModelConfig, TrainConfig  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402

failures: list[str] = []
cases = 0


def accepts(name: str, fn) -> None:
    global cases
    cases += 1
    try:
        fn()
    except checks.CheckFailed as err:
        failures.append(f"{name}: rejected a correct output ({err})")


def rejects(name: str, fn) -> None:
    global cases
    cases += 1
    try:
        fn()
    except checks.CheckFailed:
        return
    failures.append(f"{name}: accepted a corrupted output")


def ingest_cases(tmp: Path) -> None:
    traffic = gen.Traffic(7, {"a": 8, "b": 5})
    spans, rows = [], []
    truth, _ = gen.write_span_files(traffic, range(36, 44), spans.append, rows.append)
    records = ti.parse_spans("".join(spans).splitlines())
    metrics = ti.load_service_metrics("".join(rows).splitlines())
    mcg = ti.derive_mcg(records)
    grouped = ti.group_traces(records, gen.DELTA_S)
    for api, topo in traffic.topologies.items():
        windows = sorted((w for (a, _), w in grouped.items() if a == api),
                         key=lambda w: w.window_index)
        graph = sg.build_span_graph(windows, mcg)
        feats = sg.assemble_windows(graph, windows, metrics, gen.DELTA_S, cap=gen.CAP)
        saved = tmp / f"{api}.json"
        sg.save_features(saved, api, gen.DELTA_S, gen.CAP, 0, feats)

        accepts(f"topology {api}", lambda: checks.check_topology(api, graph, topo))
        dropped = sg.SpanGraph(api, graph.nodes[:-1], tuple(
            e for e in graph.forward_edges if graph.n - 1 not in e))
        rejects(f"topology {api} missing stage",
                lambda: checks.check_topology(api, dropped, topo))
        i, j = graph.forward_edges[0]
        flipped = sg.SpanGraph(api, graph.nodes, ((j, i),) + graph.forward_edges[1:])
        rejects(f"topology {api} reversed edge",
                lambda: checks.check_topology(api, flipped, topo))

        accepts(f"window features {api}",
                lambda: checks.check_window_features(api, feats, truth))
        under = next(k for k, w in enumerate(feats) if truth[(api, w.t)].count <= gen.CAP)
        for what, bad in (
                ("trace count", replace(feats[0], trace_count=feats[0].trace_count + 1)),
                ("p95 label", replace(feats[under], y=feats[under].y * (1 + 1e-9))),
                ("throughput", replace(feats[under], c=feats[under].c + np.eye(7)[0] * 1e-6))):
            k = 0 if what == "trace count" else under
            corrupted = feats[:k] + [bad] + feats[k + 1:]
            rejects(f"window features {api} {what}",
                    lambda: checks.check_window_features(api, corrupted, truth))

        accepts(f"saved counts {api}", lambda: checks.check_saved_counts(api, saved, truth))
        obj = json.loads(saved.read_text(encoding="utf-8"))
        obj["windows"][-1]["trace_count"] += 1
        saved.write_text(json.dumps(obj), encoding="utf-8")
        rejects(f"saved counts {api}", lambda: checks.check_saved_counts(api, saved, truth))


def train_and_serve_cases(tmp: Path) -> None:
    n_windows = 96
    tcfg = TrainConfig(max_epochs=1, patience=2, train_frac=0.5, val_frac=0.25)
    mcfg = ModelConfig()
    (tmp / "graph.json").write_text(gen.tree_graph_json("s", 6, 3), encoding="utf-8")
    text, labels = gen.features_json("s", 6, n_windows, 3)
    (tmp / "features.json").write_text(text, encoding="utf-8")
    graph = sg.load_graph(tmp / "graph.json")
    _, windows = sg.load_features(tmp / "features.json")
    result, norm, ops, test = cli.train_on_windows(windows, graph, mcfg, tcfg)
    ev = mt.evaluate(result.params, mcfg, ops, norm, test, tcfg.q)
    pred = norm.denorm_y(mt.predict_batches(result.params, mcfg, ops,
                                            norm.norm_x(test.x), norm.norm_c(test.c)))
    future, last = checks.persistence_reference(labels, tcfg.train_frac, tcfg.val_frac,
                                                mcfg.L, mcfg.H)
    q = tcfg.q
    accepts("train", lambda: checks.check_train(test.y, ev.mean_pinball, pred, future, last, q))
    bad_y = test.y.copy()
    bad_y[0, 0] += 1.0
    rejects("train test labels",
            lambda: checks.check_train(bad_y, ev.mean_pinball, pred, future, last, q))
    rejects("train reported pinball",
            lambda: checks.check_train(test.y, ev.mean_pinball * 1.01, pred, future, last, q))
    rejects("train no better than persistence",
            lambda: checks.check_train(test.y, checks.mean_pinball(future, last, q),
                                       last, future, last, q))
    bad_pred = pred.copy()
    bad_pred[0, 0] = np.nan
    rejects("train non-finite prediction",
            lambda: checks.check_train(test.y, ev.mean_pinball, bad_pred, future, last, q))
    accepts("repeatable", lambda: checks.check_repeatable("x", 1.0, 1.0))
    rejects("repeatable", lambda: checks.check_repeatable("x", 1.0, 1.0 + 1e-15))

    # serve: batch-1 forecasts on consecutive histories vs predict_batches
    ws = sorted(windows, key=lambda w: w.t)
    hists = [ws[k:k + mcfg.L] for k in range(8)]
    single = np.array([mt.predict(result.params, mcfg, ops, norm, h).yhat_ms for h in hists])
    x = norm.norm_x(np.array([[w.X for w in h] for h in hists]))
    c = norm.norm_c(np.array([[w.c for w in h] for h in hists]))
    batched = norm.denorm_y(mt.predict_batches(result.params, mcfg, ops, x, c))
    accepts("forecast", lambda: checks.check_forecast("s", single[0].tolist(), mcfg.H))
    rejects("forecast short", lambda: checks.check_forecast("s", single[0][:-1].tolist(), mcfg.H))
    rejects("forecast nan", lambda: checks.check_forecast(
        "s", [np.nan] + single[0][1:].tolist(), mcfg.H))
    accepts("batch agreement", lambda: checks.check_batch_agreement("s", single, batched))
    skewed = single.copy()
    skewed[3, 2] += 1e-3
    rejects("batch agreement", lambda: checks.check_batch_agreement("s", skewed, batched))

    rng = np.random.default_rng(5)
    qm, km, vm = rng.random((6, 32)), rng.random((6, 32)), rng.normal(size=(6, 32))
    mixed = se.linear_global_mix(nc.Tensor(qm), nc.Tensor(km), nc.Tensor(vm)).data
    accepts("linear mix", lambda: checks.check_linear_mix("s", mixed, qm, km, vm))
    rejects("linear mix", lambda: checks.check_linear_mix("s", mixed * (1 + 1e-6), qm, km, vm))


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        ingest_cases(Path(tmp))
        train_and_serve_cases(Path(tmp))
    for f in failures:
        print(f"FAIL {f}")
    print(f"selftest: {cases - len(failures)}/{cases} cases behaved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

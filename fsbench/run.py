"""Forecasting-service benchmark: ingest, train and serve workloads.

    python3 fsbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the program from that
checkout's src/ directory, generates its inputs from --seed under
fsbench_out/<workload>/, measures for --seconds, checks the outputs, and
prints every metric by name and unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are its per-layer ones, from a run that wraps the program's
public functions with spans (written to fsbench_out/<workload>/trace.jsonl).

Exit code 0 on success; 1 when the program is missing, an input is invalid
or a correctness check fails.
"""

import os
import time

T0 = time.perf_counter()
T0_NS = time.perf_counter_ns()


def _since_process_start() -> float:
    """Seconds the interpreter ran before this module (10 ms resolution)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


PRE_MAIN_S = _since_process_start()

# one process, one thread: OpenBLAS would otherwise start a thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "fsbench_out"
KEEP = ("trace.jsonl", "result.json")


def _die(msg: str) -> None:
    print(f"fsbench: {msg}", file=sys.stderr)
    sys.exit(1)


def _load_spec() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        return {"e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    except (OSError, ValueError, KeyError, TypeError) as err:
        _die(f"cannot read BENCHMARK.json: {err}")


def _finish_out_dir(out: Path) -> None:
    """Remove generated inputs and artifacts; keep the trace and result."""
    for p in out.iterdir():
        if p.name not in KEEP:
            shutil.rmtree(p) if p.is_dir() else p.unlink()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("ingest", "train", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        _die("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "stlgt" / "__init__.py").is_file():
        _die(f"program sources not found under {src}")
    sys.path.insert(0, str(src))
    spec = _load_spec()

    import workloads  # imports numpy and the program, after BLAS is pinned
    import checks
    import stlgt
    if Path(stlgt.__file__).resolve().parent != (src / "stlgt").resolve():
        _die(f"imported stlgt from {stlgt.__file__}, not from {src}")

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), out)
    if run.traced:
        workloads.install_targets(run)
    try:
        workloads.WORKLOADS[args.workload](run)
        correct = True
    except checks.CheckFailed as err:
        print(f"fsbench: correctness check failed: {err}", file=sys.stderr)
        correct = False

    if run.traced:
        metrics = workloads.layer_metrics(run)
        units = spec["layer"]
        run.tracer.write(out / "trace.jsonl", T0_NS)
    else:
        metrics = dict(run.e2e)
        metrics["setup_s"] = PRE_MAIN_S + run.measure_start - T0
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = spec["e2e"]
    if correct and set(metrics) != set(units):
        _die(f"measured metrics {sorted(set(metrics) ^ set(units))} "
             "do not match BENCHMARK.json")

    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                          for name in units if name in metrics}}
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n",
                                     encoding="utf-8")
    _finish_out_dir(out)
    for name, m in result["metrics"].items():
        print(f"{args.workload:7s} {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:7s} operations attempted={run.attempted} failed={run.failed} "
          f"correct={str(correct).lower()}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

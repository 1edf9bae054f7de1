"""Benchmark of the ``hsiladder`` engine: one workload per process.

    python3 benchmarks/run.py --workload conv-ladder-f64 --seed 1 --seconds 12 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 12 --trace 0

Each run builds its inputs from ``--seed``, drives the package's public API
in a closed loop (a step or prediction starts only after the previous one
returned) and checks its outputs.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, with the
end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1`` (see ``metrics.py``).  The line before it is the environment
manifest.  The exit code is non-zero when any check failed.

An untraced run goes through these phases:

1. set-up, five times (``setup_s`` is the median): scene generation, the
   HSICUBE1 round trip for ``scene-map``, ``prepare_dataset``, a fresh
   network;
2. a reference run: REF_STEPS steps from fixed inputs whose losses must
   match ``reference.json`` within a tolerance per dtype;
3. training steps for ``--seconds`` (``step_ms_p50``, ``step_ms_p90``),
   interleaved with predictions on a fixed held-out set of 1024 patches
   that take about 30% as long as the steps (``eval_patches_per_s``);
4. one ``train()`` call with checkpoints (``train_wall_s``, ``oa``, ``aa``;
   a speed-probe sample follows each Adam step and is not counted) and,
   for ``scene-map``, the prediction of the full scene map.

End-to-end times are scaled to a nominal machine speed by a pure-numpy
probe (``measure.SpeedProbe``): each step and prediction by the probe
samples taken around it, ``train()`` and set-up by the samples taken
during them.  The raw values and the probe's medians go to standard error.

A traced run wraps the package's functions (``spans.py``), measures half of
``--seconds`` untraced and half traced to report the tracing overhead, and
removes every wrapper before it ends.

BLAS may use at most as many threads as the process may use cores; the
manifest records the count the library reports.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("conv-ladder-f64", "fc-ladder-f32", "scene-map")
SETUP_REPEATS = 5
SETUP_PROBES = 10
EVAL_SHARE = 0.3  # of the measured loop's step time spent on predictions
TRACED_PREDICTIONS = 5


def limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the cores this process may use; must run
    before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    want = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = min(want, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    want = max(1, want)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(want)
    return want


def parse_args(argv):
    parser = argparse.ArgumentParser(description="hsiladder benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (0 <= args.seed < 2**63):
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def untraced(w, seed: int, seconds: float, work: Path, ledger, stored: dict) -> dict:
    import workloads as W
    from measure import SpeedProbe, beyond, peak_rss_mb, percentile

    setup_probe, loop_probe, train_probe = SpeedProbe(), SpeedProbe(), SpeedProbe()
    setup_times = []
    s = None
    for _ in range(SETUP_REPEATS):
        s = None  # release the previous set-up before timing the next
        t0 = time.perf_counter()
        s = W.setup(w, seed, work)
        setup_times.append(time.perf_counter() - t0)
        setup_probe.sample(SETUP_PROBES)
    W.check_reference(w, work, stored, ledger)
    loop = W.measure_loop(s, seconds, ledger, probe=loop_probe, eval_share=EVAL_SHARE)
    steps, rates = loop.step_ms, loop.rates
    # each step and prediction at the machine speed of the moment it ran
    steps_at = [t * loop_probe.local_factor(i) for t, i in zip(steps, loop.step_probe)]
    rates_at = [r / loop_probe.local_factor(i) for r, i in zip(rates, loop.rate_probe)]
    trained = W.run_train(w, s, seed, work / "train", ledger, probe=train_probe)

    raw = {
        "setup_s": W.median(setup_times),
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p90": percentile(steps, 90),
        "eval_patches_per_s": W.median(rates) if rates else None,
    }
    if trained is not None:
        net, report, raw["train_wall_s"] = trained
        if w.predict_map:
            W.check_map(w, s, net, ledger)
    probe_ms = {
        name: p.median_ms()
        for name, p in (("setup", setup_probe), ("loop", loop_probe), ("train", train_probe))
        if p.samples
    }
    log(
        f"{len(steps)} timed steps ({beyond(steps, 90)} beyond p90), {len(rates)} predictions; "
        f"probe median ms {probe_ms}; raw {raw}"
    )
    out = {
        "setup_s": raw["setup_s"] * setup_probe.factor(),
        "step_ms_p50": percentile(steps_at, 50),
        "step_ms_p90": percentile(steps_at, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    if rates:
        out["eval_patches_per_s"] = W.median(rates_at)
    if trained is not None:
        out.update(train_wall_s=raw["train_wall_s"] * train_probe.factor(), oa=report.oa, aa=report.aa)
    return out


def traced(w, seed: int, seconds: float, work: Path, ledger, stored: dict) -> dict:
    import spans
    import workloads as W
    from bench_kernels import time_kernels
    from measure import percentile

    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    out = {}

    def collect(summarize, *extra):
        out.update(summarize(spans.Summary(rec.spans), *extra))
        rec.clear()

    with tracer.active():
        s = W.setup(w, seed, work)
    collect(spans.setup_metrics)

    W.check_reference(w, work, stored, ledger)
    plain = W.measure_loop(s, seconds / 2, ledger).step_ms
    tracer.nodes = 0
    with tracer.active():
        timed = W.measure_loop(s, seconds / 2, ledger, recorder=rec, warmup=0).step_ms
    collect(spans.step_metrics, tracer.nodes)
    out["trace.overhead_ms"] = percentile(timed, 50) - percentile(plain, 50)

    net = s.net
    with tracer.active():
        trained = W.run_train(w, s, seed, work / "train", ledger)
    collect(spans.train_metrics)
    if trained is not None:
        net = trained[0]

    with tracer.active():
        for _ in range(TRACED_PREDICTIONS):
            W.predict_once(net, s.eval_x, w.precision, ledger)
    collect(spans.predict_metrics)
    if w.predict_map:
        W.check_map(w, s, net, ledger)

    left = tracer.leftovers()
    ledger.record(not left, f"wrappers left installed: {left}")
    out.update(time_kernels(w.dtype))
    return out


def run_one(args) -> int:
    threads = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import metrics
    import workloads as W
    from hsiladder import LadderError
    from measure import manifest

    w = W.WORKLOADS[args.workload]
    stored = json.loads(REFERENCE.read_text())
    table = metrics.per_layer() if args.trace else list(metrics.END_TO_END)
    ledger = W.Ledger()
    values: dict = {}
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_root))
    try:
        phases = traced if args.trace else untraced
        values = phases(w, args.seed, args.seconds, work, ledger, stored)
    except LadderError as e:
        ledger.record(False, f"run aborted: {e!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in table if m["name"] not in values]
    if missing:
        ledger.record(False, f"metrics not measured: {missing}")
    for err in ledger.errors:
        log(f"FAILED: {err}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in table
            if m["name"] in values
        },
    }
    info = manifest(
        ROOT,
        workload=w.name,
        dtype=w.precision,
        mode=w.mode,
        seed=args.seed,
        reference_seed=W.REF_SEED,
        seconds=args.seconds,
        trace=args.trace,
        blas_threads_requested=threads,
    )
    print(json.dumps({"manifest": info}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload);
    prints each metric with its unit and fails if any workload failed."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<36} {v['value']:>14.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hsiladder" / "__init__.py").is_file():
        log(f"hsiladder sources not found under {SRC}; run from a checkout of the repository")
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

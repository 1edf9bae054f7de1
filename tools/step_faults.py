"""Minor page faults and system time per training step of each benchmark
workload.

Each workload runs in its own process, because glibc's mmap threshold, and
with it whether a step's large temporaries come from the heap or from fresh
pages, is per process.  In each, it builds the workload with
``benchmarks/workloads.py``'s ``setup``, runs its untimed warm-up steps, then
``--steps`` ``train_step`` calls with ``getrusage(RUSAGE_SELF)`` read around
each.  Then it runs one ``train()`` call of the workload's model and mode
for ``WARMUP_STEPS + --steps + 1`` iterations and reads the minor faults
between consecutive Adam steps, i.e. per ``train()`` iteration after the
warm-up.  Per workload it prints one JSON line: the median step time, minor
faults and system milliseconds per step (mean and worst), the peak resident
set size after the step loop, the MiB the package's step arena reserves
then (its ``mmap`` chunks, which neither ``tracemalloc`` nor the heap
shows; null for a tree without one) and the minor faults per ``train()``
iteration (mean and worst).  A step whose arrays come from reused memory
takes few faults and little system time; one that maps fresh pages for its
temporaries takes thousands of faults and tens of milliseconds of system
time.  ``train()`` keeps the last step's decoded levels alive into the
next, which pins the heap top, so its iterations can fault less than the
benchmark's loop, which drops every array between steps.

It takes the workload names from ``BENCHMARK.json`` and only reads the
benchmark's code and that file, never changes them.  BLAS may use as many
threads as the process may use cores, as in the benchmark.

Usage, from the repository root:

    python3 tools/step_faults.py --workload all --steps 20
    python3 tools/step_faults.py --workload conv-ladder-f64 --steps 50 --seed 3
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import trees

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="page faults and system time per training step")
    parser.add_argument("--workload", required=True, choices=trees.workload_names() + ("all",))
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    return args


def measure(name: str, steps: int, seed: int) -> dict:
    """Set up ``name``, warm up, then time ``steps`` steps with their
    rusage deltas; must run in a fresh process."""
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    from run import limit_blas_threads

    limit_blas_threads()
    import numpy as np
    import workloads as W

    w = W.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=f"{name}-") as work:
        s = W.setup(w, seed, Path(work))
    for _ in range(W.WARMUP_STEPS):
        W.train_step(s, *W.draw_batch(s))
    step_ms, faults, sys_ms = [], [], []
    for _ in range(steps):
        batch, targets = W.draw_batch(s)
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        W.train_step(s, batch, targets)
        t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        step_ms.append((t1 - t0) * 1e3)
        faults.append(r1.ru_minflt - r0.ru_minflt)
        sys_ms.append((r1.ru_stime - r0.ru_stime) * 1e3)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    arena_usage = getattr(sys.modules["hsiladder.tensor"], "arena_usage", None)
    reserved = None if arena_usage is None else arena_usage()[0] / 2**20
    train_faults = train_iteration_faults(W, w, s, seed, steps)
    return {
        "workload": name,
        "seed": seed,
        "steps": steps,
        "step_ms_p50": round(float(np.median(step_ms)), 3),
        "minor_faults_per_step": round(float(np.mean(faults)), 1),
        "minor_faults_max": int(max(faults)),
        "sys_ms_per_step": round(float(np.mean(sys_ms)), 3),
        "sys_ms_max": round(float(max(sys_ms)), 3),
        "peak_rss_mb": round(peak_rss, 1),
        "arena_reserved_mib": reserved,
        "train_faults_per_iteration": round(float(np.mean(train_faults)), 1),
        "train_faults_max": int(max(train_faults)),
    }


def train_iteration_faults(W, w, s, seed: int, steps: int) -> list[int]:
    """Minor faults between consecutive Adam steps of one ``train()`` call
    of ``W.WARMUP_STEPS + steps + 1`` iterations, after the warm-up ones."""
    train_mod = W.train_mod
    marks = []
    orig = vars(train_mod.Adam)["step"]

    def step(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    config = train_mod.TrainConfig(
        w.spec, W.LEARNING_RATE, W.WARMUP_STEPS + steps + 1, seed,
        batch_size=W.BATCH, mode=w.mode, precision=w.precision,
    )
    train_mod.Adam.step = step
    try:
        train_mod.train(config, s.prep.patches, s.prep.split)
    finally:
        train_mod.Adam.step = orig
    marks = marks[W.WARMUP_STEPS:]
    return [b - a for a, b in zip(marks, marks[1:])]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload != "all":
        print(json.dumps(measure(args.workload, args.steps, args.seed)), flush=True)
        return 0
    status = 0
    for name in trees.workload_names():
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--steps", str(args.steps), "--seed", str(args.seed),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

"""One-process paired step timing: this checkout against a parent revision,
with an A/A null run in the same invocation.

Every ``run.py`` process lands its large temporaries in a different heap
layout, so its ``step_ms_p50`` swings by several percent with no code
change, and ``tools/compare.py`` cannot resolve a step change of that size.
This tool times the sides under one process instead:

- the parent revision's ``src/hsiladder`` is exported with ``git archive``
  and imported as a sibling package (the package uses only relative
  imports, so the trees load side by side);
- this checkout's ``src/hsiladder``, as it stands, is imported twice, as the
  change and as its A/A null (a second copy of the same code);
- each side builds the benchmark workload's network from its own
  ``LadderSpec``, ``LadderNetwork``, ``GradTape`` and ``Adam``, with the
  workload's layers, mode, multipliers and dtype (read from
  ``benchmarks/workloads.py``, which this tool never changes), and steps as
  the benchmark's ``train_step`` does;
- the sides draw their batches from one shared random pool, the same rows
  for every side in a round;
- each of ``--rounds`` rounds runs ``--steps`` timed steps per side, after
  ``WARMUP_STEPS`` untimed ones per side at the start, and the side that
  goes first rotates from round to round.

Per round it records each side's median step time, the claim's ratio
(change / parent) and the null's ratio (null / change).  The file it writes
(``--out``, named ``BENCH_inproc_<label>.json`` by convention) holds those,
the rounds the change won and lost, the median ratios, the null's range and
``resolved``.

Resolution rule, fixed before this tool's first use: a change resolves as a
gain when at least ``MIN_ROUNDS`` (16) rounds ran, it won at least
``WIN_SHARE`` (13/16) of them, and its median ratio lies below the lowest
per-round ratio of the A/A null.  The null's range is what one process's
noise alone produces, so a median inside it is not a measured change.  This
complements ``tools/compare.py``, which stays the end-to-end record: a
claim made through this tool still commits the ``tools/compare.py`` pairs.

Usage, from the repository root:

    python3 tools/interleave.py --parent HEAD~1 --workload conv-ladder-f64 \\
        --rounds 16 --steps 8 --out results/BENCH_inproc_label.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import trees

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks"
MIN_ROUNDS = 16
WIN_SHARE = 13 / 16  # of the rounds run that the change must win
POOL = 2000  # rows in the shared input pool
WARMUP_STEPS = 2


class Case(NamedTuple):
    """What one side needs to build a workload's step, as plain values."""

    layers: tuple  # (kind, width, activation) per layer
    noise_std: float
    lambdas: tuple
    input_shape: tuple
    dtype: str
    use_decoder: bool
    batch: int  # labeled rows; as many unlabeled rows follow
    learning_rate: float
    classes: int


def workload_case(name: str) -> Case:
    """The benchmark workload ``name`` from ``benchmarks/workloads.py``."""
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads as W

    w = W.WORKLOADS[name]
    spec = w.spec
    use_decoder = w.mode == "ladder"
    return Case(
        layers=tuple((l.kind, l.width, l.activation) for l in spec.layers),
        noise_std=spec.noise_std,
        lambdas=spec.lambdas if use_decoder else tuple(0.0 for _ in spec.lambdas),
        input_shape=spec.input_shape,
        dtype=np.dtype(w.dtype).name,
        use_decoder=use_decoder,
        batch=W.BATCH,
        learning_rate=W.LEARNING_RATE,
        classes=spec.num_classes,
    )


class Side:
    """One package's network, optimizer and noise stream for ``case``."""

    def __init__(self, pkg, case: Case, seed: int):
        import numpy as np

        train = importlib.import_module(pkg.__name__ + ".train")
        layers = tuple(pkg.LayerSpec(*layer) for layer in case.layers)
        spec = pkg.LadderSpec(layers, case.noise_std, case.lambdas, case.input_shape)
        self.pkg, self.case = pkg, case
        self.net = pkg.LadderNetwork(spec, pkg.Rng(seed), dtype=np.dtype(case.dtype))
        self.adam = train.Adam(self.net.params, case.learning_rate)
        self.noise = pkg.Rng(seed + 1)

    def step(self, batch, targets) -> float:
        """Forward, backward and one Adam step, as the benchmark's
        ``train_step``; returns the loss."""
        self.net.zero_grads()
        with self.pkg.GradTape() as tape:
            loss, *_ = self.net.training_loss(
                batch, self.case.batch, targets, self.noise,
                lambdas=self.case.lambdas, use_decoder=self.case.use_decoder,
            )
        tape.backward(loss)
        self.adam.step()
        return loss.item()


def run_rounds(sides: dict, case: Case, rounds: int, steps: int, seed: int) -> list[dict]:
    """Per round, each side's median step milliseconds and losses, the
    sides rotating which goes first; every side sees the same batches."""
    import numpy as np

    gen = np.random.default_rng(seed)
    pool = gen.standard_normal((POOL, *case.input_shape)).astype(case.dtype)
    labels = gen.integers(0, case.classes, POOL)

    def batches(key: int, n: int):
        pick = np.random.default_rng([seed, key])
        for _ in range(n):
            rows = pick.integers(0, POOL, 2 * case.batch)
            yield pool[rows], labels[rows[: case.batch]]

    names = list(sides)
    for name in names:
        for batch, targets in batches(0, WARMUP_STEPS):
            sides[name].step(batch, targets)
    out = []
    for r in range(rounds):
        order = names[r % len(names):] + names[: r % len(names)]
        record = {"round": r, "order": order}
        for name in order:
            times, losses = [], []
            for batch, targets in batches(r + 1, steps):
                t0 = time.perf_counter()
                losses.append(sides[name].step(batch, targets))
                times.append((time.perf_counter() - t0) * 1e3)
            record[f"{name}_ms"] = statistics.median(times)
            record[f"{name}_losses"] = losses
        out.append(record)
    return out


def summarize(records: list[dict]) -> dict:
    """Rounds won and lost, median ratios, the null's range and
    ``resolved`` under the rule in the module docstring; each record gains
    its round's ``ratio`` and ``null_ratio``."""
    ratios = [r["change_ms"] / r["parent_ms"] for r in records]
    null = [r["null_ms"] / r["change_ms"] for r in records]
    for r, ratio, n in zip(records, ratios, null):
        r["ratio"], r["null_ratio"] = ratio, n
    wins = sum(x < 1.0 for x in ratios)
    median = statistics.median(ratios)
    lo, hi = min(null), max(null)
    return {
        "rounds": len(records),
        "parent_ms_median": statistics.median(r["parent_ms"] for r in records),
        "change_ms_median": statistics.median(r["change_ms"] for r in records),
        "median_ratio": median,
        "wins": wins,
        "losses": sum(x > 1.0 for x in ratios),
        "null_median_ratio": statistics.median(null),
        "null_wins": sum(x < 1.0 for x in null),
        "null_range": [lo, hi],
        "outside_null": not lo <= median <= hi,
        "resolved": len(records) >= MIN_ROUNDS and wins >= WIN_SHARE * len(records) and median < lo,
        "losses_equal": all(
            r["parent_losses"] == r["change_losses"] == r["null_losses"] for r in records
        ),
    }


def compare_packages(parent_src: Path, change_src: Path, case: Case, rounds: int, steps: int,
                     seed: int) -> dict:
    """Load the parent, the change and the change's null copy and time them."""
    sources = {"parent": parent_src, "change": change_src, "null": change_src}
    sides = {
        name: Side(trees.load_package(src, f"hsiladder_{name}"), case, seed)
        for name, src in sources.items()
    }
    records = run_rounds(sides, case, rounds, steps, seed)
    return {**summarize(records), "per_round": records}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="one-process paired step timing with an A/A null")
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=trees.workload_names())
    parser.add_argument("--rounds", type=int, default=MIN_ROUNDS)
    parser.add_argument("--steps", type=int, default=8, help="timed steps per side and round")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_inproc_*.json to write")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.steps < 1:
        parser.error("--rounds and --steps must be >= 1")
    if (ROOT / "benchmarks") in args.out.resolve().parents:
        parser.error("--out must lie outside benchmarks/, which this tool never changes")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH))
    from run import limit_blas_threads

    threads = limit_blas_threads()  # before numpy is imported, as in the benchmark
    parent_commit = trees.git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    case = workload_case(args.workload)
    tmp = Path(tempfile.mkdtemp(prefix="interleave-parent-"))
    try:
        trees.export(parent_commit, tmp, "src/hsiladder")
        report = compare_packages(tmp / "src" / "hsiladder", ROOT / "src" / "hsiladder", case,
                                  args.rounds, args.steps, args.seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report = {
        "workload": args.workload,
        "steps": args.steps,
        "seed": args.seed,
        "blas_threads": threads,
        "rule": f">= {MIN_ROUNDS} rounds, change wins >= {WIN_SHARE:.4g} of them, "
                "median ratio below the null's lowest",
        "parent": {"rev": args.parent, "commit": parent_commit},
        "change": {"rev": "working tree", "commit": trees.git("rev-parse", "HEAD"),
                   "modified": bool(trees.git("status", "--porcelain", "--untracked-files=no"))},
        **report,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    lo, hi = report["null_range"]
    print(
        f"{args.workload}: step ms {report['parent_ms_median']:.2f} -> "
        f"{report['change_ms_median']:.2f} (ratio {report['median_ratio']:.4f}, "
        f"won {report['wins']}/{report['rounds']}); "
        f"A/A null {report['null_median_ratio']:.4f} in [{lo:.4f}, {hi:.4f}], won "
        f"{report['null_wins']}/{report['rounds']}; resolved={report['resolved']}; "
        f"losses equal: {report['losses_equal']}; wrote {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

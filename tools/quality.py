"""The paper's comparison as a quality gate: the ladder against
supervised-only and sdae-pretrain on the paper conv ladder at 5 labels per
class, over paired seeds.

Each seed builds one synthetic Pavia-shaped scene (96x96, 103 bands, 9
classes in 16-pixel blocks, sensor noise 1.0), keeps the ground truth of a
random ``--labeled-fraction`` of its pixels (the rest become 0, unlabeled),
runs ``prepare_dataset`` (7x7 windows of 15 PCA bands, 5 labels per class)
and trains the paper conv ladder (conv 90 -> conv 30 -> conv 15 -> fc 30 ->
9) once in each mode, in f32, with the same seed.  Only the package's
public API is used, so ``--src`` can point at another tree's package
directory (e.g. a ``git archive`` of a parent commit, ``<dir>/src``) and the
same tool measures it on the same scenes, masks and seeds.

``BENCH_quality_<label>.json`` records every run's OA and AA, each mode's
mean and sample standard deviation, the per-seed paired differences of the
ladder against each baseline, the split's sizes per seed, the gate, and the
sha256 and line count of the package sources that ran.  The
split is ``make_split``'s: a random stratified draw of 25% of each class's
labeled pixels as the test set, then 5 labeled pixels per class; it is not
spatially disjoint, so a training pixel's window can hold a test pixel's
spectrum (never its label), which inflates patch-based OA (Nalepa, Myller &
Kawulok 2019, IEEE GRSL).

The gate: the ladder's paired mean OA must not fall below
supervised-only's; the exit code is 1 when it does.  The ladder against
sdae-pretrain is recorded, not gated.  Three seeds take about five minutes
on 2 cores.

Usage, from the repository root:

    python3 tools/quality.py --label change --labeled-fraction 0.21
    python3 tools/quality.py --label parent --labeled-fraction 0.21 --src /tmp/parent/src
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import trees

ROOT = Path(__file__).resolve().parents[1]
MODES = ("ladder", "supervised-only", "sdae-pretrain")
BASELINES = ("supervised-only", "sdae-pretrain")
GATED = "supervised-only"
SCENE = dict(height=96, width=96, bands=103, classes=trees.PAPER_CLASSES, block=16, noise=1.0)
LABELS_PER_CLASS = 5
LEARNING_RATE, ITERATIONS, PRETRAIN_ITERATIONS = 0.002, 300, 500
MASK_STREAM = 7  # second word of the mask's numpy seed, so it never shares a stream
SPLIT = (
    "random stratified (data.make_split): 25% of each class's labeled pixels are the test set, "
    "then 5 labeled pixels per class; every other pixel the package puts in the unlabeled pool; "
    "not spatially disjoint, so training windows can hold test pixels' spectra, never their labels"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ladder vs baselines at 5 labels per class")
    parser.add_argument("--label", required=True, help="names the output BENCH_quality_<label>.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument(
        "--labeled-fraction", type=float, default=1.0,
        help="share of the scene's pixels whose ground truth is kept; the rest become 0",
    )
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding hsiladder/")
    parser.add_argument("--out-dir", type=Path, default=ROOT / "results")
    args = parser.parse_args(argv)
    if len(args.seeds) < 3 or len(set(args.seeds)) != len(args.seeds) or min(args.seeds) < 0:
        parser.error("--seeds needs at least 3 distinct seeds >= 0")
    if not 0.0 < args.labeled_fraction <= 1.0:
        parser.error("--labeled-fraction must lie in (0, 1]")
    if not (args.src / "hsiladder" / "__init__.py").is_file():
        parser.error(f"--src {args.src} holds no hsiladder package")
    return args


def masked_scene(mods, seed: int, fraction: float):
    """The seed's scene with the ground truth of all but a random
    ``fraction`` of its pixels set to 0; the mask is drawn with numpy alone,
    so every tree sees the same one."""
    cube = mods["synthetic"].make_synthetic_cube(seed, **SCENE)
    gt = cube.ground_truth.copy()
    gt[np.random.default_rng([seed, MASK_STREAM]).random(gt.shape) >= fraction] = 0
    return mods["data"].HsiCube(cube.reflectance, gt, cube.num_classes)


def run_seed(pkg, mods, seed: int, fraction: float) -> tuple[dict, list[dict]]:
    """The split's sizes and one run per mode on the seed's scene."""
    cube = masked_scene(mods, seed, fraction)
    prep = mods["data"].prepare_dataset(
        cube, trees.PAPER_WINDOW, trees.PAPER_PCA, LABELS_PER_CLASS, seed=seed
    )
    split = prep.split
    sizes = {
        "pixels": int(cube.ground_truth.size),
        "labeled_pixels": int(np.count_nonzero(cube.ground_truth)),
        "patches": len(prep.patches),
        "labeled_train": len(split.labeled_train),
        "unlabeled_train": len(split.unlabeled_train),
        "test": len(split.test),
    }
    runs = []
    for mode in MODES:
        config = mods["train"].TrainConfig(
            ladder=trees.paper_conv_spec(pkg),
            learning_rate=LEARNING_RATE,
            iterations=ITERATIONS,
            seed=seed,
            lr_decay="linear",
            mode=mode,
            precision="f32",
            pretrain_iterations=PRETRAIN_ITERATIONS,
        )
        t0 = time.perf_counter()
        _, report = mods["train"].train(config, prep.patches, split)
        runs.append({"seed": seed, "mode": mode, "oa": report.oa, "aa": report.aa,
                     "seconds": time.perf_counter() - t0})
        print(f"seed {seed} {mode}: oa {report.oa:.4f} aa {report.aa:.4f}", file=sys.stderr, flush=True)
    return sizes, runs


def summarize(runs: list[dict]) -> dict:
    """Per mode, OA and AA mean and sample standard deviation over the
    seeds; per baseline, the ladder's per-seed paired differences (ladder
    minus baseline, over the seeds both ran) and their mean."""
    by = {(r["mode"], r["seed"]): r for r in runs}
    modes = {}
    for mode in MODES:
        values = {m: [r[m] for r in runs if r["mode"] == mode] for m in ("oa", "aa")}
        if values["oa"]:
            modes[mode] = {
                m: {"mean": statistics.fmean(v), "std": statistics.stdev(v) if len(v) > 1 else 0.0}
                for m, v in values.items()
            }
    paired = {}
    for base in BASELINES:
        seeds = sorted(s for m, s in by if m == "ladder" and (base, s) in by)
        diffs = {
            metric: [by["ladder", s][metric] - by[base, s][metric] for s in seeds]
            for metric in ("oa", "aa")
        }
        paired[f"ladder - {base}"] = {
            "seeds": seeds,
            **diffs,
            **{f"{m}_mean": statistics.fmean(d) if d else None for m, d in diffs.items()},
            "ladder_wins_oa": sum(d > 0 for d in diffs["oa"]),
        }
    return {"modes": modes, "paired": paired}


def gate(summary: dict) -> dict:
    """Passes when the ladder's paired mean OA is not below
    supervised-only's; a comparison with no paired seed fails."""
    mean = summary["paired"][f"ladder - {GATED}"]["oa_mean"]
    return {
        "rule": f"paired mean OA of the ladder minus {GATED} >= 0",
        "ladder_minus_baseline_oa": mean,
        "passed": mean is not None and mean >= 0.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = trees.load_package(args.src / "hsiladder", "hsiladder")
    mods = {n: importlib.import_module(f"hsiladder.{n}") for n in ("data", "synthetic", "train")}
    splits, runs = {}, []
    for seed in args.seeds:
        sizes, seed_runs = run_seed(pkg, mods, seed, args.labeled_fraction)
        splits[str(seed)] = sizes
        runs.extend(seed_runs)
    summary = summarize(runs)
    sources = [p.read_bytes() for p in sorted((args.src / "hsiladder").glob("*.py"))]
    report = {
        "label": args.label,
        # identifies the package tree that ran, whatever directory held it
        "src_sha256": hashlib.sha256(b"".join(sources)).hexdigest(),
        "src_lines": sum(len(b.splitlines()) for b in sources),
        "settings": {
            "scene": SCENE, "labeled_fraction": args.labeled_fraction, "window": trees.PAPER_WINDOW,
            "pca_components": trees.PAPER_PCA, "labels_per_class": LABELS_PER_CLASS,
            "precision": "f32", "learning_rate": LEARNING_RATE, "lr_decay": "linear",
            "iterations": ITERATIONS, "pretrain_iterations": PRETRAIN_ITERATIONS,
            "lambdas": trees.PAPER_LAMBDAS, "corruption_std": trees.PAPER_NOISE_STD,
            "seeds": args.seeds,
        },
        "split": {"kind": SPLIT, "sizes": splits},
        **summary,
        "gate": gate(summary),
        "runs": runs,
    }
    out = args.out_dir / f"BENCH_quality_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    for mode, s in summary["modes"].items():
        print(f"{mode:<16} oa {s['oa']['mean']:.4f} ± {s['oa']['std']:.4f}  aa {s['aa']['mean']:.4f} ± {s['aa']['std']:.4f}")
    for name, p in summary["paired"].items():
        print(f"{name}: oa {p['oa_mean']:+.4f} (ladder ahead on {p['ladder_wins_oa']}/{len(p['seeds'])} seeds)")
    print(f"gate {'passed' if report['gate']['passed'] else 'FAILED'}; wrote {out}")
    return 0 if report["gate"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())

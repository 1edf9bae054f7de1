"""Paired parent/change runs of the benchmark, summarised into one
``BENCH_*.json``.

The parent revision is exported with ``git archive`` into a temporary
directory, which is removed at exit; the change is this checkout as it
stands.  Each of ``--pairs`` pairs runs each side's own, unchanged
``benchmarks/run.py`` once with the same fresh seed (``--first-seed`` plus
the pair's number), and the side that runs first alternates from pair to
pair.  This checkout's ``tools/fingerprint.py`` runs once on each side's
``src`` (its ``--src``), so one script hashes both trees.

Per end-to-end metric of ``BENCHMARK.json`` the file records the median and
quartiles of both sides, the change/parent ratio of the medians, the pairs
the change won and lost (a tie counts for neither), ``resolved`` (at least
10 pairs ran, the change won at least 9 in 10 of them, a pair that lacks
the metric counting as no win, and its median beats the parent's by more
than the parent's interquartile range) and ``parent_iqr_over_bound`` (the
parent's interquartile range, as a share of its median, is wider than the
metric's bound, so the metric cannot resolve a change of that size).  It
also records every run's result line, both manifests and both fingerprints
with their tape-node lines, and prints each side's fingerprint summary
lines (``src lines``, the traced peaks, the step arena's MiB, ``sha256``)
and whether the hashes and the tape-node counts are equal.
The exit code is non-zero when any run was not ``correct`` or the change's
fingerprint failed.

Usage, from the repository root:

    python3 tools/compare.py --parent HEAD~1 --pairs 10 --workload conv-ladder-f64 \\
        --seconds 12 --out results/BENCH_label.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import trees

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WIN_SHARE = 0.9  # of the pairs run that the change must win for ``resolved``
MIN_PAIRS = 10  # pairs run, fewest for ``resolved``


def parse_args(argv):
    parser = argparse.ArgumentParser(description="paired parent/change benchmark runs")
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", required=True, choices=trees.workload_names())
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to write")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of pair 0; pair i uses this + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.first_seed < 0:
        parser.error("--first-seed must be >= 0")
    trees.check_out_path(parser, args.out)
    return args


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmarks/run.py`` process of the tree at ``root``: its
    manifest and result lines, or an incorrect result if it printed none."""
    cmd = [
        sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=1800)
    run = parse_run(proc.stdout)
    if run["manifest"] is None:
        sys.stderr.write(proc.stderr)
    return {"exit": proc.returncode, **run}


def parse_run(stdout: str) -> dict:
    """``run.py``'s last two lines, the manifest and the result, as one
    dict; an incorrect, empty result when they are missing or malformed."""
    lines = stdout.strip().splitlines()
    try:
        return {"manifest": json.loads(lines[-2])["manifest"], **json.loads(lines[-1])}
    except (IndexError, KeyError, TypeError, ValueError):
        return {"manifest": None, "correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def fingerprint(src: Path) -> dict:
    """This checkout's ``tools/fingerprint.py`` run on the package tree
    ``src``: its exit code and its parsed output."""
    script = ROOT / "tools" / "fingerprint.py"
    proc = subprocess.run([sys.executable, str(script), "--src", str(src)], capture_output=True,
                          text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return {"exit": proc.returncode, **parse_fingerprint(proc.stdout)}


def parse_fingerprint(stdout: str) -> dict:
    """The summary lines that ``tools/fingerprint.py`` prints after its
    per-run hashes (``src lines``, the traced peaks, ``sha256``), with the
    hash and the line count read out of them, and its per-spec tape-node
    lines (``fc: tape nodes per step ...``)."""
    printed = stdout.splitlines()
    lines = [l for l in printed if l and not l.startswith(" ") and ":" not in l]
    sha = next((l.split()[1] for l in lines if l.startswith("sha256 ")), None)
    src = next((int(l.split()[2]) for l in lines if l.startswith("src lines ")), None)
    nodes = [l for l in printed if ": tape nodes " in l]
    return {"sha256": sha, "src_lines": src, "lines": lines, "tape_nodes": nodes}


def compare_fingerprints(prints: dict) -> dict:
    """Whether both sides printed the same hash and the same tape-node
    lines (false when a side printed none), and each side's ``src lines``."""
    parent, change = (prints[side] for side in SIDES)
    same = {key: bool(parent[key]) and parent[key] == change[key] for key in ("sha256", "tape_nodes")}
    return {
        "fingerprints_equal": same["sha256"],
        "tape_nodes_equal": same["tape_nodes"],
        "src_lines": {side: prints[side]["src_lines"] for side in SIDES},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the
    sorted values; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' quartiles, the ratio of the
    medians, wins and losses of the change over the pairs where both sides
    report the metric, ``resolved`` (wins counted over every pair run) and
    ``parent_iqr_over_bound``."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    ran = len(by_pair)
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [
            (sides["parent"][name]["value"], sides["change"][name]["value"])
            for _, sides in sorted(by_pair.items())
            if all(name in sides.get(side, {}) for side in SIDES)
        ]
        if not pairs:
            continue
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        wins = sum(c < p if lower else c > p for p, c in pairs)
        losses = sum(c > p if lower else c < p for p, c in pairs)
        iqr = parent[2] - parent[0]
        gain = parent[1] - change[1] if lower else change[1] - parent[1]
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "pairs": len(pairs),
            "parent": dict(zip(("q1", "median", "q3"), parent)),
            "change": dict(zip(("q1", "median", "q3"), change)),
            "ratio": change[1] / parent[1] if parent[1] else None,
            "wins": wins,
            "losses": losses,
            "resolved": ran >= MIN_PAIRS and wins >= WIN_SHARE * ran and gain > iqr,
            "parent_iqr_over_bound": bool(parent[1]) and iqr / abs(parent[1]) > m["bound"],
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with trees.parent_tree(args.parent) as (parent_commit, tmp):
        roots = {"parent": tmp, "change": ROOT}
        prints = {side: fingerprint(root / "src") for side, root in roots.items()}
        runs = []
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_bench(roots[side], args.workload, seed, args.seconds)
                runs.append({"pair": pair, "seed": seed, "side": side, "position": position, **run})
                print(
                    f"pair {pair} seed {seed} {side}: correct={run['correct']} "
                    f"failed={run['failed']}/{run['attempted']}",
                    file=sys.stderr,
                    flush=True,
                )
    manifests = {
        side: next((r["manifest"] for r in runs if r["side"] == side and r["manifest"]), None)
        for side in SIDES
    }
    report = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.first_seed + i for i in range(args.pairs)],
        "parent": {"rev": args.parent, "commit": parent_commit, "manifest": manifests["parent"],
                   "fingerprint": prints["parent"]},
        "change": {**trees.change_record(), "manifest": manifests["change"],
                   "fingerprint": prints["change"]},
        **compare_fingerprints(prints),
        "all_correct": all(r["correct"] for r in runs),
        "metrics": summarize(runs, json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]),
        "runs": [{k: v for k, v in r.items() if k != "manifest"} for r in runs],
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, s in report["metrics"].items():
        ratio = "n/a" if s["ratio"] is None else f"{s['ratio'] - 1:+.1%}"
        print(
            f"{name:<20} {s['parent']['median']:>12.6g} [{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}]"
            f" -> {s['change']['median']:>12.6g} ({ratio}, won {s['wins']}/{s['pairs']}"
            f"{', resolved' if s['resolved'] else ''}{', parent IQR over bound' if s['parent_iqr_over_bound'] else ''})"
        )
    for side in SIDES:
        for line in prints[side]["lines"]:
            print(f"{side} fingerprint: {line}")
    print(
        f"fingerprints equal: {report['fingerprints_equal']}; "
        f"tape nodes equal: {report['tape_nodes_equal']}; wrote {args.out}"
    )
    return 0 if report["all_correct"] and prints["change"]["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""``tools/interleave.py``: the per-round summary, its resolution rule, its
arguments and paired runs against fake parent trees."""

import shutil
import time
from pathlib import Path

import pytest

from helpers import load_tool

_ROOT = Path(__file__).resolve().parents[1]
interleave = load_tool("interleave")
trees = interleave.trees

TINY = interleave.Case(
    layers=(("fc", 8, "relu"), ("softmax_head", 3, "none")),
    noise_std=0.3,
    lambdas=(1.0, 0.1, 0.1),
    input_shape=(5,),
    dtype="float64",
    use_decoder=True,
    batch=4,
    learning_rate=0.01,
    classes=3,
)


def records(parent, change, null):
    losses = [1.0]
    counters = {f"{side}_{col}": 0.0 for side in interleave.SIDES for col in ("faults", "sys_ms")}
    return [
        {"parent_ms": p, "change_ms": c, "null_ms": n, **counters,
         "parent_losses": losses, "change_losses": losses, "null_losses": losses}
        for p, c, n in zip(parent, change, null)
    ]


def fake_parent(tmp_path: Path) -> Path:
    """A parent tree that is a copy of this checkout's package."""
    dest = tmp_path / "parent" / "src" / "hsiladder"
    shutil.copytree(_ROOT / "src" / "hsiladder", dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


class TestSummarize:
    def test_sixteen_rounds_by_hand(self):
        # the change is 10% faster in 14 rounds, 10% slower in 2; the null
        # ratio spans 0.95..1.05
        change = [90.0] * 14 + [110.0] * 2
        null = [c * r for c, r in zip(change, [0.95, 1.05] * 8)]
        out = interleave.summarize(records([100.0] * 16, change, null))
        assert (out["wins"], out["losses"], out["rounds"]) == (14, 2, 16)
        assert out["median_ratio"] == pytest.approx(0.9)
        assert out["null_range"] == pytest.approx([0.95, 1.05])
        assert out["null_p10"] == pytest.approx(0.95)
        assert out["resolved"] is True
        assert out["losses_equal"] is True

    def test_a_median_inside_the_null_range_is_unresolved(self):
        change = [97.0] * 16
        null = [c * r for c, r in zip(change, [0.96, 1.04] * 8)]
        out = interleave.summarize(records([100.0] * 16, change, null))
        assert out["wins"] == 16
        assert out["null_p10"] == pytest.approx(0.96)
        assert out["resolved"] is False

    def test_one_drifting_null_round_does_not_set_the_bar(self):
        # 15/16 wins at a median of 0.90; the null sits in 0.97..1.03 but
        # for one 0.80 round, below the median
        change = [90.0] * 15 + [105.0]
        ratios = [0.80] + [0.97 + 0.004 * i for i in range(15)]
        out = interleave.summarize(records([100.0] * 16, change, [c * r for c, r in zip(change, ratios)]))
        assert (out["wins"], out["median_ratio"]) == (15, pytest.approx(0.90))
        assert out["null_range"] == pytest.approx([0.80, 1.026])
        # the 10th percentile interpolates halfway between 0.970 and 0.974
        assert out["null_p10"] == pytest.approx(0.972)
        assert out["resolved"] is True

    def test_a_median_above_the_nulls_tenth_percentile_is_unresolved(self):
        change = [92.0] * 15 + [105.0]
        ratios = [0.80, 0.85] + [0.97 + 0.004 * i for i in range(14)]
        out = interleave.summarize(records([100.0] * 16, change, [c * r for c, r in zip(change, ratios)]))
        assert (out["wins"], out["median_ratio"]) == (15, pytest.approx(0.92))
        assert out["null_p10"] == pytest.approx(0.91)
        assert out["resolved"] is False

    def test_fewer_than_sixteen_rounds_or_wins_never_resolve(self):
        out = interleave.summarize(records([100.0] * 15, [50.0] * 15, [50.0] * 15))
        assert out["wins"] == 15 and out["resolved"] is False
        change = [50.0] * 12 + [150.0] * 4
        out = interleave.summarize(records([100.0] * 16, change, change))
        assert out["wins"] == 12 and out["resolved"] is False

    def test_per_side_medians_of_faults_and_system_time(self):
        recs = records([100.0] * 3, [90.0] * 3, [90.0] * 3)
        for r, faults in zip(recs, [55.5, 1.0, 0.25]):
            r["change_faults"], r["null_sys_ms"] = faults, faults / 10
        out = interleave.summarize(recs)
        assert out["change_faults_median"] == 1.0 and out["null_sys_ms_median"] == pytest.approx(0.1)
        assert out["parent_faults_median"] == 0.0

    def test_unequal_losses_are_reported(self):
        recs = records([1.0], [1.0], [1.0])
        recs[0]["parent_losses"] = [2.0]
        assert interleave.summarize(recs)["losses_equal"] is False


class TestArgs:
    def test_a_negative_seed_is_refused(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            interleave.parse_args(["--parent", "HEAD", "--workload", "fc-ladder-f32",
                                   "--seed", "-1", "--out", str(tmp_path / "out.json")])
        assert "--seed must be >= 0" in capsys.readouterr().err

    def test_out_under_benchmarks_is_refused(self, capsys):
        with pytest.raises(SystemExit):
            interleave.parse_args(["--parent", "HEAD", "--workload", "fc-ladder-f32",
                                   "--out", str(_ROOT / "benchmarks" / "out.json")])
        assert "--out must lie outside benchmarks/" in capsys.readouterr().err


class TestPairedRuns:
    def test_an_a_a_run_reports_the_null(self, tmp_path):
        parent = fake_parent(tmp_path)
        out = interleave.compare_packages(parent, _ROOT / "src" / "hsiladder", TINY, 3, 2, seed=1)
        assert out["rounds"] == 3 and len(out["per_round"]) == 3
        lo, hi = out["null_range"]
        assert lo <= out["null_p10"] <= out["null_median_ratio"] <= hi
        assert out["resolved"] is False
        for r in out["per_round"]:
            for side in interleave.SIDES:
                assert r[f"{side}_faults"] >= 0 and r[f"{side}_sys_ms"] >= 0
        # each side loads its own tensor module and so its own arena
        assert set(out["arena_mib"]) == set(interleave.SIDES)
        assert all(mib >= 0 for mib in out["arena_mib"].values())
        # identical code on the same batches trains identically
        assert out["losses_equal"] is True
        orders = [r["order"] for r in out["per_round"]]
        assert [o[0] for o in orders] == ["parent", "change", "null"]

    def test_a_parent_without_an_arena_reads_null(self, tmp_path):
        parent = fake_parent(tmp_path)
        tensor_py = parent / "tensor.py"
        tensor_py.write_text(tensor_py.read_text().replace("def arena_usage(", "def _gone("))
        out = interleave.compare_packages(parent, _ROOT / "src" / "hsiladder", TINY, 1, 1, seed=1)
        assert out["arena_mib"]["parent"] is None
        assert out["arena_mib"]["change"] is not None and out["arena_mib"]["null"] is not None

    def test_a_slower_parent_is_resolved(self, tmp_path):
        pkg = trees.load_package(fake_parent(tmp_path), "hsiladder_slow_parent")
        backward = pkg.GradTape.backward

        def slow_backward(tape, loss):
            time.sleep(0.02)
            backward(tape, loss)

        pkg.GradTape.backward = slow_backward
        sides = {"parent": interleave.Side(pkg, TINY, 1)}
        for name in ("change", "null"):
            module = trees.load_package(_ROOT / "src" / "hsiladder", f"hsiladder_test_{name}")
            sides[name] = interleave.Side(module, TINY, 1)
        out = interleave.summarize(interleave.run_rounds(sides, TINY, interleave.MIN_ROUNDS, 3, 1))
        assert out["wins"] == interleave.MIN_ROUNDS
        assert out["median_ratio"] < 0.5
        assert out["resolved"] is True and out["losses_equal"] is True

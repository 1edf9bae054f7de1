"""``tools/compare.py``: parsing ``run.py``'s lines, the paired summary and
the two fingerprints."""

import json
import shutil

import pytest

from helpers import load_tool

compare = load_tool("compare")

METRICS = [
    {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "eval_patches_per_s", "unit": "patches/s", "better": "higher", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "train_wall_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def stdout(values: dict, correct=True) -> str:
    """What ``run.py`` prints last: a manifest line, then the result line."""
    manifest = {"manifest": {"workload": "w"}}
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()},
    }
    return "log line\n" + json.dumps(manifest) + "\n" + json.dumps(result) + "\n"


def runs_from(parent: dict, change: dict) -> list[dict]:
    """One parsed run per side and pair from per-metric value lists."""
    runs = []
    pairs = len(next(iter(parent.values())))
    for pair in range(pairs):
        for side, values in (("parent", parent), ("change", change)):
            line = stdout({k: v[pair] for k, v in values.items() if v[pair] is not None})
            runs.append({"pair": pair, "side": side, **compare.parse_run(line)})
    return runs


class TestParseRun:
    def test_reads_manifest_and_result(self):
        run = compare.parse_run(stdout({"step_ms_p50": 12.5}))
        assert run["manifest"] == {"workload": "w"}
        assert run["correct"] is True and run["attempted"] == 10
        assert run["metrics"]["step_ms_p50"]["value"] == 12.5

    @pytest.mark.parametrize("text", ["", "one line\n", "not json\nnot json\n", '{"a": 1}\n{}\n'])
    def test_missing_or_malformed_lines_are_an_incorrect_run(self, text):
        run = compare.parse_run(text)
        assert run["correct"] is False and run["manifest"] is None and run["metrics"] == {}


class TestSummarize:
    def test_ten_pairs_by_hand(self):
        parent = {
            "step_ms_p50": [100, 102, 98, 101, 99, 103, 97, 100, 104, 96],
            "eval_patches_per_s": [10.0] * 10,
            "setup_s": [1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0, 1.5],
            "train_wall_s": [5.0] * 10,
        }
        change = {
            # lower in 9 pairs, higher in pair 9
            "step_ms_p50": [90, 91, 89, 92, 88, 93, 87, 90, 94, 97],
            # higher in 5 pairs, tied in 3, lower in 2
            "eval_patches_per_s": [11.0] * 5 + [10.0] * 3 + [9.0] * 2,
            "setup_s": [1.0] * 10,
            # missing on the change side in two pairs
            "train_wall_s": [4.0] * 8 + [None, None],
        }
        out = compare.summarize(runs_from(parent, change), METRICS)

        step = out["step_ms_p50"]
        # sorted parent 96..104: inclusive quartiles 98.25, 100, 101.75
        assert step["parent"] == {"q1": 98.25, "median": 100.0, "q3": 101.75}
        assert step["change"]["median"] == 90.5
        assert step["ratio"] == pytest.approx(0.905)
        assert (step["wins"], step["losses"], step["pairs"]) == (9, 1, 10)
        # 9/10 wins and a 9.5 ms gain against a 3.5 ms parent IQR
        assert step["resolved"] is True
        assert step["parent_iqr_over_bound"] is False

        ev = out["eval_patches_per_s"]
        assert (ev["wins"], ev["losses"]) == (5, 2)
        assert ev["resolved"] is False

        setup = out["setup_s"]
        # parent IQR 0.5 on a median of 1.25: 40% against a 10% bound
        assert setup["parent_iqr_over_bound"] is True
        assert (setup["wins"], setup["losses"]) == (5, 0)
        assert setup["resolved"] is False

        wall = out["train_wall_s"]
        assert wall["pairs"] == 8 and wall["wins"] == 8
        # a pair that lacks the metric is no win: 8 of the 10 pairs run
        assert wall["resolved"] is False

    def test_nine_wins_without_a_gap_wider_than_the_iqr_is_unresolved(self):
        parent = {"step_ms_p50": [100, 110, 90, 105, 95, 100, 110, 90, 105, 95]}
        change = {"step_ms_p50": [p - 1 for p in parent["step_ms_p50"][:9]] + [200]}
        step = compare.summarize(runs_from(parent, change), METRICS)["step_ms_p50"]
        assert step["wins"] == 9
        assert step["resolved"] is False

    def test_higher_is_better_gain_must_be_upward(self):
        parent = {"eval_patches_per_s": [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 9.9]}
        change = {"eval_patches_per_s": [v + 2.0 for v in parent["eval_patches_per_s"]]}
        ev = compare.summarize(runs_from(parent, change), METRICS)["eval_patches_per_s"]
        assert ev["wins"] == 10 and ev["resolved"] is True
        assert ev["ratio"] == pytest.approx(1.2)
        worse = {"eval_patches_per_s": [v - 2.0 for v in parent["eval_patches_per_s"]]}
        ev = compare.summarize(runs_from(parent, worse), METRICS)["eval_patches_per_s"]
        assert ev["losses"] == 10 and ev["resolved"] is False

    @pytest.mark.parametrize("n", [1, 9])
    def test_fewer_than_ten_pairs_never_resolve(self, n):
        parent = {"step_ms_p50": [100.0 + (i % 3) for i in range(n)]}
        change = {"step_ms_p50": [50.0] * n}
        step = compare.summarize(runs_from(parent, change), METRICS)["step_ms_p50"]
        assert step["wins"] == step["pairs"] == n
        assert step["resolved"] is False
        parent["step_ms_p50"].append(101.0)
        change["step_ms_p50"].append(50.0)
        assert compare.summarize(runs_from(parent, change), METRICS)["step_ms_p50"]["resolved"] is (n == 9)

    def test_a_single_pair_and_a_missing_metric(self):
        runs = runs_from({"step_ms_p50": [20.0]}, {"step_ms_p50": [20.0]})
        out = compare.summarize(runs, METRICS)
        assert set(out) == {"step_ms_p50"}
        step = out["step_ms_p50"]
        assert step["parent"] == {"q1": 20.0, "median": 20.0, "q3": 20.0}
        assert (step["wins"], step["losses"], step["ratio"]) == (0, 0, 1.0)
        assert step["resolved"] is False


class TestFingerprints:
    FC = "fc: tape nodes per step 156 (ladder), 22 (supervised-only)"
    CONV = "conv: tape nodes per step 159 (ladder), 23 (supervised-only)"

    @staticmethod
    def printed(**sides: str) -> dict:
        """Each side's fingerprint parsed from the text it printed."""
        return {side: compare.parse_fingerprint(text) for side, text in sides.items()}

    def test_hashes_and_src_lines_of_both_sides(self):
        runs = "  fc ladder f64: 0123\n"
        prints = self.printed(
            parent=f"{runs}src lines 2722\nstep peak 320 KiB\nsha256 ab",
            change=f"{runs}src lines 2702\nsha256 ab",
        )
        assert prints["parent"] == {
            "sha256": "ab",
            "src_lines": 2722,
            "lines": ["src lines 2722", "step peak 320 KiB", "sha256 ab"],
            "tape_nodes": [],
        }
        assert compare.compare_fingerprints(prints) == {
            "fingerprints_equal": True,
            "tape_nodes_equal": False,
            "src_lines": {"parent": 2722, "change": 2702},
        }

    def test_a_side_without_a_hash_is_never_equal(self):
        # a fingerprint that failed before its last line prints no sha256
        text = f"{self.FC}\nsrc lines 2722"
        prints = self.printed(parent=text, change=text)
        assert prints["parent"]["sha256"] is None
        out = compare.compare_fingerprints(prints)
        assert out["fingerprints_equal"] is False and out["tape_nodes_equal"] is True
        prints = self.printed(parent="", change="src lines 2702\nsha256 ab")
        assert compare.compare_fingerprints(prints) == {
            "fingerprints_equal": False,
            "tape_nodes_equal": False,
            "src_lines": {"parent": None, "change": 2702},
        }

    def test_tape_node_lines_recorded_and_compared(self):
        runs = "  fc ladder f64: 0123\n  conv ladder f64: 4567"
        summary = "src lines 2708\nsha256 ab"
        fewer = self.CONV.replace("159", "158")
        prints = self.printed(
            parent=f"{self.FC}\n{self.CONV}\n{runs}\n{summary}",
            same=f"{self.FC}\n{runs}\n{self.CONV}\n{summary}",
            other=f"{self.FC}\n{fewer}\n{summary}",
        )
        assert prints["parent"]["tape_nodes"] == [self.FC, self.CONV]
        assert prints["parent"]["lines"] == ["src lines 2708", "sha256 ab"]
        out = compare.compare_fingerprints({"parent": prints["parent"], "change": prints["same"]})
        assert out["tape_nodes_equal"] is True and out["fingerprints_equal"] is True
        out = compare.compare_fingerprints({"parent": prints["parent"], "change": prints["other"]})
        assert out["tape_nodes_equal"] is False and out["fingerprints_equal"] is True

    def test_one_script_hashes_a_tree_and_its_copy_alike(self, tmp_path):
        src = compare.ROOT / "src"
        shutil.copytree(src / "hsiladder", tmp_path / "src" / "hsiladder",
                        ignore=shutil.ignore_patterns("__pycache__"))
        roots = {"parent": tmp_path / "src", "change": src}
        prints = {side: compare.fingerprint(root) for side, root in roots.items()}
        for side in compare.SIDES:
            assert prints[side]["exit"] == 0
            assert len(prints[side]["sha256"]) == 64 and len(prints[side]["tape_nodes"]) == 2
        assert prints["parent"]["sha256"] == prints["change"]["sha256"]
        assert prints["parent"]["tape_nodes"] == prints["change"]["tape_nodes"]
        out = compare.compare_fingerprints(prints)
        assert out["fingerprints_equal"] is True and out["tape_nodes_equal"] is True

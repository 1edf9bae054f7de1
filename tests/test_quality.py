"""``tools/quality.py``: the per-mode summary, the paired differences and
the gate, on made-up runs."""

import pytest

from helpers import load_tool

quality = load_tool("quality")


def runs_from(oa: dict, aa: dict | None = None) -> list[dict]:
    """One run per mode and seed from per-mode OA lists (seeds 1, 2, ...);
    AA defaults to OA."""
    aa = aa or oa
    return [
        {"seed": i + 1, "mode": mode, "oa": v, "aa": aa[mode][i], "seconds": 1.0}
        for mode, values in oa.items()
        for i, v in enumerate(values)
    ]


class TestSummarize:
    def test_three_seeds_by_hand(self):
        oa = {
            "ladder": [0.80, 0.70, 0.90],
            "supervised-only": [0.75, 0.72, 0.80],
            "sdae-pretrain": [0.60, 0.65, 0.70],
        }
        aa = {mode: [v - 0.1 for v in values] for mode, values in oa.items()}
        out = quality.summarize(runs_from(oa, aa))
        ladder = out["modes"]["ladder"]
        assert ladder["oa"]["mean"] == pytest.approx(0.80)
        assert ladder["oa"]["std"] == pytest.approx(0.1)  # sample standard deviation
        assert ladder["aa"]["mean"] == pytest.approx(0.70)
        sup = out["paired"]["ladder - supervised-only"]
        assert sup["seeds"] == [1, 2, 3]
        assert sup["oa"] == pytest.approx([0.05, -0.02, 0.10])
        assert sup["oa_mean"] == pytest.approx(0.13 / 3)
        assert sup["aa"] == pytest.approx([0.05, -0.02, 0.10])
        assert sup["ladder_wins_oa"] == 2
        sdae = out["paired"]["ladder - sdae-pretrain"]
        assert sdae["oa"] == pytest.approx([0.20, 0.05, 0.20])
        assert sdae["ladder_wins_oa"] == 3
        assert quality.gate(out)["passed"] is True

    def test_differences_pair_seeds_not_positions(self):
        runs = runs_from({"ladder": [0.5, 0.6, 0.7], "supervised-only": [0.4, 0.6, 0.9]})
        # the baseline's seed 2 is missing and its runs arrive out of order
        runs = [r for r in runs if not (r["mode"] == "supervised-only" and r["seed"] == 2)][::-1]
        sup = quality.summarize(runs)["paired"]["ladder - supervised-only"]
        assert sup["seeds"] == [1, 3]
        assert sup["oa"] == pytest.approx([0.1, -0.2])
        assert "sdae-pretrain" not in quality.summarize(runs)["modes"]


class TestGate:
    def test_ladder_behind_on_the_paired_mean_fails(self):
        oa = {"ladder": [0.8, 0.6, 0.6], "supervised-only": [0.7, 0.7, 0.7], "sdae-pretrain": [0.5] * 3}
        # ahead on one seed, behind on the paired mean
        gate = quality.gate(quality.summarize(runs_from(oa)))
        assert gate["ladder_minus_baseline_oa"] == pytest.approx(-0.1 / 3)
        assert gate["passed"] is False

    def test_a_tie_passes_and_sdae_is_not_gated(self):
        oa = {"ladder": [0.7, 0.8, 0.6], "supervised-only": [0.7, 0.8, 0.6], "sdae-pretrain": [0.9] * 3}
        gate = quality.gate(quality.summarize(runs_from(oa)))
        assert gate["ladder_minus_baseline_oa"] == 0.0
        assert gate["passed"] is True

    def test_no_paired_seed_fails(self):
        runs = runs_from({"ladder": [0.9, 0.9, 0.9], "sdae-pretrain": [0.1, 0.1, 0.1]})
        assert quality.gate(quality.summarize(runs))["passed"] is False


class TestArgs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--label", "x", "--seeds", "1", "2"],
            ["--label", "x", "--seeds", "1", "1", "2"],
            ["--label", "x", "--labeled-fraction", "0"],
            ["--label", "x", "--labeled-fraction", "1.5"],
        ],
        ids=["two-seeds", "repeated-seed", "no-label", "over-one"],
    )
    def test_refused(self, argv):
        with pytest.raises(SystemExit):
            quality.parse_args(argv)

    def test_src_must_hold_the_package(self, tmp_path):
        with pytest.raises(SystemExit):
            quality.parse_args(["--label", "x", "--src", str(tmp_path)])
        args = quality.parse_args(["--label", "x", "--labeled-fraction", "0.21"])
        assert args.seeds == [1, 2, 3] and args.labeled_fraction == 0.21
        assert args.src == quality.ROOT / "src"

"""Self-tests of the benchmark's own code.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from measure import SpeedProbe, beyond, percentile  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        values = [7, 1, 10, 3, 2, 9, 4, 8, 6, 5]
        assert percentile(values, 50) == 5
        assert percentile(values, 90) == 9
        assert percentile(values, 91) == 10
        assert percentile(values, 100) == 10
        assert percentile(values, 1) == 1

    def test_returns_an_observed_sample(self):
        values = [0.5, 2.25, 1.0]
        assert percentile(values, 50) in values
        assert percentile([4.0], 90) == 4.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_beyond_counts_samples_above_the_cut(self):
        values = list(range(1, 101))
        assert beyond(values, 90) == 10
        assert beyond([5, 5, 5, 5], 50) == 0


def test_speed_probe_scales_by_neighbouring_samples():
    probe = SpeedProbe()
    probe.samples = [2.0, 4.0, 8.0, 16.0]
    nominal = SpeedProbe.NOMINAL_MS
    assert probe.local_factor(0) == pytest.approx(nominal / 3.0)
    assert probe.local_factor(1) == pytest.approx(nominal / 4.0)
    assert probe.local_factor(3) == pytest.approx(nominal / 12.0)
    assert probe.factor() == pytest.approx(nominal / 6.0)
    probe.samples = []
    probe.sample(3)
    assert len(probe.samples) == 3 and min(probe.samples) > 0


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
        rec = spans.Recorder(clock=scripted_clock([0, 1, 3, 4, 5, 6, 8, 10]))
        root = rec.open("root")
        a = rec.open("a")
        rec.close(a)
        b = rec.open("b")
        c = rec.open("c")
        rec.close(c, work=7)
        rec.close(b)
        rec.close(root)
        assert spans.self_times(rec.spans) == [4, 2, 3, 1]
        summary = spans.Summary(rec.spans)
        assert summary.total["root"] == 10
        assert summary.self["b"] == 3
        assert summary.work["c"] == 7
        assert sum(summary.self.values()) == summary.total["root"]

    def test_overlapping_children_count_their_union(self):
        s = [["p", 0.0, 10.0, -1, 0], ["x", 1.0, 5.0, 0, 0], ["y", 3.0, 12.0, 0, 0]]
        assert spans.self_times(s)[0] == pytest.approx(1.0)

    def test_out_of_order_close_is_an_error(self):
        rec = spans.Recorder()
        outer = rec.open("outer")
        rec.open("inner")
        with pytest.raises(RuntimeError):
            rec.close(outer)

    def test_conv_flop_from_shapes(self):
        x = np.zeros((2, 5, 6, 3))
        k = np.zeros((3, 3, 3, 4))
        forward = 2 * 2 * 3 * 4 * 9 * 3 * 4
        assert spans.conv_flop("forward", x, k) == forward
        gy = np.zeros((2, 3, 4, 4))
        assert spans.conv_flop("input_grad", gy, k) == forward
        assert spans.conv_flop("kernel_grad", x, gy) == forward


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    w = W.WORKLOADS[name]
    a = W.setup(w, 5, tmp_path)
    b = W.setup(w, 5, tmp_path)
    c = W.setup(w, 6, tmp_path)
    for field in ("x_lab", "y_lab", "x_unlab", "eval_x"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    for p, q in zip(a.net.params.values(), b.net.params.values()):
        np.testing.assert_array_equal(p.data, q.data)
    batch_a, targets_a = W.draw_batch(a)
    batch_b, targets_b = W.draw_batch(b)
    np.testing.assert_array_equal(batch_a, batch_b)
    np.testing.assert_array_equal(targets_a, targets_b)
    assert batch_a.shape == (2 * W.BATCH, *w.spec.input_shape)
    assert batch_a.dtype == w.dtype
    assert not np.array_equal(a.eval_x, c.eval_x)


def originals():
    """(owner, attribute) -> object for everything the tracer patches."""
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    patched = [(owner, attr) for owner, attr, _ in tracer._saved]
    tracer.remove()
    return {(owner, attr): vars(owner)[attr] for owner, attr in patched}


def test_tracer_records_a_step_and_removes_every_wrapper(tmp_path):
    before = originals()
    w = W.WORKLOADS["fc-ladder-f32"]
    s = W.setup(w, 1, tmp_path)
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    with tracer.active():
        W.measure_loop(s, 0.0, W.Ledger(), recorder=rec, warmup=0)
    assert tracer.leftovers() == []
    assert {k: vars(k[0])[k[1]] for k in before} == before
    steps = spans.step_metrics(spans.Summary(rec.spans), tracer.nodes)
    assert steps["tensor.nodes_per_step"] == 242
    assert steps["kernels.conv2d_forward_calls"] == 0
    assert steps["ladder.decoder_ms"] > 0
    wall = sum(e - b for n, b, e, _, _ in rec.spans if n == "bench.step")
    assert sum(spans.self_times(rec.spans)) == pytest.approx(wall)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == list(metrics.END_TO_END)
    assert spec["per_layer"] == metrics.per_layer()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in W.WORKLOADS.values()]
    assert spec["paths"] == ["benchmarks"]

"""Training loop: Adam, determinism, mode equivalence, checkpoints, metrics."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hsiladder import (
    ConfigError,
    DataError,
    DivergenceError,
    LadderNetwork,
    LadderSpec,
    LayerSpec,
    Rng,
    ShapeError,
    Tensor,
)
from hsiladder import checkpoint as ckpt
from hsiladder import train as train_mod
from hsiladder.data import prepare_dataset
from hsiladder.synthetic import make_synthetic_cube
from hsiladder.train import (
    CURVES,
    Adam,
    TrainConfig,
    clip_gradients,
    evaluate,
    gather_input,
    load_checkpoint,
    metrics_from_confusion,
    save_checkpoint,
    train,
)

from helpers import AdamOracle, confusion_oracle, gather_input_oracle


def small_spec(noise=0.5, lambdas=(0.1, 0.1, 0.1, 0.1), widths=(16, 8), bands=8, classes=3):
    layers = tuple(LayerSpec("fc", w) for w in widths) + (
        LayerSpec("softmax_head", classes, activation="none"),
    )
    return LadderSpec(layers, noise, lambdas, (bands,))


def small_config(seed=1, iterations=30, mode="ladder", **kw):
    spec_kw = {k: kw.pop(k) for k in list(kw) if k in ("noise", "lambdas")}
    return TrainConfig(
        ladder=small_spec(**spec_kw),
        learning_rate=kw.pop("learning_rate", 0.01),
        iterations=iterations,
        seed=seed,
        batch_size=16,
        mode=mode,
        **kw,
    )


@pytest.fixture(scope="module")
def prepared():
    cube = make_synthetic_cube(11)
    return prepare_dataset(cube, window=1, pca_components=None, n_per_class=5, seed=11)


class TestAdam:
    def test_first_step_hand_value(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        # bias correction makes the first step ~ -lr * sign(g)
        assert abs(p.data[0] - (-0.1 / (1.0 + 1e-8))) < 1e-12

    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.5, -2.0])
        assert opt.t == 1

    def test_identical_sequences_give_identical_parameters(self):
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal(3) for _ in range(20)]
        p1 = Tensor(np.zeros(3), requires_grad=True)
        p2 = Tensor(np.zeros(3), requires_grad=True)
        o1, o2 = Adam({"p": p1}, 0.05), Adam({"p": p2}, 0.05)
        for g in grads:
            p1.grad = g.copy()
            o1.step()
            p2.grad = g.copy()
            o2.step()
        np.testing.assert_array_equal(p1.data, p2.data)

    def test_lr_zero_never_moves(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        rng = np.random.default_rng(1)
        for _ in range(10):
            p.grad = rng.standard_normal(1)
            opt.step(lr_scale=0.0)
        np.testing.assert_array_equal(p.data, [3.0])

    def test_nan_gradient_names_parameter(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"enc1/W": p}, lr=0.1)
        p.grad = np.array([np.nan])
        with pytest.raises(DivergenceError) as e:
            opt.step()
        assert "enc1/W" in str(e.value)

    def test_failed_step_changes_nothing(self):
        rng = np.random.default_rng(2)
        params = {n: Tensor(rng.standard_normal(s), requires_grad=True)
                  for n, s in (("a", (3, 2)), ("b", (4,)), ("c", (2, 2)))}
        opt = Adam(params, lr=0.1)
        for p in params.values():
            p.grad = rng.standard_normal(p.data.shape)
        opt.step()
        before = {n: (p.data.copy(), opt.m[n].copy(), opt.v[n].copy()) for n, p in params.items()}
        for p in params.values():
            p.grad = rng.standard_normal(p.data.shape)
        params["b"].grad[2] = np.nan
        with pytest.raises(DivergenceError, match="parameter b"):
            opt.step()
        assert opt.t == 1
        for n, (data, m, v) in before.items():
            np.testing.assert_array_equal(params[n].data, data)
            np.testing.assert_array_equal(opt.m[n], m)
            np.testing.assert_array_equal(opt.v[n], v)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_per_parameter_oracle(self, dtype):
        rng = np.random.default_rng(3)
        shapes = {"enc1/W": (5, 4), "enc1/gamma": (4,), "dec1/V": (4, 5), "dec1/a": (3, 1, 5)}
        init = {n: rng.standard_normal(s).astype(dtype) for n, s in shapes.items()}
        ours = {n: Tensor(x.copy(), requires_grad=True) for n, x in init.items()}
        theirs = {n: Tensor(x.copy(), requires_grad=True) for n, x in init.items()}
        opt, ref = Adam(ours, 0.03), AdamOracle(theirs, 0.03)
        for step in range(20):
            for n, s in shapes.items():
                # dec1/V never gets a gradient, dec1/a only on even steps
                none = n == "dec1/V" or (n == "dec1/a" and step % 2)
                g = None if none else (rng.standard_normal(s) * 10.0 ** (step % 3)).astype(dtype)
                ours[n].grad = g
                theirs[n].grad = None if g is None else g.copy()
            scale = 0.5 if step % 4 == 3 else 1.0
            opt.step(lr_scale=scale)
            ref.step(lr_scale=scale)
            for n in shapes:
                assert ours[n].data.dtype == dtype
                assert np.array_equal(ours[n].data, theirs[n].data), (step, n)
                assert np.array_equal(opt.m[n], ref.m[n]) and np.array_equal(opt.v[n], ref.v[n])
        assert opt.t == ref.t == 20

    def test_mixed_dtypes_rejected(self):
        params = {
            "a": Tensor(np.zeros(2), requires_grad=True),
            "b": Tensor(np.zeros(2, dtype=np.float32), requires_grad=True),
        }
        with pytest.raises(ConfigError, match="one dtype"):
            Adam(params, lr=0.1)

    def test_grad_clip(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 10.0)
        norm = clip_gradients({"p": p}, max_norm=1.0)
        assert abs(norm - 20.0) < 1e-12
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-12


class TestMetrics:
    def test_all_correct(self):
        confusion = np.diag([5, 7, 9])
        m = metrics_from_confusion(confusion)
        assert m["oa"] == 1.0 and m["aa"] == 1.0

    def test_constant_prediction_on_balanced_classes(self):
        confusion = np.zeros((9, 9), dtype=int)
        confusion[:, 0] = 10  # everything predicted as class 0
        m = metrics_from_confusion(confusion)
        assert abs(m["oa"] - 1.0 / 9.0) < 1e-12
        assert abs(m["aa"] - 1.0 / 9.0) < 1e-12

    def test_hand_confusion(self):
        m = metrics_from_confusion(np.array([[2, 1], [0, 3]]))
        assert abs(m["oa"] - 5.0 / 6.0) < 1e-12
        assert abs(m["aa"] - 5.0 / 6.0) < 1e-12

    def test_oa_recomputable_from_confusion(self, prepared):
        config = small_config(iterations=20)
        net, report = train(config, prepared.patches, prepared.split)
        recomputed = np.trace(report.confusion) / report.confusion.sum()
        assert abs(report.oa - recomputed) < 1e-15

    def test_confusion_matches_loop(self):
        rng = np.random.default_rng(4)
        k, n = 6, 500
        y_true = rng.integers(0, k - 1, n)  # class k - 1 never occurs
        y_pred = rng.integers(0, k, n)
        patchset = SimpleNamespace(patches=np.zeros((n, 1, 1, 2)), labels=y_true)
        net = SimpleNamespace(
            spec=SimpleNamespace(input_shape=(2,), num_classes=k),
            dtype=np.float64,
            predict=lambda x: y_pred[: len(x)],
        )
        m = evaluate(net, patchset, np.arange(n))
        expect = confusion_oracle(y_true, y_pred, k)
        np.testing.assert_array_equal(m["confusion"], expect)
        assert m["confusion"].dtype == np.int64 and not m["confusion"][k - 1].any()
        patchset.labels = np.where(y_true == 2, k, y_true)
        with pytest.raises(DataError, match="out of range"):
            evaluate(net, patchset, np.arange(n))

    def test_empty_test_set_rejected(self, prepared):
        from hsiladder import DataError

        config = small_config(iterations=2)
        net, _ = train(config, prepared.patches, prepared.split)
        with pytest.raises(DataError):
            evaluate(net, prepared.patches, np.array([], dtype=int))


class TestGatherInput:
    @pytest.mark.parametrize(
        "src, dst", [(np.float64, np.float32), (np.float32, np.float64), (np.float64, np.float64)]
    )
    @pytest.mark.parametrize("input_shape", [(7, 7, 3), (147,)], ids=["conv", "flat"])
    @pytest.mark.parametrize("chunk_bytes", [None, 4096], ids=["default", "4KiB"])
    def test_matches_gather_then_cast(self, src, dst, input_shape, chunk_bytes, monkeypatch):
        if chunk_bytes is not None:
            # 3 f64 or 6 f32 rows of 7x7x3 per chunk, the last one partial
            monkeypatch.setattr(train_mod, "GATHER_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(8)
        patches = rng.standard_normal((300, 7, 7, 3)).astype(src)
        idx = rng.integers(0, len(patches), 250)  # with repeats
        for rows in (idx, idx[:1], idx[:0]):
            got = gather_input(patches, rows, input_shape, dst)
            want = gather_input_oracle(patches, rows, input_shape, dst)
            assert got.dtype == want.dtype == dst and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_f32_pool_from_f64_patches_peaks_at_one_copy(self):
        patches = np.random.default_rng(9).standard_normal((3000, 7, 7, 15))
        idx = np.arange(len(patches))[::-1].copy()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = gather_input(patches, idx, (7, 7, 15), np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # gather-then-cast holds the f64 gather beside the f32 result (3x)
        assert peak < 1.25 * out.nbytes

    def test_shape_mismatch_rejected(self):
        patches = np.zeros((4, 3, 3, 2))
        with pytest.raises(ShapeError):
            gather_input(patches, np.arange(4), (3, 3, 5), np.float32)
        with pytest.raises(ShapeError):
            gather_input(patches, np.arange(4), (17,), np.float32)


class TestDeterminism:
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_bit_reproducible_runs(self, prepared, precision):
        config = small_config(seed=5, iterations=25, precision=precision)
        net1, rep1 = train(config, prepared.patches, prepared.split)
        net2, rep2 = train(config, prepared.patches, prepared.split)
        np.testing.assert_array_equal(rep1.c_total, rep2.c_total)
        assert rep1.oa == rep2.oa
        for name in net1.params:
            np.testing.assert_array_equal(net1.params[name].data, net2.params[name].data)

    def test_lambda_zero_matches_supervised_only_trajectory(self, prepared):
        ladder_cfg = small_config(seed=6, iterations=25, lambdas=(0.0, 0.0, 0.0, 0.0))
        sup_cfg = dataclasses.replace(ladder_cfg, mode="supervised-only")
        net1, rep1 = train(ladder_cfg, prepared.patches, prepared.split)
        net2, rep2 = train(sup_cfg, prepared.patches, prepared.split)
        np.testing.assert_array_equal(rep1.c_total, rep2.c_total)
        np.testing.assert_array_equal(rep1.c_super, rep2.c_super)
        assert np.all(rep1.c_recon == 0.0) and np.all(rep2.c_recon == 0.0)
        for name in net1.params:
            np.testing.assert_array_equal(net1.params[name].data, net2.params[name].data)

    def test_loss_decreases_on_synthetic(self, prepared):
        for seed in (1, 2, 3):
            config = small_config(seed=seed, iterations=200)
            _, report = train(config, prepared.patches, prepared.split)
            assert report.c_total[199] < report.c_total[0]


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, prepared, tmp_path):
        config = small_config(seed=7, iterations=10)
        net, _ = train(config, prepared.patches, prepared.split)
        adam = Adam(net.params, config.learning_rate)
        noise, batch = Rng(7).spawn(2)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        curves = {name: np.arange(10.0) + i for i, name in enumerate(CURVES)}
        save_checkpoint(p1, net, adam, 10, noise, batch, config, curves)
        it, loaded = load_checkpoint(p1, net, adam, noise, batch, config)
        for name in CURVES:
            np.testing.assert_array_equal(loaded[name], curves[name])
        save_checkpoint(p2, net, adam, it, noise, batch, config, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_moments_stay_views_of_flat_buffers(self, tmp_path):
        config = small_config(seed=3)
        net = LadderNetwork(small_spec(), Rng(3))
        adam = Adam(net.params, 0.01)
        rng = np.random.default_rng(5)
        for _ in range(3):
            for p in net.params.values():
                p.grad = rng.standard_normal(p.data.shape)
            adam.step()
        noise, batch = Rng(3).spawn(2)
        path = tmp_path / "a.ckpt"
        curves = {name: np.ones(3) for name in CURVES}
        save_checkpoint(path, net, adam, 3, noise, batch, config, curves)
        fresh = Adam(net.params, 0.01)
        load_checkpoint(path, net, fresh, noise, batch, config)
        assert fresh.t == 3
        for name in net.params:
            assert np.shares_memory(fresh.m[name], fresh.flat_m)
            assert np.shares_memory(fresh.v[name], fresh.flat_v)
        np.testing.assert_array_equal(fresh.flat_m, adam.flat_m)
        np.testing.assert_array_equal(fresh.flat_v, adam.flat_v)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_resume_is_bit_identical_continuation(self, prepared, tmp_path, precision):
        full_cfg = small_config(
            seed=8, iterations=40, checkpoint_interval=20, precision=precision
        )
        net_full, rep_full = train(full_cfg, prepared.patches, prepared.split)

        out = tmp_path / "half"
        half_cfg = small_config(
            seed=8, iterations=20, checkpoint_interval=20, precision=precision
        )
        train(half_cfg, prepared.patches, prepared.split, out_dir=out)
        resumed_cfg = small_config(
            seed=8, iterations=40, checkpoint_interval=0, precision=precision
        )
        net_res, rep_res = train(
            resumed_cfg, prepared.patches, prepared.split, resume=out / "final.ckpt"
        )
        np.testing.assert_array_equal(rep_full.c_super, rep_res.c_super)
        np.testing.assert_array_equal(rep_full.c_recon, rep_res.c_recon)
        np.testing.assert_array_equal(rep_full.c_total, rep_res.c_total)
        assert np.all(rep_res.c_total[:20] != 0.0)
        for name in net_full.params:
            np.testing.assert_array_equal(net_full.params[name].data, net_res.params[name].data)
        assert rep_full.oa == rep_res.oa

    def test_resumed_losses_csv_has_no_zero_prefix(self, prepared, tmp_path):
        out = tmp_path / "half"
        train(small_config(seed=8, iterations=10), prepared.patches, prepared.split, out_dir=out)
        res = tmp_path / "res"
        train(
            small_config(seed=8, iterations=15),
            prepared.patches,
            prepared.split,
            out_dir=res,
            resume=out / "final.ckpt",
        )
        rows = (res / "losses.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 15
        assert all(float(r.split(",")[3]) != 0.0 for r in rows)

    @pytest.mark.parametrize(
        "field,change",
        [("seed", {"seed": 9}), ("precision", {"precision": "f32"}), ("grad_clip", {"grad_clip": 1.0})],
    )
    def test_mismatched_resume_refused(self, prepared, tmp_path, field, change):
        out = tmp_path / "run"
        train(small_config(seed=8, iterations=5), prepared.patches, prepared.split, out_dir=out)
        other = small_config(**{"seed": 8, "iterations": 10, **change})
        # the test's tmp_path holds the field name too, so match the message
        with pytest.raises(ConfigError, match=f"written with {field} ="):
            train(other, prepared.patches, prepared.split, resume=out / "final.ckpt")

    def test_linear_decay_resume_needs_same_iterations(self, prepared, tmp_path):
        # the decay starts at iterations * (1 - lr_decay_fraction), so another
        # iterations would move the schedule of the remaining steps
        out = tmp_path / "run"
        full = small_config(seed=8, iterations=8, lr_decay="linear", checkpoint_interval=5)
        net_full, rep_full = train(full, prepared.patches, prepared.split, out_dir=out)
        for iterations in (6, 12):
            other = small_config(seed=8, iterations=iterations, lr_decay="linear")
            with pytest.raises(ConfigError, match="written with iterations = 8,"):
                train(other, prepared.patches, prepared.split, resume=out / "last.ckpt")
        same = small_config(seed=8, iterations=8, lr_decay="linear")
        assert ckpt.load_entries(out / "last.ckpt")[0] == 5
        net_res, rep_res = train(same, prepared.patches, prepared.split, resume=out / "last.ckpt")
        np.testing.assert_array_equal(rep_full.c_total, rep_res.c_total)
        for name in net_full.params:
            np.testing.assert_array_equal(net_full.params[name].data, net_res.params[name].data)

    def test_changed_lr_decay_named_first(self, prepared, tmp_path):
        out = tmp_path / "run"
        train(small_config(seed=8, iterations=5), prepared.patches, prepared.split, out_dir=out)
        other = small_config(seed=8, iterations=10, lr_decay="linear")
        with pytest.raises(ConfigError, match="written with lr_decay = 'none'"):
            train(other, prepared.patches, prepared.split, resume=out / "final.ckpt")

    def test_mismatched_spec_refused_before_loading(self, tmp_path):
        path, net, adam, noise, batch = self._saved_state(tmp_path)
        before = net.params["enc1/W"].data.copy()
        net.params["enc1/W"].data += 1.0
        with pytest.raises(ConfigError, match="ladder.noise_std"):
            load_checkpoint(path, net, adam, noise, batch, small_config(seed=3, noise=0.3))
        np.testing.assert_array_equal(net.params["enc1/W"].data, before + 1.0)

    def test_resume_past_iterations_refused(self, prepared, tmp_path):
        out = tmp_path / "run"
        train(small_config(seed=8, iterations=6), prepared.patches, prepared.split, out_dir=out)
        with pytest.raises(ConfigError, match="iteration 6"):
            train(
                small_config(seed=8, iterations=4),
                prepared.patches,
                prepared.split,
                resume=out / "final.ckpt",
            )

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "a.ckpt"
        good = {"w": np.arange(6.0).reshape(2, 3)}
        ckpt.save_entries(path, 3, good)
        bad = {"w": np.zeros(2), "labels": np.zeros(2, dtype=np.int32)}
        with pytest.raises(DataError, match="labels"):
            ckpt.save_entries(path, 4, bad)
        iteration, entries = ckpt.load_entries(path)
        assert iteration == 3
        np.testing.assert_array_equal(entries["w"], good["w"])
        assert list(tmp_path.iterdir()) == [path]

    def test_every_truncation_raises_data_error(self, tmp_path):
        path = tmp_path / "a.ckpt"
        ckpt.save_entries(path, 1, {"w": np.ones((2, 2)), "t": np.array([7], dtype=np.uint64)})
        full = path.read_bytes()
        for cut in range(len(full)):
            path.write_bytes(full[:cut])
            with pytest.raises(DataError):
                ckpt.load_entries(path)

    @pytest.mark.parametrize(
        "key",
        ["param/enc1/W", "running/1/mean", "running/2/init", "adam/v/enc2/gamma", "adam/t",
         "rng/batch", "curve/c_recon", "config"],
    )
    def test_missing_entry_named(self, tmp_path, key):
        path, net, adam, noise, batch = self._saved_state(tmp_path)
        iteration, entries = ckpt.load_entries(path)
        del entries[key]
        ckpt.save_entries(path, iteration, entries)
        with pytest.raises(DataError, match=key):
            load_checkpoint(path, net, adam, noise, batch, small_config(seed=3))

    @pytest.mark.parametrize(
        "key", ["param/enc1/W", "running/1/var", "adam/m/enc1/W", "rng/noise", "curve/c_super"]
    )
    def test_wrong_shape_entry_named(self, tmp_path, key):
        path, net, adam, noise, batch = self._saved_state(tmp_path)
        iteration, entries = ckpt.load_entries(path)
        entries[key] = entries[key][:-1]
        ckpt.save_entries(path, iteration, entries)
        with pytest.raises(DataError, match=key):
            load_checkpoint(path, net, adam, noise, batch, small_config(seed=3))

    @staticmethod
    def _saved_state(tmp_path):
        net = LadderNetwork(small_spec(), Rng(3))
        adam = Adam(net.params, 0.01)
        noise, batch = Rng(3).spawn(2)
        path = tmp_path / "a.ckpt"
        curves = {name: np.ones(5) for name in CURVES}
        save_checkpoint(path, net, adam, 5, noise, batch, small_config(seed=3), curves)
        return path, net, adam, noise, batch

    def test_report_files_written(self, prepared, tmp_path):
        out = tmp_path / "run"
        config = small_config(seed=9, iterations=5)
        train(config, prepared.patches, prepared.split, out_dir=out)
        report = (out / "report.txt").read_text()
        assert "oa = " in report and "seed = 9" in report
        lines = (out / "losses.csv").read_text().strip().split("\n")
        assert lines[0] == "iteration,c_super,c_recon,c_total"
        assert len(lines) == 6
        assert (out / "final.ckpt").exists()


class TestDivergence:
    def test_blown_up_weights_abort(self, prepared):
        config = small_config(seed=10, iterations=5, learning_rate=1e30)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            train(config, prepared.patches, prepared.split)


class TestSdae:
    def test_pretrain_mode_runs_and_reports(self, prepared):
        config = small_config(seed=12, iterations=15, mode="sdae-pretrain")
        config = TrainConfig(
            ladder=config.ladder,
            learning_rate=config.learning_rate,
            iterations=15,
            seed=12,
            batch_size=16,
            mode="sdae-pretrain",
            pretrain_iterations=20,
        )
        net, report = train(config, prepared.patches, prepared.split)
        assert 0.0 <= report.oa <= 1.0
        assert np.all(report.c_recon == 0.0)  # fine-tuning is supervised-only

    def test_pretraining_changes_weights(self, prepared):
        from hsiladder.ladder import LadderNetwork

        config = small_config(seed=13, iterations=1, mode="sdae-pretrain")
        config.pretrain_iterations = 10
        init_rng = Rng(13).spawn(4)[0]
        reference = LadderNetwork(config.ladder, init_rng)
        net, _ = train(config, prepared.patches, prepared.split)
        assert not np.array_equal(net.params["enc1/W"].data, reference.params["enc1/W"].data)

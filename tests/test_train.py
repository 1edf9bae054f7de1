"""Training loop: Adam, determinism, mode equivalence, checkpoints, metrics."""

import dataclasses
import json
import struct
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
from hsiladder import data as data_mod
from hsiladder import ladder as ladder_mod
from hsiladder.errors import first_non_finite
from hsiladder import train as train_mod
from hsiladder.data import prepare_dataset
from hsiladder.synthetic import make_synthetic_cube
from hsiladder.train import (
    CURVES,
    Adam,
    TrainConfig,
    batch_input,
    evaluate,
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

    def test_gather_reads_none_as_zeros(self):
        out = np.full(7, 9.0)
        arrays = [np.ones((2, 2)), np.zeros(1), np.array(5.0), np.zeros(1)]
        assert first_non_finite(list(zip("abcd", arrays)), out=out) is None
        np.testing.assert_array_equal(out, [1, 1, 1, 1, 0, 5, 0])
        assert first_non_finite([("a", np.ones(3)), ("b", np.array([0.0, -np.inf]))]) == "b"
        named = [("a", np.array([np.nan])), ("b", np.zeros(2)), ("c", np.array([np.nan]))]
        assert first_non_finite(named) == "a"
        # Adam reads a missing gradient as zeros: the same steps as explicit
        # zero gradients and as the per-parameter oracle
        rng = np.random.default_rng(6)
        shapes = {"a": (2, 2), "b": (3,), "c": (), "d": (5,)}
        init = {n: rng.standard_normal(s) for n, s in shapes.items()}
        sets = [{n: Tensor(x.copy(), requires_grad=True) for n, x in init.items()} for _ in range(3)]
        missing, zeros, oracle = sets
        opts = [Adam(missing, 0.05), Adam(zeros, 0.05), AdamOracle(oracle, 0.05)]
        for step in range(6):
            for n, s in shapes.items():
                g = None if n in ("b", "d") or step % 2 and n == "a" else rng.standard_normal(s)
                missing[n].grad = g
                zeros[n].grad = np.zeros(s) if g is None else g.copy()
                oracle[n].grad = g
            for opt in opts:
                opt.step()
            for n in shapes:
                np.testing.assert_array_equal(missing[n].data, zeros[n].data)
                np.testing.assert_array_equal(missing[n].data, oracle[n].data)

    def test_nan_gradient_named_next_to_missing_gradients(self):
        params = {n: Tensor(np.ones(s), requires_grad=True)
                  for n, s in (("a", (2, 3)), ("b", (4,)), ("c", ()), ("d", (3,)))}
        opt = Adam(params, lr=0.1)
        params["b"].grad = np.array([1.0, 2.0, -np.inf, 3.0])
        params["d"].grad = np.array([np.nan, 0.0, 1.0])
        # a and c have no gradient
        with pytest.raises(DivergenceError, match="^non-finite gradient for parameter b$"):
            opt.step()
        params["b"].grad = None
        with pytest.raises(DivergenceError, match="^non-finite gradient for parameter d$"):
            opt.step()
        assert opt.t == 0

    def test_failed_step_changes_nothing(self):
        rng = np.random.default_rng(2)
        params = {n: Tensor(rng.standard_normal(s), requires_grad=True)
                  for n, s in (("a", (3, 2)), ("b", (4,)), ("c", (2, 2)))}
        opt = Adam(params, lr=0.1)
        for p in params.values():
            p.grad = rng.standard_normal(p.data.shape)
        opt.step()
        before = {n: p.data.copy() for n, p in params.items()}
        m, v = opt.flat_m.copy(), opt.flat_v.copy()
        for p in params.values():
            p.grad = rng.standard_normal(p.data.shape)
        params["b"].grad[2] = np.nan
        with pytest.raises(DivergenceError, match="parameter b"):
            opt.step()
        assert opt.t == 1
        for n, data in before.items():
            np.testing.assert_array_equal(params[n].data, data)
        np.testing.assert_array_equal(opt.flat_m, m)
        np.testing.assert_array_equal(opt.flat_v, v)

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
            # the flat buffers hold the moments in parameter order
            assert np.array_equal(opt.flat_m, np.concatenate([ref.m[n].ravel() for n in shapes]))
            assert np.array_equal(opt.flat_v, np.concatenate([ref.v[n].ravel() for n in shapes]))
        assert opt.t == ref.t == 20

    def test_mixed_dtypes_rejected(self):
        params = {
            "a": Tensor(np.zeros(2), requires_grad=True),
            "b": Tensor(np.zeros(2, dtype=np.float32), requires_grad=True),
        }
        with pytest.raises(ConfigError, match="one dtype"):
            Adam(params, lr=0.1)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", -1.0),
            ("learning_rate", 0.0),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", None),
            ("learning_rate", "1"),
            ("checkpoint_interval", -3),
            ("pretrain_iterations", -3),
            ("learning_rate", True),
            ("learning_rate", np.True_),
            ("seed", -1),
            ("seed", 2**64),
        ],
    )
    def test_bad_value_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("iterations", 2.5),
            ("iterations", 3.0),
            ("batch_size", 4.5),
            ("checkpoint_interval", 4.5),
            ("pretrain_iterations", 4.5),
            ("pretrain_iterations", np.float64(4)),
            ("seed", 1.5),
            ("iterations", True),
            ("batch_size", np.True_),
            ("seed", True),
        ],
    )
    def test_non_integer_size_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            dataclasses.replace(small_config(), **{field: value})

    def test_numpy_reals_become_python_floats(self):
        for value, want in ((np.float32(0.5), 0.5), (np.int64(2), 2.0)):
            config = dataclasses.replace(small_config(), learning_rate=value)
            assert config.learning_rate == want and type(config.learning_rate) is float

    def test_numpy_integers_become_python_ints(self):
        config = dataclasses.replace(
            small_config(), iterations=np.int64(3), seed=np.uint64(7), batch_size=np.int32(8)
        )
        assert (config.iterations, config.seed, config.batch_size) == (3, 7, 8)
        assert {type(v) for v in (config.iterations, config.seed, config.batch_size)} == {int}

    def test_rng_refuses_a_fractional_seed(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            Rng(1.5)
        assert Rng(np.int64(3)).seed == 3


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
        # each patch holds its own row number, so the fake net predicts
        # y_pred[row] for whichever rows it is asked to read
        patches = np.repeat(np.arange(n, dtype=np.float64), 2).reshape(n, 1, 1, 2)
        patchset = SimpleNamespace(patches=patches, labels=y_true)
        net = SimpleNamespace(
            spec=SimpleNamespace(num_classes=k),
            predict=lambda x, rows: y_pred[x[rows][:, 0, 0, 0].astype(np.int64)],
        )
        test = rng.permutation(n)  # out of order: labels and predictions must stay paired
        m = evaluate(net, patchset, test)
        expect = confusion_oracle(y_true, y_pred, k)
        np.testing.assert_array_equal(m["confusion"], expect)
        assert m["confusion"].dtype == np.int64 and not m["confusion"][k - 1].any()
        patchset.labels = np.where(y_true == 2, k, y_true)
        with pytest.raises(DataError, match="out of range"):
            evaluate(net, patchset, test)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("tens", [1, 2])
    def test_blockwise_evaluate_equals_one_prediction(self, dtype, tens, monkeypatch):
        """``evaluate`` reads the test rows chunk by chunk in one prediction,
        and its confusion is that of predicting the gathered test set."""
        cube = make_synthetic_cube(12, height=24, width=24, bands=6, classes=3, block=6)
        data = prepare_dataset(cube, window=5, pca_components=4, n_per_class=4, seed=12)
        spec = LadderSpec(
            (LayerSpec("conv3x3", 6), LayerSpec("fc", 8), LayerSpec("softmax_head", 3, "none")),
            0.3,
            (1.0, 0.1, 0.1, 0.1),
            (5, 5, 4),
        )
        precision = "f64" if dtype == np.float64 else "f32"
        config = TrainConfig(
            ladder=spec, learning_rate=0.01, iterations=6, seed=12, batch_size=8, precision=precision
        )
        net, _ = train(config, data.patches, data.split)
        # the widest per-row intermediate: the conv's 3x3 im2col rows of 3x3x4
        widest = 3 * 3 * 3 * 3 * 4
        chunk = 10 * tens  # rows per prediction chunk
        monkeypatch.setattr(ladder_mod, "PREDICT_CHUNK_BYTES", chunk * widest * net.dtype.itemsize)
        assert net.predict_chunk_rows() == chunk
        test = data.split.test
        assert len(test) > 2 * chunk and len(test) % chunk
        x = batch_input(data.patches.patches, spec.input_shape, dtype, test)
        whole = net.predict_log_probs(x)
        calls, reads = [], []
        predict_log_probs, gather_rows = net.predict_log_probs, data_mod.gather_rows

        def spy(x, rows):
            calls.append(predict_log_probs(x, rows))
            return calls[-1]

        def gather_spy(rows, indices, dtype):
            reads.append(len(indices))
            return gather_rows(rows, indices, dtype)

        net.predict_log_probs = spy  # ``predict`` calls it through the instance
        # a reader's windows are read only by ``data.gather_rows``
        monkeypatch.setattr(data_mod, "gather_rows", gather_spy)
        m = evaluate(net, data.patches, test)
        assert len(calls) == 1
        assert reads == [min(chunk, len(test) - i) for i in range(0, len(test), chunk)]
        np.testing.assert_array_equal(calls[0], whole)
        labels = data.patches.labels[test]
        np.testing.assert_array_equal(
            m["confusion"], confusion_oracle(labels, np.argmax(whole, axis=1), 3)
        )

    def test_empty_test_set_rejected(self, prepared):
        from hsiladder import DataError

        config = small_config(iterations=2)
        net, _ = train(config, prepared.patches, prepared.split)
        with pytest.raises(DataError):
            evaluate(net, prepared.patches, np.array([], dtype=int))


class TestSplitCheck:
    """``train`` refuses a split that does not fit the patch set or the head
    before iteration 0, naming the set; ``evaluate`` its own test rows."""

    @staticmethod
    def _split(prepared, **change):
        s = prepared.split
        sets = {"labeled_train": s.labeled_train, "unlabeled_train": s.unlabeled_train, "test": s.test}
        return SimpleNamespace(**{**sets, **change})

    @pytest.mark.parametrize("which", ["labeled_train", "unlabeled_train", "test"])
    @pytest.mark.parametrize(
        "bad, why",
        [
            (lambda n, rows: np.append(rows, n), r"index {n} out of range \[0, {n}\)"),
            (lambda n, rows: np.append(rows, -1), r"index -1 out of range \[0, {n}\)"),
            (lambda n, rows: rows.astype(np.float64), "indices must be 1-d integers"),
        ],
        ids=["past-the-end", "negative", "float"],
    )
    def test_bad_index_named_before_training(self, prepared, tmp_path, which, bad, why):
        n = len(prepared.patches)
        split = self._split(prepared, **{which: bad(n, getattr(prepared.split, which))})
        name = {"labeled_train": "labeled", "unlabeled_train": "unlabeled", "test": "test"}[which]
        config = small_config(iterations=3, checkpoint_interval=1)
        with pytest.raises(DataError, match=f"^{name} " + why.format(n=n)):
            train(config, prepared.patches, split, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("which", ["labeled_train", "unlabeled_train", "test"])
    def test_empty_set_refused_before_training(self, prepared, tmp_path, which):
        split = self._split(prepared, **{which: np.array([], dtype=np.int64)})
        name = {"labeled_train": "labeled", "unlabeled_train": "unlabeled", "test": "test"}[which]
        config = small_config(iterations=3, checkpoint_interval=1)
        with pytest.raises(DataError, match=f"^{name} set is empty$"):
            train(config, prepared.patches, split, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("which", ["labeled_train", "test"])
    def test_labels_beyond_the_head_refused(self, prepared, which):
        rows = getattr(prepared.split, which)
        labels = prepared.patches.labels.copy()
        labels[rows[0]] = 3  # the head has 3 classes
        patchset = SimpleNamespace(patches=prepared.patches.patches, labels=labels)
        name = "labeled" if which == "labeled_train" else "test"
        with pytest.raises(DataError, match=rf"^{name} labels 0..3 out of range \[0, 3\)"):
            train(small_config(iterations=2), patchset, prepared.split)

    def test_unlabeled_rows_may_hold_any_label(self, prepared):
        labels = prepared.patches.labels.copy()
        labels[prepared.split.unlabeled_train] = 7
        patchset = SimpleNamespace(patches=prepared.patches.patches, labels=labels)
        _, report = train(small_config(iterations=2), patchset, prepared.split)
        assert 0.0 <= report.oa <= 1.0

    def test_evaluate_checks_its_rows(self, prepared):
        net, _ = train(small_config(iterations=2), prepared.patches, prepared.split)
        n = len(prepared.patches)
        with pytest.raises(DataError, match=rf"^test index {n} out of range"):
            evaluate(net, prepared.patches, np.array([0, n]))
        with pytest.raises(DataError, match=r"^test index -2 out of range"):
            evaluate(net, prepared.patches, [0, -2])


class TestGatherInput:
    """``batch_input`` with ``rows``, the one gather of model input."""

    @pytest.mark.parametrize(
        "src, dst", [(np.float64, np.float32), (np.float32, np.float64), (np.float64, np.float64)]
    )
    @pytest.mark.parametrize("input_shape", [(7, 7, 3), (147,)], ids=["conv", "flat"])
    @pytest.mark.parametrize("chunk_bytes", [None, 4096], ids=["default", "4KiB"])
    def test_matches_gather_then_cast(self, src, dst, input_shape, chunk_bytes, monkeypatch):
        if chunk_bytes is not None:
            # 3 f64 or 6 f32 rows of 7x7x3 per chunk, the last one partial
            monkeypatch.setattr(data_mod, "GATHER_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(8)
        patches = rng.standard_normal((300, 7, 7, 3)).astype(src)
        idx = rng.integers(0, len(patches), 250)  # with repeats
        for rows in (idx, idx[:1], idx[:0]):
            got = batch_input(patches, input_shape, dst, rows)
            want = gather_input_oracle(patches, rows, input_shape, dst)
            assert got.dtype == want.dtype == dst and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dst", [np.float64, np.float32])
    @pytest.mark.parametrize("input_shape", [(3, 3, 4), (36,)], ids=["conv", "flat"])
    def test_reader_rows_match_gather_then_cast(self, dst, input_shape, monkeypatch):
        cube = make_synthetic_cube(4, height=12, width=12, bands=4, block=4)
        reader = data_mod.extract_patches(cube, 3).patches  # f64 windows
        monkeypatch.setattr(data_mod, "GATHER_CHUNK_BYTES", 1000)  # 3 rows per chunk
        idx = np.random.default_rng(6).integers(0, len(reader), 40)  # with repeats
        got = batch_input(reader, input_shape, dst, idx)
        want = gather_input_oracle(np.asarray(reader), idx, input_shape, dst)
        assert got.dtype == want.dtype == dst and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("input_shape", [(7, 7, 3), (147,)], ids=["conv", "flat"])
    def test_array_in_dtype_is_a_view(self, input_shape):
        patches = np.random.default_rng(7).standard_normal((20, 7, 7, 3)).astype(np.float32)
        out = batch_input(patches, input_shape, np.float32)
        assert out.shape == (20, *input_shape) and np.shares_memory(out, patches)
        cast = batch_input(patches, input_shape, np.float64)
        assert cast.dtype == np.float64 and not np.shares_memory(cast, patches)
        np.testing.assert_array_equal(cast, patches.reshape(cast.shape))

    def test_f32_pool_from_f64_patches_peaks_at_one_copy(self):
        patches = np.random.default_rng(9).standard_normal((3000, 7, 7, 15))
        idx = np.arange(len(patches))[::-1].copy()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = batch_input(patches, (7, 7, 15), np.float32, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # gather-then-cast holds the f64 gather beside the f32 result (3x)
        assert peak < 1.25 * out.nbytes

    def test_shape_mismatch_rejected(self):
        patches = np.zeros((4, 3, 3, 2))
        for rows in (np.arange(4), None):
            with pytest.raises(ShapeError):
                batch_input(patches, (3, 3, 5), np.float32, rows)
            with pytest.raises(ShapeError):
                batch_input(patches, (17,), np.float32, rows)


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

    @pytest.mark.parametrize("mode", ["ladder", "sdae-pretrain"])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_window_reader_trains_like_its_array(self, prepared, mode, precision):
        config = small_config(seed=9, iterations=12, mode=mode, precision=precision)
        config = dataclasses.replace(config, pretrain_iterations=4)
        as_array = SimpleNamespace(
            patches=np.asarray(prepared.patches.patches), labels=prepared.patches.labels
        )
        assert isinstance(as_array.patches, np.ndarray) and as_array.patches.dtype == np.float64
        net1, rep1 = train(config, prepared.patches, prepared.split)
        net2, rep2 = train(config, as_array, prepared.split)
        for name in CURVES:
            np.testing.assert_array_equal(getattr(rep1, name), getattr(rep2, name))
        np.testing.assert_array_equal(rep1.confusion, rep2.confusion)
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

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_resume_is_bit_identical_continuation(self, prepared, tmp_path, precision):
        full_cfg = small_config(seed=8, iterations=40, checkpoint_interval=20, precision=precision)
        net_full, rep_full = train(full_cfg, prepared.patches, prepared.split)

        out = tmp_path / "half"
        half_cfg = dataclasses.replace(full_cfg, iterations=20)
        train(half_cfg, prepared.patches, prepared.split, out_dir=out)
        resumed_cfg = dataclasses.replace(full_cfg, checkpoint_interval=0)
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
        [("seed", {"seed": 9}), ("precision", {"precision": "f32"})],
    )
    def test_mismatched_resume_refused(self, prepared, tmp_path, field, change):
        out = tmp_path / "run"
        train(small_config(seed=8, iterations=5), prepared.patches, prepared.split, out_dir=out)
        other = small_config(**{"seed": 8, "iterations": 10, **change})
        # the test's tmp_path holds the field name too, so match the message
        with pytest.raises(ConfigError, match=f"written with {field} ="):
            train(other, prepared.patches, prepared.split, resume=out / "final.ckpt")

    def test_linear_decay_resume_needs_same_iterations(self, prepared, tmp_path):
        # the decay starts at iterations * (1 - LR_DECAY_FRACTION), so another
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

    def test_dropped_settings_refused_by_name(self, tmp_path):
        # a checkpoint from before a setting left TrainConfig still carries
        # it in its config entry; it loads only where the value it held is
        # null, the value that behaves as this build does
        path, net, adam, noise, batch = self._saved_state(tmp_path)
        iteration, entries = ckpt.load_entries(path)
        saved = json.loads(entries["config"].tobytes().decode("utf-8"))

        def resave(**dropped):
            config = np.frombuffer(json.dumps({**saved, **dropped}).encode("utf-8"), np.uint8)
            ckpt.save_entries(path, iteration, {**entries, "config": config})

        resave(adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8, lr_decay_fraction=0.25)
        with pytest.raises(ConfigError, match="written with adam_beta1 = 0.9, this run has"):
            load_checkpoint(path, net, adam, noise, batch, small_config(seed=3))
        resave(grad_clip=0.5)
        with pytest.raises(ConfigError, match="grad_clip = 0.5, this run has grad_clip = None$"):
            load_checkpoint(path, net, adam, noise, batch, small_config(seed=3))
        resave(grad_clip=None)  # as every unclipped run saved it
        assert load_checkpoint(path, net, adam, noise, batch, small_config(seed=3))[0] == iteration

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

    @pytest.mark.parametrize(
        "iteration, entries, why",
        [
            (1, {"x" * 70000: np.ones(2)}, "name is 70000 utf-8 bytes, at most 65535 fit"),
            (-1, {"w": np.ones(2)}, "iteration -1 is outside"),
            (2**64, {"w": np.ones(2)}, "iteration 18446744073709551616 is outside"),
            (1, {"w\ud800": np.ones(2)}, "name is not encodable as utf-8"),
        ],
        ids=["name-70000-bytes", "iteration-negative", "iteration-2**64", "name-lone-surrogate"],
    )
    def test_unwritable_header_refused_before_the_file_opens(self, tmp_path, iteration, entries, why):
        path = tmp_path / "a.ckpt"
        ckpt.save_entries(path, 3, {"w": np.arange(2.0)})
        with pytest.raises(DataError, match=why):
            ckpt.save_entries(path, iteration, entries)
        assert list(tmp_path.iterdir()) == [path]
        assert ckpt.load_entries(path)[0] == 3

    @pytest.mark.parametrize("iteration", [1.7, "3", None, True, np.True_])
    def test_non_integer_iteration_refused_by_name(self, tmp_path, iteration):
        path = tmp_path / "a.ckpt"
        with pytest.raises(ConfigError, match="^iteration must be an integer"):
            ckpt.save_entries(path, iteration, {"w": np.arange(2.0)})
        assert not path.exists()

    def test_repeated_entry_refused_by_name(self, tmp_path):
        path = tmp_path / "a.ckpt"
        ckpt.save_entries(path, 2, {"entry_a": np.arange(2.0), "entry_b": np.ones(3)})
        raw = path.read_bytes()
        assert raw.count(b"entry_b") == 1
        path.write_bytes(raw.replace(b"entry_b", b"entry_a"))
        with pytest.raises(DataError, match="entry 'entry_a' appears twice"):
            ckpt.load_entries(path)

    def test_directory_refused(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            ckpt.load_entries(tmp_path)

    def test_every_truncation_raises_data_error(self, tmp_path):
        path = tmp_path / "a.ckpt"
        ckpt.save_entries(path, 1, {"w": np.ones((2, 2)), "t": np.array([7], dtype=np.uint64)})
        full = path.read_bytes()
        for cut in range(len(full)):
            path.write_bytes(full[:cut])
            with pytest.raises(DataError):
                ckpt.load_entries(path)

    def test_huge_dims_entry_rejected_without_allocating(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        header = ckpt.MAGIC + struct.pack("<IQIH", 2, 0, 1, 1) + b"w"
        path.write_bytes(header + struct.pack("<3IB", 2, 100000, 100000, 2) + bytes(16))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="'w': expected 80000000000 data bytes, got 16"):
                ckpt.load_entries(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 80 GB the header claims is never allocated

    def test_version_1_refused(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        # a version-1 entry: dtype code and u8 ndim before the dims
        entry = struct.pack("<H", 1) + b"w" + struct.pack("<BBI", 2, 1, 1) + bytes(8)
        path.write_bytes(ckpt.MAGIC + struct.pack("<IQI", 1, 0, 1) + entry)
        with pytest.raises(DataError, match="unsupported checkpoint version 1,"):
            ckpt.load_entries(path)

    @pytest.mark.parametrize(
        "corrupt, why",
        [
            (lambda raw: raw.replace(b"\x01\x00w", b"\x01\x00\xff"), "not utf-8"),
            (lambda raw: raw + b"\x00", "trailing bytes"),
        ],
        ids=["name-not-utf8", "trailing-byte"],
    )
    def test_corrupt_file_raises_data_error(self, tmp_path, corrupt, why):
        path = tmp_path / "a.ckpt"
        ckpt.save_entries(path, 1, {"w": np.ones((2, 2))})
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(DataError, match=why):
            ckpt.load_entries(path)

    @pytest.mark.parametrize(
        "key",
        ["param/enc1/W", "running/1/mean", "running/2/init", "adam/v", "adam/t",
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
        "key", ["param/enc1/W", "running/1/var", "adam/m", "rng/noise", "curve/c_super"]
    )
    def test_wrong_shape_entry_named(self, tmp_path, key):
        path, net, adam, noise, batch = self._saved_state(tmp_path)
        iteration, entries = ckpt.load_entries(path)
        entries[key] = entries[key][:-1]
        ckpt.save_entries(path, iteration, entries)
        with pytest.raises(DataError, match=key):
            load_checkpoint(path, net, adam, noise, batch, small_config(seed=3))

    @pytest.mark.parametrize(
        "corrupt, why",
        [
            (lambda e: e.pop("rng/batch"), "checkpoint missing rng/batch$"),
            (
                lambda e: e.update({"param/enc1/gamma": e["param/enc1/gamma"].astype(np.uint8)}),
                r"checkpoint param/enc1/gamma has shape \(16,\) and dtype uint8, model expects \(16,\) and float64",
            ),
            (
                lambda e: e.update({"param/enc9/W": np.ones(3)}),
                "checkpoint has entry param/enc9/W, which this run never saves",
            ),
            (
                lambda e: e["rng/noise"].__setitem__(5, 2**40),
                r"^checkpoint rng/noise: uinteger word is 1099511627776, must be below 2\*\*32$",
            ),
            (
                lambda e: e["rng/batch"].__setitem__(4, 7),
                "^checkpoint rng/batch: has_uint32 word is 7, must be 0 or 1$",
            ),
            (
                # the increment word is odd in every PCG64 state
                lambda e: e["rng/noise"].__setitem__(2, e["rng/noise"][2] - np.uint64(1)),
                r"^checkpoint rng/noise: increment word is \d+, must be odd$",
            ),
        ],
        ids=[
            "missing-last-entry", "u8-parameter", "unknown-entry", "rng-uinteger",
            "rng-has-uint32", "rng-even-increment",
        ],
    )
    def test_refused_resume_changes_nothing(self, tmp_path, corrupt, why):
        path, net, adam, noise, batch = self._saved_state(tmp_path)
        iteration, entries = ckpt.load_entries(path)
        # the file holds a later state than the live objects
        entries["param/enc1/W"] += 1.0
        entries["running/1/var"] += 1.0
        entries["adam/m"] += 1.0
        entries["adam/t"][0] = 9
        corrupt(entries)
        ckpt.save_entries(path, iteration, entries)
        params = {n: p.data.copy() for n, p in net.params.items()}
        running = {
            l: (rs.mean.copy(), rs.var.copy(), rs.initialized) for l, rs in net.running.items()
        }
        moments, t = (adam.flat_m.copy(), adam.flat_v.copy()), adam.t
        states = noise.state_words(), batch.state_words()
        with pytest.raises(DataError, match=why):
            load_checkpoint(path, net, adam, noise, batch, small_config(seed=3))
        for n, p in net.params.items():
            np.testing.assert_array_equal(p.data, params[n])
            assert p.data.dtype == np.float64
        for l, rs in net.running.items():
            mean, var, initialized = running[l]
            np.testing.assert_array_equal(rs.mean, mean)
            np.testing.assert_array_equal(rs.var, var)
            assert rs.initialized == initialized
        np.testing.assert_array_equal(adam.flat_m, moments[0])
        np.testing.assert_array_equal(adam.flat_v, moments[1])
        assert adam.t == t
        np.testing.assert_array_equal(noise.state_words(), states[0])
        np.testing.assert_array_equal(batch.state_words(), states[1])

    def test_even_increment_refused_before_any_assignment(self):
        rng = Rng(3)
        before = rng.state_words()
        words = before.copy()
        words[2] -= np.uint64(1)
        with pytest.raises(DataError, match=r"^PCG64 state: increment word is \d+, must be odd$"):
            rng.set_state_words(words)
        np.testing.assert_array_equal(rng.state_words(), before)
        np.testing.assert_array_equal(rng.gen.integers(0, 10, 3), Rng(3).gen.integers(0, 10, 3))

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

    def test_report_echoes_every_checkpoint_setting_as_json(self, prepared, tmp_path):
        out = tmp_path / "run"
        config = small_config(seed=9, iterations=5, lr_decay="linear")
        train(config, prepared.patches, prepared.split, out_dir=out)
        echoed = {}
        for line in (out / "report.txt").read_text().splitlines():
            if line.startswith("config."):
                key, value = line[len("config."):].split(" = ", 1)
                echoed[key] = json.loads(value)
        _, entries = ckpt.load_entries(out / "final.ckpt")
        saved = json.loads(entries["config"].tobytes().decode("utf-8"))
        assert echoed == saved
        assert echoed["ladder.noise_std"] == 0.5 and echoed["iterations"] == 5
        assert echoed["ladder.lambdas"] == [0.1, 0.1, 0.1, 0.1]

    def test_load_writes_into_the_live_arrays(self, tmp_path):
        path, net, adam, noise, batch = self._saved_state(tmp_path)
        iteration, entries = ckpt.load_entries(path)
        for key, value in entries.items():  # a later state than the live objects
            if key.startswith(("param/", "adam/m", "adam/v")) or key.endswith(("/mean", "/var")):
                entries[key] = value + 1.0
        entries["running/1/init"][0] = 1
        entries["adam/t"][0] = 4
        ckpt.save_entries(path, iteration, entries)
        arrays = [p.data for p in net.params.values()]
        arrays += [a for rs in net.running.values() for a in (rs.mean, rs.var)]
        arrays += [adam.flat_m, adam.flat_v]
        load_checkpoint(path, net, adam, noise, batch, small_config(seed=3))
        live = [p.data for p in net.params.values()]
        live += [a for rs in net.running.values() for a in (rs.mean, rs.var)]
        live += [adam.flat_m, adam.flat_v]
        assert all(a is b for a, b in zip(arrays, live))
        for name, p in net.params.items():
            np.testing.assert_array_equal(p.data, entries[f"param/{name}"])
        for l, rs in net.running.items():
            np.testing.assert_array_equal(rs.mean, entries[f"running/{l}/mean"])
            np.testing.assert_array_equal(rs.var, entries[f"running/{l}/var"])
            assert rs.initialized == bool(entries[f"running/{l}/init"][0])
        np.testing.assert_array_equal(adam.flat_m, entries["adam/m"])
        np.testing.assert_array_equal(adam.flat_v, entries["adam/v"])
        assert adam.t == 4 and net.running[1].initialized
        np.testing.assert_array_equal(noise.state_words(), entries["rng/noise"])
        np.testing.assert_array_equal(batch.state_words(), entries["rng/batch"])

    def test_conv_resume_is_bit_identical_continuation(self, tmp_path):
        cube = make_synthetic_cube(12, height=16, width=16, bands=6, classes=3, block=4)
        data = prepare_dataset(cube, window=5, pca_components=3, n_per_class=5, seed=12)
        layers = (
            LayerSpec("conv3x3", 4),
            LayerSpec("fc", 6),
            LayerSpec("softmax_head", 3, activation="none"),
        )
        spec = LadderSpec(layers, 0.3, (0.1,) * 4, (5, 5, 3))
        full = TrainConfig(spec, learning_rate=0.01, iterations=12, seed=12, batch_size=8, precision="f32")
        net_full, rep_full = train(full, data.patches, data.split)
        out = tmp_path / "half"
        train(dataclasses.replace(full, iterations=6), data.patches, data.split, out_dir=out)
        net_res, rep_res = train(full, data.patches, data.split, resume=out / "final.ckpt")
        for name in CURVES:
            np.testing.assert_array_equal(getattr(rep_full, name), getattr(rep_res, name))
        for name in net_full.params:
            np.testing.assert_array_equal(net_full.params[name].data, net_res.params[name].data)
        for l, rs in net_full.running.items():
            np.testing.assert_array_equal(rs.mean, net_res.running[l].mean)
            np.testing.assert_array_equal(rs.var, net_res.running[l].var)
        np.testing.assert_array_equal(rep_full.confusion, rep_res.confusion)


class TestDivergence:
    def test_blown_up_weights_abort(self, prepared):
        config = small_config(seed=10, iterations=5, learning_rate=1e30)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            train(config, prepared.patches, prepared.split)

    @pytest.mark.parametrize("mode", ["ladder", "supervised-only"])
    def test_overflowed_running_statistics_stop_before_any_checkpoint(
        self, prepared, tmp_path, mode
    ):
        # with an f32 enc1/W of 1e20 the loss stays finite, but level 1's
        # running variance overflows to inf
        layers = (LayerSpec("fc", 8), LayerSpec("softmax_head", 3, "none"))
        spec = LadderSpec(layers, 0.5, (0.1,) * 3, (8,))
        config = TrainConfig(
            ladder=spec, learning_rate=0.01, iterations=4, seed=3, batch_size=16, mode=mode,
            precision="f32",
        )
        train(config, prepared.patches, prepared.split, out_dir=tmp_path / "a")
        iteration, entries = ckpt.load_entries(tmp_path / "a" / "final.ckpt")
        entries["param/enc1/W"] = np.full_like(entries["param/enc1/W"], 1e20)
        ckpt.save_entries(tmp_path / "blown.ckpt", iteration, entries)
        longer = dataclasses.replace(config, iterations=16, checkpoint_interval=4)
        out = tmp_path / "b"
        why = "^running statistics of level 1 became non-finite at iteration 4$"
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=why):
            train(
                longer, prepared.patches, prepared.split, out_dir=out,
                resume=tmp_path / "blown.ckpt",
            )
        assert list(out.iterdir()) == []

    def test_non_finite_loss_names_the_loss_and_the_last_checkpoint(
        self, prepared, tmp_path, monkeypatch
    ):
        config = small_config(seed=10, iterations=6, checkpoint_interval=2)
        calls = []
        training_loss = LadderNetwork.training_loss

        def poisoned(self, *args, **kwargs):
            c_total, *rest = training_loss(self, *args, **kwargs)
            calls.append(None)
            if len(calls) == 4:
                c_total = Tensor(np.array(np.nan))
            return (c_total, *rest)

        monkeypatch.setattr(LadderNetwork, "training_loss", poisoned)
        out = tmp_path / "run"
        why = "^loss became non-finite at iteration 3; last checkpoint retained at .*last.ckpt$"
        with pytest.raises(DivergenceError, match=why):
            train(config, prepared.patches, prepared.split, out_dir=out)
        assert ckpt.load_entries(out / "last.ckpt")[0] == 2


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

    @staticmethod
    def _conv_net_and_config(dtype):
        layers = (
            LayerSpec("conv3x3", 4),
            LayerSpec("conv3x3", 3),
            LayerSpec("fc", 6),
            LayerSpec("softmax_head", 3, activation="none"),
        )
        spec = LadderSpec(layers, 0.3, (0.1,) * 5, (5, 5, 3))
        config = TrainConfig(
            ladder=spec, learning_rate=0.01, iterations=1, seed=14, batch_size=8,
            mode="sdae-pretrain", precision="f64" if dtype == np.float64 else "f32",
            pretrain_iterations=4,
        )
        return LadderNetwork(spec, Rng(14), dtype=dtype), config

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_conv_pretraining_moves_only_the_stack_weights(self, dtype):
        unlabeled = np.random.default_rng(15).standard_normal((40, 5, 5, 3)).astype(dtype)
        runs = []
        for _ in range(2):
            net, config = self._conv_net_and_config(dtype)
            train_mod._sdae_pretrain(net, config, unlabeled, np.arange(len(unlabeled)), Rng(16))
            runs.append(net)
        fresh, _ = self._conv_net_and_config(dtype)
        net = runs[0]
        moved = {"enc1/W", "enc2/W", "enc3/W"}
        for name, p in net.params.items():
            np.testing.assert_array_equal(p.data, runs[1].params[name].data)
            assert p.data.dtype == dtype
            if name in moved:
                assert not np.array_equal(p.data, fresh.params[name].data), name
                assert np.all(np.isfinite(p.data)), name
            else:  # the head W, every dec V, gamma, beta and comb param
                np.testing.assert_array_equal(p.data, fresh.params[name].data)
        for l, rs in net.running.items():
            np.testing.assert_array_equal(rs.mean, fresh.running[l].mean)
            np.testing.assert_array_equal(rs.var, fresh.running[l].var)

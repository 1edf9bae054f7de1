"""Ladder model: collapse identities, combinator oracle, shapes, costs, backward."""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hsiladder import (
    ConfigError,
    GradTape,
    GraphError,
    LadderNetwork,
    LadderSpec,
    LayerSpec,
    Rng,
    ShapeError,
    Tensor,
)
from hsiladder import kernels, ops
from hsiladder import ladder as ladder_mod
from hsiladder.kernels import conv2d_forward
from hsiladder.data import WindowReader, extract_patches
from hsiladder.ladder import COMBINATOR_PARAM_NAMES, combinator_g
from hsiladder.synthetic import make_synthetic_cube
from hsiladder.tensor import active_tape, untaped
from hsiladder.train import Adam, batch_input

from helpers import (
    clean_pass_oracle,
    conv2d_oracle,
    fd_gradcheck,
    matmul_oracle,
    paper_conv_spec,
    reference_backward,
)


def fc_spec(widths, classes, bands, noise=0.3, lambdas=None):
    layers = [LayerSpec("fc", w) for w in widths] + [
        LayerSpec("softmax_head", classes, activation="none")
    ]
    if lambdas is None:
        lambdas = [0.1] * (len(layers) + 1)
    return LadderSpec(tuple(layers), noise, tuple(lambdas), (bands,))


def comb_params(feat, **overrides):
    base = dict(a1=0.0, a2=1.0, a3=0.0, a4=0.0, a5=0.0, a6=0.0, a7=1.0, a8=0.0, a9=0.0, a10=1.0)
    base.update(overrides)
    return {k: Tensor(np.full(feat, v)) for k, v in base.items()}


class TestSpecValidation:
    def test_lambda_length_checked(self):
        with pytest.raises(ConfigError):
            LadderSpec((LayerSpec("softmax_head", 3),), 0.3, (1.0,), (4,))

    def test_head_must_be_last(self):
        with pytest.raises(ConfigError):
            LadderSpec((LayerSpec("fc", 3),), 0.3, (0.0, 0.0), (4,))

    def test_conv_on_flat_input_rejected(self):
        with pytest.raises(ConfigError, match="conv3x3 needs a spatial input"):
            LadderSpec(
                (LayerSpec("conv3x3", 4), LayerSpec("softmax_head", 2)),
                0.3,
                (0, 0, 0),
                (7,),
            )

    def test_kernel_larger_than_window_rejected(self):
        with pytest.raises(ConfigError, match="3x3 kernel larger than input 2x2"):
            LadderSpec(
                (LayerSpec("conv3x3", 4), LayerSpec("softmax_head", 2)),
                0.3,
                (0, 0, 0),
                (2, 2, 3),
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_std", float("nan")),
            ("noise_std", float("inf")),
            ("noise_std", "0.3"),
            ("lambdas", (0.1, float("nan"), 0.1)),
            ("lambdas", (0.1, float("inf"), 0.1)),
            ("lambdas", ("a", 0.1, 0.1)),
            ("input_shape", (0,)),
            ("input_shape", (-2,)),
            ("input_shape", (7, 7, 0)),
            ("noise_std", True),
            ("lambdas", (0.1, True, 0.1)),
            ("input_shape", (True,)),
        ],
        ids=[
            "noise-nan",
            "noise-inf",
            "noise-str",
            "lambda-nan",
            "lambda-inf",
            "lambda-str",
            "zero",
            "negative",
            "no-bands",
            "noise-bool",
            "lambda-bool",
            "bool",
        ],
    )
    def test_bad_value_rejected_by_name(self, field, value):
        args = dict(
            layers=(LayerSpec("fc", 4), LayerSpec("softmax_head", 2)),
            noise_std=0.3,
            lambdas=(0.1, 0.1, 0.1),
            input_shape=(5,),
        )
        args[field] = value
        with pytest.raises(ConfigError, match=field):
            LadderSpec(**args)

    @pytest.mark.parametrize(
        "input_shape",
        [(4.7,), (5.0,), (7, 7.5, 3), (np.float64(5),), (np.True_,)],
        ids=["fc", "float", "conv", "numpy", "numpy-bool"],
    )
    def test_non_integer_input_shape_rejected_by_name(self, input_shape):
        with pytest.raises(ConfigError, match="input_shape must be an integer"):
            LadderSpec((LayerSpec("softmax_head", 2),), 0.3, (0.1, 0.1), input_shape)

    @pytest.mark.parametrize(
        "width", [2.5, 3.0, np.float32(4), True], ids=["fraction", "float", "numpy", "bool"]
    )
    def test_non_integer_layer_width_rejected_by_name(self, width):
        with pytest.raises(ConfigError, match="width must be an integer"):
            LayerSpec("fc", width)

    def test_numpy_reals_become_python_floats(self):
        spec = LadderSpec(
            (LayerSpec("fc", 4), LayerSpec("softmax_head", 2)),
            np.float32(0.25),
            (np.float64(0.5), np.int64(1), 0.1),
            (5,),
        )
        assert (spec.noise_std, spec.lambdas) == (0.25, (0.5, 1.0, 0.1))
        assert {type(v) for v in (spec.noise_std, *spec.lambdas)} == {float}

    def test_numpy_integer_sizes_become_python_ints(self):
        spec = LadderSpec(
            (LayerSpec("fc", np.int64(4)), LayerSpec("softmax_head", np.int32(2))),
            0.3,
            (0.1, 0.1, 0.1),
            (np.uint16(5),),
        )
        assert spec.input_shape == (5,) and type(spec.input_shape[0]) is int
        assert [type(layer.width) for layer in spec.layers] == [int, int]

    @pytest.mark.parametrize("dtype", [np.int64, np.float16])
    def test_only_float32_and_float64_networks(self, dtype):
        with pytest.raises(ConfigError, match="dtype"):
            LadderNetwork(fc_spec([4], classes=3, bands=5), Rng(0), dtype=dtype)


class TestEncoderShapes:
    def test_fc_paper_architecture_level_shapes(self):
        spec = fc_spec([300, 200, 100, 100], classes=9, bands=103)
        net = LadderNetwork(spec, Rng(0))
        x = Tensor(Rng(1).normal(1.0, (100, 103)))
        z_tilde, _, _ = net.corrupted_encoder(x, Rng(2))
        shapes = [z.data.shape for z in z_tilde]
        assert shapes == [
            (100, 103),
            (100, 300),
            (100, 200),
            (100, 100),
            (100, 100),
            (100, 9),
        ]

    def test_conv_architecture_level_shapes(self):
        net = LadderNetwork(paper_conv_spec(), Rng(0))
        x = Tensor(Rng(1).normal(1.0, (4, 7, 7, 15)))
        z, _ = net.clean_encoder(x)
        shapes = [t.data.shape for t in z]
        assert shapes == [
            (4, 7, 7, 15),
            (4, 5, 5, 90),
            (4, 3, 3, 30),
            (4, 1, 1, 15),
            (4, 30),
            (4, 9),
        ]

    def test_single_layer_identity_weight_batchnorm(self):
        spec = LadderSpec(
            (LayerSpec("softmax_head", 1, activation="none"),), 0.0, (0.0, 0.0), (1,)
        )
        net = LadderNetwork(spec, Rng(0))
        net.params["enc1/W"].data[:] = np.eye(1)
        x = Tensor(np.array([[1.0], [3.0]]))
        z_tilde, _, _ = net.corrupted_encoder(x, Rng(1))
        np.testing.assert_allclose(z_tilde[1].data[:, 0], [-1.0, 1.0], atol=1e-5)

    def test_input_shape_mismatch(self):
        spec = fc_spec([5], classes=3, bands=4)
        net = LadderNetwork(spec, Rng(0))
        with pytest.raises(ShapeError):
            net.clean_encoder(Tensor(np.zeros((6, 7))))


class TestLayerMaps:
    def test_weight_shapes(self):
        net = LadderNetwork(paper_conv_spec(), Rng(0))
        shapes = [net.weight_shape(l) for l in range(1, 6)]
        assert shapes == [(3, 3, 15, 90), (3, 3, 90, 30), (3, 3, 30, 15), (15, 30), (30, 9)]
        for l, shape in enumerate(shapes, start=1):
            assert net.params[f"enc{l}/W"].data.shape == shape
            assert net.params[f"dec{l}/V"].data.shape == ladder_mod.transposed(shape)

    def test_he_weight_std_from_fan_in(self):
        w = ladder_mod.he_weight(Rng(2), (3, 3, 4, 5), np.float32)
        np.testing.assert_array_equal(w, Rng(2).normal(np.sqrt(2.0 / 36), (3, 3, 4, 5), np.float32))
        wide = ladder_mod.he_weight(Rng(3), (200, 500), np.float64)
        assert abs(wide.std() / np.sqrt(2.0 / 200) - 1.0) < 0.02

    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_transpose_is_the_adjoint_of_the_map(self, arch):
        # <map(x), y> = <x, transpose(y, W^T)>, level by level; the dense
        # layer over the conv stack's 1x1x15 output must come back spatial
        spec = paper_conv_spec() if arch == "conv" else fc_spec([6, 5], classes=3, bands=4)
        net = LadderNetwork(spec, Rng(0))
        rng = np.random.default_rng(1)
        shapes = net.level_shapes
        for l, (below, above) in enumerate(zip(shapes, shapes[1:]), start=1):
            x = rng.standard_normal((3, *below))
            y = rng.standard_normal((3, *above))
            v = Tensor(np.swapaxes(net.params[f"enc{l}/W"].data, -1, -2))
            mapped = net.layer_map(l, Tensor(x)).data
            back = net.layer_transpose(l, Tensor(y), v).data
            assert mapped.shape == y.shape and back.shape == x.shape
            np.testing.assert_allclose(np.vdot(mapped, y), np.vdot(x, back), rtol=1e-12)


class TestZeroNoiseCollapse:
    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_corrupted_equals_clean(self, arch):
        if arch == "fc":
            spec = fc_spec([8, 6], classes=3, bands=5, noise=0.0)
            x = Tensor(Rng(1).normal(1.0, (7, 5)))
        else:
            spec = LadderSpec(
                (
                    LayerSpec("conv3x3", 4),
                    LayerSpec("fc", 6),
                    LayerSpec("softmax_head", 3, activation="none"),
                ),
                0.0,
                (0.1, 0.1, 0.1, 0.1),
                (5, 5, 2),
            )
            x = Tensor(Rng(1).normal(1.0, (6, 5, 5, 2)))
        net = LadderNetwork(spec, Rng(0))
        z_tilde, _, _ = net.corrupted_encoder(x, Rng(2))
        z_clean, _ = net.clean_encoder(x)
        for zt, zc in zip(z_tilde, z_clean):
            assert np.abs(zt.data - zc.data).max() < 1e-12


def tiny_net(arch, dtype=np.float64, normalize_targets=True):
    """A small FC or conv ladder with nonzero gammas/betas, and a batch for it."""
    if arch == "fc":
        spec = fc_spec([6, 4], classes=3, bands=5)
        x = Rng(1).normal(1.0, (7, 5))
    else:
        spec = LadderSpec(
            (
                LayerSpec("conv3x3", 4),
                LayerSpec("fc", 5, activation="none"),
                LayerSpec("softmax_head", 3, activation="none"),
            ),
            0.3,
            (0.1, 0.1, 0.1, 0.1),
            (5, 4, 2),
        )
        x = Rng(1).normal(1.0, (6, 5, 4, 2))
    spec = dataclasses.replace(spec, normalize_targets=normalize_targets)
    net = LadderNetwork(spec, Rng(0), dtype=dtype)
    rng = np.random.default_rng(3)
    for l in range(1, len(spec.layers) + 1):
        for name, base in (("gamma", 1.0), ("beta", 0.0)):
            p = net.params[f"enc{l}/{name}"]
            p.data = (base + 0.5 * rng.standard_normal(p.data.shape)).astype(dtype)
    return net, x


def predict_oracle(net, x):
    """Clean encoder by running statistics, from the loop oracles:
    gamma * ((Wx - mean) / sqrt(var + eps) + beta), relu, log-softmax."""
    h = np.asarray(x, dtype=np.float64)
    for l, layer in enumerate(net.spec.layers, start=1):
        w = net.params[f"enc{l}/W"].data.astype(np.float64)
        if layer.kind == "conv3x3":
            z = conv2d_oracle(h, w)
        else:
            z = matmul_oracle(h.reshape(len(h), -1), w)
        rs = net.running[l]
        z = (z - rs.mean) / np.sqrt(rs.var + ops.BN_EPS)
        z = net.params[f"enc{l}/gamma"].data * (z + net.params[f"enc{l}/beta"].data)
        if layer.kind == "softmax_head":
            z = z - z.max(axis=1, keepdims=True)
            return z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z


def clean_stats_oracle(net, x):
    """Per-level batch mean and variance of the clean pass's pre-activations,
    from the loop oracles: Wx, then gamma * ((z - mean) / sqrt(var + eps) +
    beta) and relu up the stack."""
    h = np.asarray(x, dtype=np.float64)
    stats = []
    for l, layer in enumerate(net.spec.layers, start=1):
        w = net.params[f"enc{l}/W"].data
        if layer.kind == "conv3x3":
            z = conv2d_oracle(h, w)
        else:
            z = matmul_oracle(h.reshape(len(h), -1), w)
        axes = tuple(range(z.ndim - 1))
        mean, var = z.mean(axis=axes), z.var(axis=axes)
        stats.append((mean, var))
        z = (z - mean) / np.sqrt(var + ops.BN_EPS)
        z = net.params[f"enc{l}/gamma"].data * (z + net.params[f"enc{l}/beta"].data)
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return stats


class TestRunningStats:
    """Prediction normalizes by these averages (TestEvalMode)."""

    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_clean_pass_folds_the_batch_statistics(self, arch):
        net, x = tiny_net(arch)
        x2 = x[::-1] * 0.5 + 0.2
        first, second = clean_stats_oracle(net, x), clean_stats_oracle(net, x2)
        net.clean_encoder(Tensor(x))
        # the first batch seeds the averages
        for l, (mean, var) in enumerate(first, start=1):
            assert net.running[l].initialized
            np.testing.assert_allclose(net.running[l].mean, mean, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(net.running[l].var, var, rtol=1e-10)
        net.clean_encoder(Tensor(x2))
        for l, ((m1, v1), (m2, v2)) in enumerate(zip(first, second), start=1):
            rs = net.running[l]
            np.testing.assert_allclose(rs.mean, 0.99 * m1 + 0.01 * m2, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(rs.var, 0.99 * v1 + 0.01 * v2, rtol=1e-10)

    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_corrupted_pass_leaves_them_alone(self, arch):
        net, x = tiny_net(arch)
        net.clean_encoder(Tensor(x))
        assert all(rs.initialized for rs in net.running.values())
        before = {l: (rs.mean.copy(), rs.var.copy()) for l, rs in net.running.items()}
        net.corrupted_encoder(Tensor(x[::-1] * 0.5 + 0.2), Rng(4))
        for l, (mean, var) in before.items():
            np.testing.assert_array_equal(net.running[l].mean, mean)
            np.testing.assert_array_equal(net.running[l].var, var)


# the two ways a training step runs without a decoder; both tiny_net specs
# have four levels
NO_DECODER = {
    "supervised-only": dict(use_decoder=False),
    "every-lambda-zero": dict(lambdas=(0.0, 0.0, 0.0, 0.0)),
}
TARGETS = np.array([0, 1, 2])


def tape_names(tape):
    return [node.name for node in tape.nodes]


class TestCleanPassOffTape:
    """A step without a decoder folds the clean batch statistics off the
    tape; the running statistics stay those of the on-tape clean pass."""

    @pytest.mark.parametrize("case", sorted(NO_DECODER))
    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_tape_holds_only_the_corrupted_pass_and_the_cost(self, arch, case):
        net, x = tiny_net(arch)
        twin = copy.deepcopy(net)
        with GradTape() as expected:
            _, _, y = twin.corrupted_encoder(Tensor(x), Rng(2))
            c_super = twin.supervised_cost(ops.slice_rows(y, 3), TARGETS)
            ops.add(Tensor(np.asarray(0.0)), c_super)
        with GradTape() as tape:
            net.training_loss(x, 3, TARGETS, Rng(2), **NO_DECODER[case])
        assert tape_names(tape) == tape_names(expected)
        assert not {"reduce_mean", "square", "sqrt"} & set(tape_names(tape))

    @pytest.mark.parametrize("case", sorted(NO_DECODER))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_running_stats_bit_equal_the_on_tape_clean_pass(self, arch, dtype, case):
        net, x = tiny_net(arch, dtype=dtype)
        adam = Adam(net.params, 0.05)
        # the first step seeds the averages, the second takes a momentum step
        for step, batch in enumerate((x, x[::-1] * 0.5 + 0.2)):
            batch = batch.astype(dtype)
            expected = clean_pass_oracle(net, batch)
            net.zero_grads()
            with GradTape() as tape:
                c_total, _, _, _ = net.training_loss(
                    batch, 3, TARGETS, Rng(step), **NO_DECODER[case]
                )
            assert "reduce_mean" not in tape_names(tape)
            tape.backward(c_total)
            adam.step()
            for l, rs in net.running.items():
                assert rs.initialized
                for got, want in ((rs.mean, expected[l].mean), (rs.var, expected[l].var)):
                    assert got.dtype == want.dtype == dtype
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_ladder_mode_keeps_its_clean_pass_on_the_tape(self, arch):
        # every lambda of tiny_net is > 0: the clean z levels are targets
        net, x = tiny_net(arch)
        twin = copy.deepcopy(net)
        with GradTape() as expected:
            xt = Tensor(x)
            z_tilde, h_top, y = twin.corrupted_encoder(xt, Rng(2))
            z_clean, _ = twin.clean_encoder(xt)
            c_super = twin.supervised_cost(ops.slice_rows(y, 3), TARGETS)
            z_hat = twin.decoder(z_tilde, h_top)
            ops.add(twin.reconstruction_cost(z_clean, z_hat), c_super)
        with GradTape() as tape:
            net.training_loss(x, 3, TARGETS, Rng(2))
        assert tape_names(tape) == tape_names(expected)
        assert "reduce_mean" in tape_names(tape)

    def test_batch_of_one_rejected_before_any_fold(self):
        net, x = tiny_net("fc")
        with GradTape() as tape:
            with pytest.raises(ShapeError, match="at least 2"), untaped():
                net.clean_encoder(Tensor(x[:1]))
            # the failed block gives the enclosing tape back
            assert active_tape() is tape
        assert not tape.nodes
        assert not any(rs.initialized for rs in net.running.values())


class TestTargetStatistics:
    """The cost records the batch statistics of a clean level only where it
    standardizes a decoded level by them: above the input, at a positive
    multiplier, under ``normalize_targets``."""

    @pytest.mark.parametrize(
        "lambdas, normalize, levels",
        [
            ((0.1, 0.1, 0.1, 0.1), True, 3),
            ((0.0, 0.0, 0.0, 1.0), True, 1),
            ((1.0, 0.0, 0.0, 0.0), True, 0),
            ((0.1, 0.1, 0.1, 0.1), False, 0),
        ],
        ids=["every-level", "top-only", "input-only", "raw-targets"],
    )
    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_statistics_nodes_only_where_the_cost_reads_them(self, arch, lambdas, normalize, levels):
        net, x = tiny_net(arch, normalize_targets=normalize)
        with GradTape() as tape:
            net.training_loss(x, 3, TARGETS, Rng(2), lambdas=lambdas)
        names = tape_names(tape)
        assert names.count("reduce_mean") == 2 * levels
        assert names.count("sqrt") == levels

    @pytest.mark.parametrize("level", [1, 3])
    def test_decoded_level_standardized_by_its_clean_level(self, level):
        # level 1 of the conv net is spatial: statistics over (n, h, w)
        net, x = tiny_net("conv")
        xt = Tensor(x)
        z_tilde, h_top, _ = net.corrupted_encoder(xt, Rng(2))
        z_clean, _ = net.clean_encoder(xt)
        z_hat = net.decoder(z_tilde, h_top, min_level=level)
        lambdas = [0.0] * 4
        lambdas[level] = 2.0
        cost = net.reconstruction_cost(z_clean, z_hat, lambdas=lambdas)
        z, zh = z_clean[level].data, z_hat[level].data
        axes = tuple(range(z.ndim - 1))
        zh = (zh - z.mean(axis=axes)) / np.sqrt(z.var(axis=axes) + ops.BN_EPS)
        np.testing.assert_allclose(cost.item(), 2.0 * ((zh - z) ** 2).sum() / z.size, rtol=1e-12)


class TestEvalMode:
    def test_batch_of_one_valid_distribution(self):
        spec = fc_spec([6], classes=4, bands=5)
        net = LadderNetwork(spec, Rng(0))
        # one training pass to populate running statistics
        x = Rng(1).normal(1.0, (12, 5))
        net.clean_encoder(Tensor(x))
        y_logp = net.predict_log_probs(x[:1])
        assert y_logp.shape == (1, 4)
        total = np.exp(y_logp).sum()
        assert abs(total - 1.0) < 1e-9

    def test_prediction_deterministic_and_shift_invariant(self):
        spec = fc_spec([6], classes=4, bands=5)
        net = LadderNetwork(spec, Rng(0))
        x = Rng(1).normal(1.0, (12, 5))
        net.clean_encoder(Tensor(x))
        p1 = net.predict(x)
        p2 = net.predict(x)
        np.testing.assert_array_equal(p1, p2)
        logits = np.array([[0.1, 3.0, -1.0, 0.4]])
        assert np.argmax(logits) == np.argmax(logits + 11.7) == 1

    def test_nan_parameters_rejected(self):
        spec = fc_spec([6], classes=4, bands=5)
        net = LadderNetwork(spec, Rng(0))
        net.params["enc1/W"].data[0, 0] = np.nan
        from hsiladder import GraphError

        with pytest.raises(GraphError):
            net.predict(np.zeros((2, 5)))

    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_predict_matches_oracle(self, arch):
        net, x = tiny_net(arch)
        # two passes, so the running averages differ from any one batch
        net.clean_encoder(Tensor(x))
        net.clean_encoder(Tensor(x[::-1] * 0.5 + 0.2))
        for sample in (x, x[:1]):
            np.testing.assert_allclose(
                net.predict_log_probs(sample), predict_oracle(net, sample), rtol=1e-12, atol=0
            )

    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_chunk_sizes_agree(self, arch, monkeypatch):
        net, x = tiny_net(arch)
        net.clean_encoder(Tensor(x))
        net32, _ = tiny_net(arch, dtype=np.float32)
        net32.clean_encoder(Tensor(x, dtype=np.float32))
        # values in the widest per-sample intermediate: the conv level's
        # im2col row (3x2 positions of 3x3x2 windows) or the 6-unit fc level
        widest = 3 * 2 * 3 * 3 * 2 if arch == "conv" else 6
        # the default budget holds the whole tiny batch in one chunk
        whole = net.predict_log_probs(x)
        got, got32, predicted = [], [net32.predict_log_probs(x)], []
        for rows in (1, 3):
            monkeypatch.setattr(ladder_mod, "PREDICT_CHUNK_BYTES", rows * widest * 8)
            got.append(net.predict_log_probs(x))
            predicted.append(net.predict(x))
            monkeypatch.setattr(ladder_mod, "PREDICT_CHUNK_BYTES", rows * widest * 4)
            got32.append(net32.predict_log_probs(x))
        # a 1-byte budget falls to one row
        monkeypatch.setattr(ladder_mod, "PREDICT_CHUNK_BYTES", 1)
        got.append(net.predict_log_probs(x))
        predicted.append(net.predict(x))
        for log_probs in got:
            # BLAS may round a one-row product differently from a many-row one
            np.testing.assert_allclose(log_probs, whole, rtol=1e-12, atol=1e-14)
        for labels in predicted:
            np.testing.assert_array_equal(labels, np.argmax(whole, axis=1))
        want = predict_oracle(net32, x)
        for log_probs in got32:
            assert log_probs.dtype == np.float32
            # f32 rounding (eps 1.2e-7) accumulated over a few layers
            np.testing.assert_allclose(log_probs, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize(
        "arch, dtype, per_chunk",
        [
            ("paper", np.float64, 143),
            ("paper", np.float32, 287),
            ("wide-output", np.float64, 466),
            ("wide-output", np.float32, 932),
        ],
    )
    def test_default_chunk_sized_by_bytes(self, arch, dtype, per_chunk, monkeypatch):
        if arch == "paper":
            spec = paper_conv_spec()
            # conv2's im2col row: 3x3 windows of 3x3x90 values
            widest = 3 * 3 * 3 * 3 * 90
        else:
            # a conv wider than its im2col row (90 > 3x3x2): its 5x5x90 output row
            spec = LadderSpec(
                (LayerSpec("conv3x3", 90), LayerSpec("softmax_head", 3, activation="none")),
                0.3,
                (1.0, 0.1, 0.1),
                (7, 7, 2),
            )
            widest = 5 * 5 * 90
        net = LadderNetwork(spec, Rng(0), dtype=dtype)
        x = np.zeros((1000, *spec.input_shape), dtype=dtype)
        rows = []

        def spy(h, w):
            if h.shape[1:] == spec.input_shape:
                rows.append(len(h))
            return conv2d_forward(h, w)

        monkeypatch.setattr(kernels, "conv2d_forward", spy)
        net.predict_log_probs(x)
        assert per_chunk == ladder_mod.PREDICT_CHUNK_BYTES // (widest * x.itemsize)
        assert rows == [min(per_chunk, len(x) - i) for i in range(0, len(x), per_chunk)]

    def test_default_chunk_bounds_prediction_memory(self):
        net = LadderNetwork(paper_conv_spec(), Rng(0))
        x = Rng(1).normal(1.0, (2048, 7, 7, 15))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = net.predict_log_probs(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (2048, 9)
        # ~11 MiB with 143-row chunks; 512-row chunks took ~38 MiB
        assert peak < 16 << 20

    @staticmethod
    def window_net(dtype, bands=3, conv=4, side=11):
        """A conv ladder over 5x5 windows of ``bands`` values, and a
        :class:`WindowReader` over every pixel of a random ``side`` x
        ``side`` scene."""
        rng = np.random.default_rng(8)
        padded = rng.standard_normal((side + 4, side + 4, bands))
        pixels = np.arange(side * side)
        reader = WindowReader(padded, pixels // side, pixels % side, 5)
        spec = LadderSpec(
            (LayerSpec("conv3x3", conv), LayerSpec("fc", 5), LayerSpec("softmax_head", 3, "none")),
            0.3,
            (0.1, 0.1, 0.1, 0.1),
            (5, 5, bands),
        )
        return LadderNetwork(spec, Rng(0), dtype=dtype), reader

    @pytest.mark.parametrize(
        "source", [None, np.float64, np.float32], ids=["reader", "array-f64", "array-f32"]
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_rows_predict_as_their_gathered_batch(self, source, dtype, monkeypatch):
        net, reader = self.window_net(dtype)
        net.clean_encoder(Tensor(np.asarray(reader, dtype)))
        x = reader if source is None else np.asarray(reader, source)
        # 3-row chunks: the conv's im2col rows of 3x3 windows of 3x3x3 values
        monkeypatch.setattr(ladder_mod, "PREDICT_CHUNK_BYTES", 3 * 243 * net.dtype.itemsize)
        assert net.predict_chunk_rows() == 3
        shape = net.spec.input_shape
        picks = (
            np.array([5, 5, 0, 120, -1, 17, 5, 2]),  # repeated and negative
            np.arange(121)[::-7],
            np.arange(121) % 7 == 2,  # a boolean mask
            np.array([], dtype=np.int64),
        )
        for rows in picks:
            want = net.predict_log_probs(batch_input(x[rows], shape, dtype))
            got = net.predict_log_probs(x, rows)
            assert got.dtype == dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(net.predict(x, rows), np.argmax(want, axis=1))
        want = net.predict_log_probs(batch_input(x, shape, dtype))
        np.testing.assert_array_equal(net.predict_log_probs(x), want)
        with pytest.raises(IndexError):
            net.predict_log_probs(x, [0, 121])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_a_selection_predicts_as_its_rows(self, dtype, monkeypatch):
        net, reader = self.window_net(dtype)
        net.clean_encoder(Tensor(np.asarray(reader, dtype)))
        monkeypatch.setattr(ladder_mod, "PREDICT_CHUNK_BYTES", 3 * 243 * net.dtype.itemsize)
        shape = net.spec.input_shape
        for rows in (np.array([5, 5, 0, 120, -1, 17, 5, 2]), np.arange(121) % 7 == 2):
            sel = reader[rows]
            assert isinstance(sel, WindowReader)
            x = batch_input(sel, shape, dtype)
            assert x.dtype == dtype
            ints = np.arange(len(reader))[rows]  # ``batch_input`` takes integer rows
            np.testing.assert_array_equal(x, batch_input(reader, shape, dtype, ints))
            want = net.predict_log_probs(reader, rows)
            np.testing.assert_array_equal(net.predict_log_probs(sel), want)
            np.testing.assert_array_equal(net.predict_log_probs(sel, slice(None)), want)

    def test_fc_net_reads_window_one_patches(self):
        patches = extract_patches(make_synthetic_cube(3, height=12, width=12, bands=5), 1).patches
        assert patches.shape[1:] == (1, 1, 5)
        net, _ = tiny_net("fc")
        flat = np.asarray(patches).reshape(len(patches), 5)
        net.clean_encoder(Tensor(flat))
        np.testing.assert_array_equal(net.predict_log_probs(patches), net.predict_log_probs(flat))
        rows = np.arange(len(patches))[::-2]
        np.testing.assert_array_equal(net.predict(patches, rows), net.predict(flat[rows]))

    def test_reader_prediction_peaks_below_its_input(self, monkeypatch):
        net, reader = self.window_net(np.float64, bands=16, conv=16, side=40)
        # 12-row chunks: the conv's im2col rows of 3x3 windows of 3x3x16 values
        monkeypatch.setattr(ladder_mod, "PREDICT_CHUNK_BYTES", 12 * 1296 * 8)
        assert net.predict_chunk_rows() == 12
        full = len(reader) * 5 * 5 * 16 * 8  # the (1600, 5, 5, 16) f64 input: 5.1 MB
        net.predict(reader[:12])  # untraced, so numpy's lazy imports stay out of the peak
        tracemalloc.start()
        try:
            labels = net.predict(reader)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full // 4
        np.testing.assert_array_equal(labels, net.predict(batch_input(reader, (5, 5, 16), np.float64)))

    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_f32_in_f32_out(self, arch):
        net, x = tiny_net(arch, dtype=np.float32)
        net.clean_encoder(Tensor(x, dtype=np.float32))
        for sample in (x, x.astype(np.float32)):
            out = net.predict_log_probs(sample)
            assert out.dtype == np.float32
            np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, rtol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_empty_input_gives_empty_result(self, dtype):
        net, x = tiny_net("conv", dtype=dtype)
        out = net.predict_log_probs(x[:0])
        assert out.shape == (0, net.spec.num_classes)
        assert out.dtype == dtype
        assert net.predict(x[:0]).shape == (0,)

    def test_bad_shape_rejected(self):
        net, _ = tiny_net("fc")
        with pytest.raises(ShapeError):
            net.predict_log_probs(np.zeros((3, 6)))
        with pytest.raises(ShapeError):
            net.predict_log_probs(np.zeros(5))


class TestFiniteGuard:
    """``assert_finite_params``, which every prediction runs first."""

    # finite in the dtype, yet the squared pre-activations of a weight this
    # large overflow it
    HUGE = {np.float32: 1e30, np.float64: 1e200}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_overflowed_running_statistics_rejected(self, arch, dtype):
        net, x = tiny_net(arch, dtype)
        net.params["enc1/W"].data[...] = self.HUGE[dtype]
        with np.errstate(all="ignore"), GradTape():
            loss, _, _, _ = net.training_loss(x.astype(dtype), 3, np.array([0, 1, 2]), Rng(2))
        assert np.isfinite(loss.item())
        assert not np.isfinite(net.running[1].var).all()
        with pytest.raises(GraphError, match="^non-finite values in running statistics of level 1$"):
            net.predict_log_probs(x)

    def test_first_bad_level_named_after_every_parameter(self):
        net, x = tiny_net("fc")
        net.running[3].var[0] = np.inf
        net.running[2].mean[1] = np.nan
        with pytest.raises(GraphError, match="^non-finite values in running statistics of level 2$"):
            net.predict(x)
        net.params["comb3/a10"].data[0] = np.nan
        with pytest.raises(GraphError, match="^non-finite values in parameter comb3/a10$"):
            net.predict(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_parameters_prediction_never_reads_are_checked(self, arch, dtype, bad):
        net, x = tiny_net(arch, dtype)
        order = list(net.params)
        for names in (["dec2/V"], ["comb1/a7"], ["comb2/a3", "dec1/V", "comb0/a1"]):
            trial = copy.deepcopy(net)
            for name in names:
                trial.params[name].data.flat[-1] = bad
            first = min(names, key=order.index)
            with pytest.raises(GraphError, match=f"^non-finite values in parameter {first}$"):
                trial.predict(x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_signed_zeros_and_subnormals_pass(self, arch, dtype):
        net, x = tiny_net(arch, dtype)
        tiny = np.finfo(dtype).smallest_subnormal
        for t in net.params.values():
            t.data.flat[0::2] = -0.0
            t.data.flat[1::2] = tiny
        logp = net.predict_log_probs(x)
        assert np.isfinite(logp).all()


class TestCombinator:
    def test_identity_configuration(self):
        rng = np.random.default_rng(0)
        z = Tensor(rng.standard_normal((5, 7)))
        u = Tensor(rng.standard_normal((5, 7)))
        out = combinator_g(z, u, comb_params(7))
        np.testing.assert_array_equal(out.data, z.data)

    def test_gate_zero_collapses_to_mu(self):
        rng = np.random.default_rng(1)
        z1 = Tensor(rng.standard_normal((5, 7)))
        z2 = Tensor(rng.standard_normal((5, 7)))
        u = Tensor(rng.standard_normal((5, 7)))
        p = comb_params(7, a1=0.3, a4=0.5, a5=-0.2, a6=0.0, a9=0.0, a10=0.0)
        out1 = combinator_g(z1, u, p)
        out2 = combinator_g(z2, u, p)
        np.testing.assert_array_equal(out1.data, out2.data)
        sig = 1.0 / (1.0 + np.exp(-u.data))
        np.testing.assert_allclose(out1.data, 0.3 * sig + 0.5 * u.data - 0.2, atol=1e-12)

    def test_against_pointwise_scalar_oracle(self):
        rng = np.random.default_rng(2)
        feat = 4
        z = rng.standard_normal((3, feat))
        u = rng.standard_normal((3, feat))
        vals = {name: rng.standard_normal(feat) for name in COMBINATOR_PARAM_NAMES}
        params = {k: Tensor(v) for k, v in vals.items()}
        out = combinator_g(Tensor(z), Tensor(u), params).data
        for i in range(3):
            for j in range(feat):
                a = [vals[f"a{n}"][j] for n in range(1, 11)]
                uv = u[i, j]
                mu = a[0] * (1.0 / (1.0 + np.exp(-(a[1] * uv + a[2])))) + a[3] * uv + a[4]
                v = a[5] * (1.0 / (1.0 + np.exp(-(a[6] * uv + a[7])))) + a[8] * uv + a[9]
                expect = (z[i, j] - mu) * v + mu
                assert abs(out[i, j] - expect) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            combinator_g(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), comb_params(3))


def set_identity_combinators(net):
    from hsiladder.ladder import COMBINATOR_INIT

    for l in range(net.spec.num_levels):
        for name, val in zip(COMBINATOR_PARAM_NAMES, COMBINATOR_INIT):
            net.params[f"comb{l}/{name}"].data[:] = val


class TestDecoder:
    def test_one_level_identity_combinator(self):
        spec = LadderSpec(
            (LayerSpec("softmax_head", 3, activation="none"),), 0.4, (0.1, 0.1), (4,)
        )
        net = LadderNetwork(spec, Rng(0))
        set_identity_combinators(net)
        x = Tensor(Rng(1).normal(1.0, (6, 4)))
        z_tilde, h_top, _ = net.corrupted_encoder(x, Rng(2))
        z_hat = net.decoder(z_tilde, h_top)
        np.testing.assert_array_equal(z_hat[1].data, z_tilde[1].data)

    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_decoded_levels_mirror_lateral_shapes(self, arch):
        if arch == "fc":
            spec = fc_spec([8, 6], classes=3, bands=5)
            x = Tensor(Rng(1).normal(1.0, (7, 5)))
        else:
            spec = LadderSpec(
                (
                    LayerSpec("conv3x3", 4),
                    LayerSpec("conv3x3", 3),
                    LayerSpec("fc", 6),
                    LayerSpec("softmax_head", 3, activation="none"),
                ),
                0.5,
                (0.1,) * 5,
                (7, 7, 2),
            )
            x = Tensor(Rng(1).normal(1.0, (5, 7, 7, 2)))
        net = LadderNetwork(spec, Rng(0))
        z_tilde, h_top, _ = net.corrupted_encoder(x, Rng(2))
        z_hat = net.decoder(z_tilde, h_top)
        assert sorted(z_hat) == list(range(spec.num_levels))
        for l, zt in enumerate(z_tilde):
            assert z_hat[l].data.shape == zt.data.shape

    def test_two_layer_fc_pass_matches_straight_line_oracle(self):
        # tiny ladder, every weight fixed by hand; recompute the whole
        # corrupted pass + decoder with flat numpy code
        spec = LadderSpec(
            (LayerSpec("fc", 3, activation="relu"), LayerSpec("softmax_head", 2, activation="none")),
            0.0,
            (0.1, 0.1, 0.1),
            (2,),
        )
        net = LadderNetwork(spec, Rng(0))
        w1 = np.array([[0.2, -0.1, 0.4], [0.3, 0.5, -0.2]])
        w2 = np.array([[0.1, -0.3], [0.2, 0.4], [-0.5, 0.3]])
        v2 = np.array([[0.3, -0.2, 0.1], [0.15, 0.25, -0.35]])
        v1 = np.array([[0.12, -0.07], [0.33, 0.21], [-0.11, 0.05]])
        net.params["enc1/W"].data[:] = w1
        net.params["enc2/W"].data[:] = w2
        net.params["dec2/V"].data[:] = v2
        net.params["dec1/V"].data[:] = v1
        net.params["enc1/gamma"].data[:] = [1.1, 0.9, 1.0]
        net.params["enc1/beta"].data[:] = [0.05, -0.02, 0.0]
        net.params["enc2/gamma"].data[:] = [1.0, 1.2]
        net.params["enc2/beta"].data[:] = [0.1, -0.1]
        set_identity_combinators(net)
        x = np.array([[0.4, -1.2], [1.0, 0.3], [-0.6, 0.8], [0.1, 0.9]])

        def bn(a):
            return (a - a.mean(axis=0)) / np.sqrt(a.var(axis=0) + 1e-6)

        z1 = bn(x @ w1)
        h1 = np.maximum(0.0, net.params["enc1/gamma"].data * (z1 + net.params["enc1/beta"].data))
        z2 = bn(h1 @ w2)
        s = net.params["enc2/gamma"].data * (z2 + net.params["enc2/beta"].data)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        # decoder with identity combinators: z_hat[l] == z_tilde[l] == z[l]
        z_tilde, h_top, y = net.corrupted_encoder(Tensor(x), Rng(9))
        np.testing.assert_allclose(z_tilde[1].data, z1, atol=1e-12)
        np.testing.assert_allclose(z_tilde[2].data, z2, atol=1e-12)
        np.testing.assert_allclose(h_top.data, probs, atol=1e-12)
        z_hat = net.decoder(z_tilde, h_top)
        np.testing.assert_allclose(z_hat[2].data, z2, atol=1e-12)
        np.testing.assert_allclose(z_hat[1].data, z1, atol=1e-12)
        np.testing.assert_allclose(z_hat[0].data, x, atol=1e-12)


class TestCosts:
    def _net(self):
        spec = fc_spec([6], classes=3, bands=4, noise=0.3)
        return LadderNetwork(spec, Rng(0))

    def test_all_lambda_zero_is_exactly_zero(self):
        net = self._net()
        x = Tensor(Rng(1).normal(1.0, (5, 4)))
        z_tilde, h_top, _ = net.corrupted_encoder(x, Rng(2))
        z_clean, _ = net.clean_encoder(x)
        z_hat = net.decoder(z_tilde, h_top)
        cost = net.reconstruction_cost(z_clean, z_hat, lambdas=(0.0, 0.0, 0.0))
        assert cost.item() == 0.0

    def test_perfect_reconstruction_is_zero_raw_mode(self):
        spec = LadderSpec(
            (LayerSpec("softmax_head", 3, activation="none"),),
            0.3,
            (1.0, 2.0),
            (4,),
            normalize_targets=False,
        )
        net = LadderNetwork(spec, Rng(0))
        x = Tensor(Rng(1).normal(1.0, (5, 4)))
        z_clean, _ = net.clean_encoder(x)
        z_hat = {0: z_clean[0], 1: z_clean[1]}
        cost = net.reconstruction_cost(z_clean, z_hat)
        assert cost.item() == 0.0

    def test_single_level_hand_value(self):
        # lambda=2, clean z=[0,0], decoded (already normalized) [1,1], batch 1
        spec = LadderSpec(
            (LayerSpec("softmax_head", 2, activation="none"),),
            0.3,
            (0.0, 2.0),
            (2,),
            normalize_targets=False,
        )
        net = LadderNetwork(spec, Rng(0))
        z_clean = [Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))]
        z_hat = {1: Tensor(np.ones((1, 2)))}
        cost = net.reconstruction_cost(z_clean, z_hat)
        assert cost.item() == 2.0

    def test_lambda_length_mismatch(self):
        net = self._net()
        x = Tensor(Rng(1).normal(1.0, (5, 4)))
        z_clean, _ = net.clean_encoder(x)
        with pytest.raises(ConfigError, match="need 3 denoising multipliers"):
            net.reconstruction_cost(z_clean, {}, lambdas=(0.0,))

    def test_supervised_cost_values(self):
        # perfect one-hot predictions
        logp = Tensor(np.log(np.array([[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]])))
        assert LadderNetwork.supervised_cost(logp, np.array([0, 1])).item() < 1e-9
        # uniform over 9 classes
        logp = Tensor(np.full((3, 9), np.log(1.0 / 9.0)))
        got = LadderNetwork.supervised_cost(logp, np.array([0, 4, 8])).item()
        assert abs(got - np.log(9.0)) < 1e-12
        # hand-computed mixed batch
        logp = Tensor(np.log(np.array([[0.5, 0.5], [0.25, 0.75]])))
        got = LadderNetwork.supervised_cost(logp, np.array([0, 0])).item()
        assert abs(got - 1.0397207708399179) < 1e-12

    def test_supervised_cost_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            LadderNetwork.supervised_cost(Tensor(np.zeros((0, 3))), np.array([], dtype=int))

    def test_all_lambda_zero_total_equals_supervised_bit_exact(self):
        spec = fc_spec([6], classes=3, bands=4, noise=0.3, lambdas=[0.0, 0.0, 0.0])
        net = LadderNetwork(spec, Rng(0))
        batch = Rng(1).normal(1.0, (6, 4))
        targets = np.array([0, 1, 2])
        with GradTape() as tape:
            c_total, c_super, c_recon, _ = net.training_loss(batch, 3, targets, Rng(2))
        assert c_recon.item() == 0.0
        assert c_total.data.tobytes() == c_super.data.tobytes()
        tape.backward(c_total)
        for name, t in net.params.items():
            if name.startswith(("dec", "comb")):
                assert t.grad is None or not np.any(t.grad)

    def test_zero_noise_identity_combinator_recon_collapses(self):
        spec = fc_spec([6], classes=3, bands=4, noise=0.0)
        net = LadderNetwork(spec, Rng(0))
        set_identity_combinators(net)
        batch = Rng(1).normal(1.0, (6, 4))
        targets = np.array([0, 1, 2])
        c_total, c_super, c_recon, z_hat = net.training_loss(batch, 3, targets, Rng(2))
        assert c_recon.item() < 1e-10
        assert abs(c_total.item() - c_super.item()) < 1e-10
        z_tilde, _, _ = net.corrupted_encoder(Tensor(batch), Rng(2))
        for l, zt in enumerate(z_tilde):
            np.testing.assert_allclose(z_hat[l].data, zt.data, atol=1e-12)


class TestLambdaOverrides:
    """``training_loss`` and ``reconstruction_cost`` hold a ``lambdas=``
    override to the rule ``LadderSpec`` enforces."""

    BAD = {
        "negative": ((1.0, -0.5, 0.1), "finite and >= 0"),
        "nan": ((float("nan"), 0.1, 0.1), "finite and >= 0"),
        "inf": ((0.1, math.inf, 0.1), "finite and >= 0"),
        "too-short-zeros": ((0.0, 0.0), "need 3 denoising multipliers"),
        "too-long-zeros": ((0.0, 0.0, 0.0, 0.0), "need 3 denoising multipliers"),
    }

    def _net(self):
        return LadderNetwork(fc_spec([6], classes=3, bands=4, noise=0.3), Rng(0))

    @pytest.mark.parametrize("case", sorted(BAD))
    @pytest.mark.parametrize("use_decoder", [True, False])
    def test_training_loss_rejects(self, case, use_decoder):
        lambdas, message = self.BAD[case]
        net = self._net()
        batch = Rng(1).normal(1.0, (6, 4))
        with pytest.raises(ConfigError, match=message):
            net.training_loss(
                batch, 3, np.array([0, 1, 2]), Rng(2), lambdas=lambdas, use_decoder=use_decoder
            )

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_reconstruction_cost_rejects(self, case):
        lambdas, message = self.BAD[case]
        net = self._net()
        x = Tensor(Rng(1).normal(1.0, (5, 4)))
        z_tilde, h_top, _ = net.corrupted_encoder(x, Rng(2))
        z_clean, _ = net.clean_encoder(x)
        z_hat = net.decoder(z_tilde, h_top)
        with pytest.raises(ConfigError, match=message):
            net.reconstruction_cost(z_clean, z_hat, lambdas=lambdas)

    def test_all_zero_override_of_the_right_length_is_supervised_only(self):
        # the benchmark's supervised-only workloads pass this override
        batch = Rng(1).normal(1.0, (6, 4))
        targets = np.array([0, 1, 2])
        net, twin = self._net(), self._net()
        got = net.training_loss(batch, 3, targets, Rng(2), lambdas=[0, 0.0, np.float32(0)])
        want = twin.training_loss(batch, 3, targets, Rng(2), use_decoder=False)
        assert got[0].data.tobytes() == want[0].data.tobytes()
        assert got[2].item() == 0.0 and got[3] == {}

    def test_spec_and_override_share_the_message(self):
        lambdas = (1.0, -0.5, 0.1)
        with pytest.raises(ConfigError) as spec_err:
            fc_spec([6], classes=3, bands=4, lambdas=lambdas)
        with pytest.raises(ConfigError) as override_err:
            self._net().training_loss(
                Rng(1).normal(1.0, (6, 4)), 3, np.array([0, 1, 2]), Rng(2), lambdas=lambdas
            )
        assert str(spec_err.value) == str(override_err.value)


class TestTrainingLossReturnsDecodedLevels:
    @pytest.mark.parametrize(
        "lambdas, levels", [((0.1, 0.1, 0.1), [0, 1, 2]), ((0.0, 0.2, 0.0), [1, 2])]
    )
    def test_fourth_value_is_the_decoder_output(self, lambdas, levels):
        spec = fc_spec([6], classes=3, bands=4, noise=0.3, lambdas=lambdas)
        net, twin = LadderNetwork(spec, Rng(0)), LadderNetwork(spec, Rng(0))
        batch = Rng(1).normal(1.0, (6, 4))
        *_, z_hat = net.training_loss(batch, 3, np.array([0, 1, 2]), Rng(2))
        z_tilde, h_top, _ = twin.corrupted_encoder(Tensor(batch), Rng(2))
        want = twin.decoder(z_tilde, h_top, min_level=levels[0])
        assert sorted(z_hat) == levels == sorted(want)
        for l in levels:
            assert z_hat[l].data.tobytes() == want[l].data.tobytes()

    @pytest.mark.parametrize(
        "kwargs", [dict(use_decoder=False), dict(lambdas=(0.0, 0.0, 0.0))]
    )
    def test_empty_when_the_decoder_does_not_run(self, kwargs):
        net = LadderNetwork(fc_spec([6], classes=3, bands=4), Rng(0))
        batch = Rng(1).normal(1.0, (6, 4))
        *_, z_hat = net.training_loss(batch, 3, np.array([0, 1, 2]), Rng(2), **kwargs)
        assert z_hat == {}


class TestEndToEndGradient:
    def test_full_ladder_loss_matches_finite_differences(self):
        # 2-level ladder, <=10 units, fixed noise realization
        spec = LadderSpec(
            (LayerSpec("fc", 4, activation="relu"), LayerSpec("softmax_head", 3, activation="none")),
            0.3,
            (0.7, 0.5, 0.3),
            (3,),
        )
        net = LadderNetwork(spec, Rng(0))
        batch = Rng(1).normal(1.0, (6, 3))
        targets = np.array([0, 1, 2])

        def loss():
            c_total, *_ = net.training_loss(batch, 3, targets, Rng(77))
            return c_total

        fd_gradcheck(loss, list(net.params.values()))

    def test_conv_ladder_loss_matches_finite_differences(self):
        spec = LadderSpec(
            (LayerSpec("conv3x3", 2), LayerSpec("softmax_head", 2, activation="none")),
            0.4,
            (0.5, 0.4, 0.3),
            (4, 4, 2),
        )
        net = LadderNetwork(spec, Rng(0))
        batch = Rng(1).normal(1.0, (4, 4, 4, 2))
        targets = np.array([0, 1])

        def loss():
            c_total, *_ = net.training_loss(batch, 2, targets, Rng(78))
            return c_total

        fd_gradcheck(loss, list(net.params.values()))


def small_conv_step(dtype, backward):
    """One ladder-mode step of a small conv ladder (7x7x5 input, conv 12,
    conv 6, fc 8, 3 classes, batch 20+20, every lambda > 0): the forward,
    then ``backward(tape, c_total)``.  Returns the network and the tape."""
    spec = LadderSpec(
        (
            LayerSpec("conv3x3", 12),
            LayerSpec("conv3x3", 6),
            LayerSpec("fc", 8),
            LayerSpec("softmax_head", 3, activation="none"),
        ),
        0.3,
        (1.0, 0.5, 0.3, 0.2, 0.1),
        (7, 7, 5),
    )
    net = LadderNetwork(spec, Rng(0), dtype=dtype)
    batch = Rng(1).normal(1.0, (40, 7, 7, 5), dtype=dtype)
    targets = np.arange(20) % 3
    with GradTape() as tape:
        c_total, *_ = net.training_loss(batch, 20, targets, Rng(2))
    backward(tape, c_total)
    return net, tape


class TestBackwardRelease:
    """``GradTape.backward`` drops each intermediate gradient once read;
    ``reference_backward`` keeps every one and serves as the oracle."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_parameter_gradients_bit_equal_to_keep_everything_walk(self, dtype):
        net, _ = small_conv_step(dtype, GradTape.backward)
        ref, _ = small_conv_step(dtype, reference_backward)
        for name, p in net.params.items():
            assert p.grad is not None, name
            assert p.grad.dtype == dtype, name
            assert np.array_equal(p.grad, ref.params[name].grad), name

    def test_only_leaves_keep_a_gradient(self):
        net, tape = small_conv_step(np.float64, GradTape.backward)
        assert all(node.grad is None for node in tape.nodes)
        assert all(p.grad is not None for p in net.params.values())

    def test_backward_peak_memory_below_keep_everything_walk(self):
        def traced_peak(backward):
            peaks = []

            def traced(tape, loss):
                tracemalloc.start()
                try:
                    backward(tape, loss)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

            small_conv_step(np.float64, traced)
            return peaks[0]

        peak = traced_peak(GradTape.backward)
        ref_peak = traced_peak(reference_backward)
        assert peak < 0.8 * ref_peak, (peak, ref_peak)

    # Backward peak over forward peak: 1.18 (f64 and f32) when every
    # closure lived until the end of the walk, about 1.03 once each goes
    # as soon as it has run.
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_backward_peak_stays_near_the_forward_peak(self, dtype):
        peaks = {}

        def traced(tape, loss):
            peaks["forward"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            GradTape.backward(tape, loss)
            peaks["backward"] = tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            small_conv_step(dtype, traced)
        finally:
            tracemalloc.stop()
        assert peaks["backward"] <= 1.08 * peaks["forward"], peaks


class TestSavedArrays:
    """A recorded ladder step keeps only what its backward formulas read."""

    def test_no_closure_captures_a_tensor(self):
        captured = []

        def inspect(tape, loss):
            for node in tape.nodes:
                for cell in node.backward_fn.__closure__ or ():
                    if isinstance(cell.cell_contents, Tensor):
                        captured.append(node.name)

        small_conv_step(np.float64, inspect)
        assert captured == []

    # Live traced bytes right after the forward when every node kept its
    # input and output tensors and a replay closure over them (commit
    # 015a6b9): 7,049,666 (f64) and 3,257,910 (f32).  Keeping only the
    # saved arrays reads about 3.45 and 1.43 MB.
    @pytest.mark.parametrize(
        "dtype, tensor_holding_bytes",
        [(np.float64, 7_049_666), (np.float32, 3_257_910)],
        ids=["f64", "f32"],
    )
    def test_forward_live_memory_at_most_60_percent_of_tensor_holding_tape(
        self, dtype, tensor_holding_bytes
    ):
        live = []
        tracemalloc.start()
        try:
            small_conv_step(dtype, lambda tape, loss: live.append(tracemalloc.get_traced_memory()[0]))
        finally:
            tracemalloc.stop()
        assert live[0] <= 0.6 * tensor_holding_bytes, live[0]

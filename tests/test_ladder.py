"""Ladder model: collapse identities, combinator oracle, shapes, costs, backward."""

import tracemalloc

import numpy as np
import pytest

from hsiladder import (
    ConfigError,
    GradTape,
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
from hsiladder.ladder import COMBINATOR_PARAM_NAMES, combinator_g

from helpers import conv2d_oracle, fd_gradcheck, matmul_oracle, reference_backward


def fc_spec(widths, classes, bands, noise=0.3, lambdas=None):
    layers = [LayerSpec("fc", w) for w in widths] + [
        LayerSpec("softmax_head", classes, activation="none")
    ]
    if lambdas is None:
        lambdas = [0.1] * (len(layers) + 1)
    return LadderSpec(tuple(layers), noise, tuple(lambdas), (bands,))


def paper_conv_spec():
    """7x7x15 patches -> conv 90 -> conv 30 -> conv 15 -> fc 30 -> 9."""
    return LadderSpec(
        (
            LayerSpec("conv3x3", 90),
            LayerSpec("conv3x3", 30),
            LayerSpec("conv3x3", 15),
            LayerSpec("fc", 30),
            LayerSpec("softmax_head", 9, activation="none"),
        ),
        0.3,
        (1.0, 0.1, 0.1, 0.1, 0.1, 0.1),
        (7, 7, 15),
    )


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
        spec = LadderSpec(
            (LayerSpec("conv3x3", 4), LayerSpec("softmax_head", 2)),
            0.3,
            (0, 0, 0),
            (7,),
        )
        with pytest.raises(ConfigError):
            spec.level_shapes()

    def test_kernel_larger_than_window_rejected(self):
        spec = LadderSpec(
            (LayerSpec("conv3x3", 4), LayerSpec("softmax_head", 2)),
            0.3,
            (0, 0, 0),
            (2, 2, 3),
        )
        with pytest.raises(ConfigError):
            spec.level_shapes()


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
        z, _, _ = net.clean_encoder(x)
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
        z_clean, _, _ = net.clean_encoder(x)
        for zt, zc in zip(z_tilde, z_clean):
            assert np.abs(zt.data - zc.data).max() < 1e-12


def tiny_net(arch, dtype=np.float64):
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


class TestEvalMode:
    def test_batch_of_one_valid_distribution(self):
        spec = fc_spec([6], classes=4, bands=5)
        net = LadderNetwork(spec, Rng(0))
        # one training pass to populate running statistics
        x = Rng(1).normal(1.0, (12, 5))
        net.clean_encoder(Tensor(x), update_running=True)
        y_logp = net.predict_log_probs(x[:1])
        assert y_logp.shape == (1, 4)
        total = np.exp(y_logp).sum()
        assert abs(total - 1.0) < 1e-9

    def test_prediction_deterministic_and_shift_invariant(self):
        spec = fc_spec([6], classes=4, bands=5)
        net = LadderNetwork(spec, Rng(0))
        x = Rng(1).normal(1.0, (12, 5))
        net.clean_encoder(Tensor(x), update_running=True)
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
        net.clean_encoder(Tensor(x), update_running=True)
        net.clean_encoder(Tensor(x[::-1] * 0.5 + 0.2), update_running=True)
        for sample in (x, x[:1]):
            np.testing.assert_allclose(
                net.predict_log_probs(sample), predict_oracle(net, sample), rtol=1e-12, atol=0
            )

    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_chunk_sizes_agree(self, arch, monkeypatch):
        net, x = tiny_net(arch)
        net.clean_encoder(Tensor(x), update_running=True)
        whole = net.predict_log_probs(x, chunk=512)
        # the default chunk holds the whole tiny batch; with a 1-byte budget
        # it falls to one row
        default = net.predict_log_probs(x)
        with monkeypatch.context() as m:
            m.setattr(ladder_mod, "PREDICT_CHUNK_BYTES", 1)
            one_byte = net.predict_log_probs(x)
        for got in (default, one_byte, *(net.predict_log_probs(x, chunk=c) for c in (1, 3))):
            # BLAS may round a one-row product differently from a many-row one
            np.testing.assert_allclose(got, whole, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(net.predict(x, chunk=3), np.argmax(whole, axis=1))
        np.testing.assert_array_equal(net.predict(x), np.argmax(whole, axis=1))
        net32, _ = tiny_net(arch, dtype=np.float32)
        net32.clean_encoder(Tensor(x, dtype=np.float32), update_running=True)
        want = predict_oracle(net32, x)
        for chunk in (None, 1, 3, 512):
            got = net32.predict_log_probs(x, chunk=chunk)
            assert got.dtype == np.float32
            # f32 rounding (eps 1.2e-7) accumulated over a few layers
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

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

    @pytest.mark.parametrize("arch", ["fc", "conv"])
    def test_f32_in_f32_out(self, arch):
        net, x = tiny_net(arch, dtype=np.float32)
        net.clean_encoder(Tensor(x, dtype=np.float32), update_running=True)
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

    def test_bad_chunk_and_shape_rejected(self):
        net, x = tiny_net("fc")
        for chunk in (0, -2):
            with pytest.raises(ConfigError, match="chunk"):
                net.predict_log_probs(x, chunk=chunk)
        with pytest.raises(ShapeError):
            net.predict_log_probs(np.zeros((3, 6)))
        with pytest.raises(ShapeError):
            net.predict_log_probs(np.zeros(5))


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
        z_clean, stats, _ = net.clean_encoder(x)
        z_hat = net.decoder(z_tilde, h_top)
        cost = net.reconstruction_cost(z_clean, stats, z_hat, lambdas=(0.0, 0.0, 0.0))
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
        z_clean, stats, _ = net.clean_encoder(x)
        z_hat = {0: z_clean[0], 1: z_clean[1]}
        cost = net.reconstruction_cost(z_clean, stats, z_hat)
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
        cost = net.reconstruction_cost(z_clean, [None, None], z_hat)
        assert cost.item() == 2.0

    def test_lambda_length_mismatch(self):
        net = self._net()
        x = Tensor(Rng(1).normal(1.0, (5, 4)))
        z_clean, stats, _ = net.clean_encoder(x)
        with pytest.raises(ShapeError):
            net.reconstruction_cost(z_clean, stats, {}, lambdas=(0.0,))

    def test_missing_stats_when_normalizing(self):
        net = self._net()
        x = Tensor(Rng(1).normal(1.0, (5, 4)))
        z_tilde, h_top, _ = net.corrupted_encoder(x, Rng(2))
        z_clean, _, _ = net.clean_encoder(x)
        z_hat = net.decoder(z_tilde, h_top)
        from hsiladder import GraphError

        with pytest.raises(GraphError):
            net.reconstruction_cost(z_clean, [None, None], z_hat)

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
        c_total, c_super, c_recon, out = net.training_loss(batch, 3, targets, Rng(2))
        assert c_recon.item() < 1e-10
        assert abs(c_total.item() - c_super.item()) < 1e-10
        for l, zt in enumerate(out.z_tilde):
            np.testing.assert_allclose(out.z_hat[l].data, zt.data, atol=1e-12)


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
        assert all(node.output.grad is None for node in tape.nodes)
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

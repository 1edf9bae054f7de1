"""Tensor core: oracle equivalence, gradient correctness, tape semantics."""

import gc
import weakref

import numpy as np
import pytest

from hsiladder import GradTape, GraphError, LadderNetwork, Rng, ShapeError, Tensor
from hsiladder import kernels, ops, tensor
from hsiladder.tensor import ARENA_MIN_BYTES, arena_usage
from hsiladder.train import Adam

from helpers import (
    conv2d_input_grad_oracle,
    conv2d_kernel_grad_gemm_oracle,
    conv2d_kernel_grad_oracle,
    conv2d_oracle,
    conv2d_transpose_grads_oracle,
    fd_gradcheck,
    matmul_oracle,
    paper_conv_spec,
    sigmoid_oracle,
)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(ops.matmul(a, b).data, [[3, 4], [5, 6]])

    def test_row_times_column(self):
        out = ops.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m, k, n = rng.integers(1, 9, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            got = ops.matmul(Tensor(a), Tensor(b)).data
            assert np.abs(got - matmul_oracle(a, b)).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as e:
            ops.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


class TestConv2d:
    def test_all_ones_window_sum(self):
        x = Tensor(np.ones((1, 3, 3, 1)))
        k = Tensor(np.ones((3, 3, 1, 1)))
        out = ops.conv2d(x, k)
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 9.0

    def test_output_shape_for_wide_channel_stack(self):
        x = Tensor(np.zeros((1, 7, 7, 10)))
        k = Tensor(np.zeros((3, 3, 10, 90)))
        assert ops.conv2d(x, k).data.shape == (1, 5, 5, 90)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            b = int(rng.integers(1, 3))
            h, w = rng.integers(3, 8, size=2)
            kh = int(rng.integers(1, min(4, h + 1)))
            kw = int(rng.integers(1, min(4, w + 1)))
            ci, co = rng.integers(1, 5, size=2)
            x = rng.standard_normal((b, h, w, ci))
            k = rng.standard_normal((kh, kw, ci, co))
            got = ops.conv2d(Tensor(x), Tensor(k)).data
            assert np.abs(got - conv2d_oracle(x, k)).max() < 1e-12

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError):
            ops.conv2d(Tensor(np.zeros((1, 2, 2, 1))), Tensor(np.zeros((3, 3, 1, 1))))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ops.conv2d(Tensor(np.zeros((1, 5, 5, 2))), Tensor(np.zeros((3, 3, 3, 1))))


class TestConvKernels:
    # (b, h, w, ci, kh, kw, co): kh != kw, batch 1, ci = co = 1, 1x1 output
    EDGE_SHAPES = [
        (2, 6, 5, 3, 3, 2, 4),
        (1, 5, 5, 2, 3, 3, 2),
        (3, 4, 6, 1, 2, 3, 1),
        (2, 3, 4, 2, 3, 4, 3),
        (1, 1, 1, 1, 1, 1, 1),
    ]

    # the paper conv ladder's three layers
    PAPER_SHAPES = [
        (200, 7, 7, 15, 3, 3, 90),
        (200, 5, 5, 90, 3, 3, 30),
        (200, 3, 3, 30, 3, 3, 15),
    ]
    # relative bound on a GEMM whose summation order may differ from the oracle's
    DTYPE_RTOL = [(np.float64, 1e-13), (np.float32, 1e-5)]

    @staticmethod
    def _shapes():
        rng = np.random.default_rng(4)
        shapes = list(TestConvKernels.EDGE_SHAPES)
        while len(shapes) < 20:
            b = int(rng.integers(1, 4))
            h, w = (int(v) for v in rng.integers(1, 8, size=2))
            kh, kw = int(rng.integers(1, min(4, h) + 1)), int(rng.integers(1, min(4, w) + 1))
            ci, co = (int(v) for v in rng.integers(1, 5, size=2))
            shapes.append((b, h, w, ci, kh, kw, co))
        return shapes

    def test_input_grad_against_loop_oracle(self):
        rng = np.random.default_rng(5)
        for b, h, w, ci, kh, kw, co in self._shapes():
            gy = rng.standard_normal((b, h - kh + 1, w - kw + 1, co))
            k = rng.standard_normal((kh, kw, ci, co))
            got = kernels.conv2d_input_grad(gy, k, h, w)
            assert got.shape == (b, h, w, ci)
            assert np.abs(got - conv2d_input_grad_oracle(gy, k, h, w)).max() < 1e-12

    def test_kernel_grad_against_loop_oracle(self):
        rng = np.random.default_rng(6)
        for b, h, w, ci, kh, kw, co in self._shapes():
            x = rng.standard_normal((b, h, w, ci))
            gy = rng.standard_normal((b, h - kh + 1, w - kw + 1, co))
            got = kernels.conv2d_kernel_grad(x, gy, kh, kw)
            assert got.shape == (kh, kw, ci, co)
            assert np.abs(got - conv2d_kernel_grad_oracle(x, gy, kh, kw)).max() < 1e-12

    @staticmethod
    def _assert_matches(got, want, rtol):
        """Equal bits, or every entry within ``rtol`` of want's largest magnitude."""
        assert got.shape == want.shape and got.dtype == want.dtype
        if not np.array_equal(got, want):
            assert np.abs(got - want).max() <= rtol * np.abs(want).max()

    @pytest.mark.parametrize("dtype, rtol", DTYPE_RTOL)
    def test_kernel_grad_matches_gemm_oracle(self, dtype, rtol):
        rng = np.random.default_rng(9)
        for b, h, w, ci, kh, kw, co in self.EDGE_SHAPES + self.PAPER_SHAPES:
            x = rng.standard_normal((b, h, w, ci)).astype(dtype)
            gy = rng.standard_normal((b, h - kh + 1, w - kw + 1, co)).astype(dtype)
            got = kernels.conv2d_kernel_grad(x, gy, kh, kw)
            self._assert_matches(got, conv2d_kernel_grad_gemm_oracle(x, gy, kh, kw), rtol)

    @pytest.mark.parametrize("dtype, rtol", DTYPE_RTOL)
    def test_transpose_backward_matches_two_call_oracle(self, dtype, rtol):
        # the decoder's mirror of each conv: (b, oh, ow, co) -> (b, h, w, ci)
        rng = np.random.default_rng(10)
        for b, h, w, ci, kh, kw, co in self.EDGE_SHAPES + self.PAPER_SHAPES:
            xd = rng.standard_normal((b, h - kh + 1, w - kw + 1, co)).astype(dtype)
            x = Tensor(xd, requires_grad=True)
            k = Tensor(rng.standard_normal((kh, kw, co, ci)).astype(dtype), requires_grad=True)
            g = rng.standard_normal((b, h, w, ci)).astype(dtype)
            with GradTape() as tape:
                ops.conv2d_transpose(x, k)
            gx, gk = tape.nodes[-1].backward_fn(g)
            want_gx, want_gk = conv2d_transpose_grads_oracle(x.data, k.data, g)
            np.testing.assert_array_equal(gx, want_gx)  # the same GEMM on the same im2col
            assert gx.dtype == dtype
            self._assert_matches(gk, want_gk, rtol)

    @pytest.mark.parametrize(
        "call, names",
        [
            # a consistent gradient and kernel, but the wrong input size, large and small
            (lambda: kernels.conv2d_input_grad(np.ones((1, 3, 3, 1)), np.ones((3, 3, 1, 1)), 9, 9),
             ["(1, 3, 3, 1)", "(3, 3, 1, 1)", "(5, 5)", "(9, 9)"]),
            (lambda: kernels.conv2d_input_grad(np.ones((1, 3, 3, 1)), np.ones((3, 3, 1, 1)), 2, 2),
             ["(5, 5)", "(2, 2)"]),
            (lambda: kernels.conv2d_input_grad(np.ones((1, 3, 3, 2)), np.ones((3, 3, 1, 1)), 5, 5),
             ["(1, 3, 3, 2)", "(3, 3, 1, 1)"]),
            (lambda: kernels.conv2d_input_grad(np.ones((3, 3, 1)), np.ones((3, 3, 1, 1)), 5, 5),
             ["(3, 3, 1)", "4-d"]),
            (lambda: kernels.conv2d_kernel_grad(np.ones((1, 5, 5, 1)), np.ones((1, 4, 4, 1)), 3, 3),
             ["(1, 5, 5, 1)", "(1, 4, 4, 1)", "(1, 3, 3)"]),
            (lambda: kernels.conv2d_kernel_grad(np.ones((2, 5, 5, 1)), np.ones((1, 3, 3, 1)), 3, 3),
             ["(2, 5, 5, 1)", "(1, 3, 3, 1)"]),
            (lambda: kernels.conv2d_kernel_grad(np.ones((1, 2, 2, 1)), np.ones((1, 0, 0, 1)), 3, 3),
             ["(1, 2, 2, 1)", "(3, 3)"]),
            (lambda: kernels.conv2d_kernel_grad(np.ones((1, 5, 5, 1)), np.ones((3, 3, 1)), 3, 3),
             ["(3, 3, 1)", "4-d"]),
        ],
        ids=["ig-large-hw", "ig-small-hw", "ig-channels", "ig-3d", "kg-spatial", "kg-batch",
             "kg-kernel-larger", "kg-3d"],
    )
    def test_gradient_geometry_refused(self, call, names):
        with pytest.raises(ShapeError) as e:
            call()
        for name in names:
            assert name in str(e.value)

    def test_f32_operands_give_f32(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5, 4, 3)).astype(np.float32)
        k = rng.standard_normal((3, 2, 3, 4)).astype(np.float32)
        gy = rng.standard_normal((2, 3, 3, 4)).astype(np.float32)
        assert kernels.conv2d_forward(x, k).dtype == np.float32
        assert kernels.conv2d_input_grad(gy, k, 5, 4).dtype == np.float32
        assert kernels.conv2d_kernel_grad(x, gy, 3, 2).dtype == np.float32
        kt = rng.standard_normal((3, 2, 4, 3)).astype(np.float32)
        assert ops.conv2d_transpose(Tensor(gy), Tensor(kt)).data.dtype == np.float32

    def test_non_contiguous_kernel_view(self):
        # conv2d_transpose hands the kernels k.transpose(0, 1, 3, 2)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 5, 6, 3))
        base = rng.standard_normal((3, 2, 4, 3))
        k = base.transpose(0, 1, 3, 2)
        assert not k.flags.c_contiguous
        gy = rng.standard_normal((2, 3, 5, 4))
        kc = np.ascontiguousarray(k)
        got = kernels.conv2d_forward(x, k)
        assert np.abs(got - conv2d_oracle(x, kc)).max() < 1e-12
        got = kernels.conv2d_input_grad(gy, k, 5, 6)
        assert np.abs(got - conv2d_input_grad_oracle(gy, kc, 5, 6)).max() < 1e-12


class TestConv2dTranspose:
    def test_shape_mirrors_valid_conv(self):
        x = Tensor(np.zeros((2, 5, 5, 7)))
        k = Tensor(np.zeros((3, 3, 7, 4)))
        assert ops.conv2d_transpose(x, k).data.shape == (2, 7, 7, 4)

    def test_adjoint_of_conv2d(self):
        # <conv(x), y> == <x, conv_transpose(y, k')> with k' channel-swapped
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 6, 5, 3))
        k = rng.standard_normal((3, 3, 3, 4))
        y = rng.standard_normal((2, 4, 3, 4))
        lhs = (ops.conv2d(Tensor(x), Tensor(k)).data * y).sum()
        kt = np.ascontiguousarray(k.transpose(0, 1, 3, 2))
        rhs = (ops.conv2d_transpose(Tensor(y), Tensor(kt)).data * x).sum()
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize(
        "x_shape, k_shape, match",
        [
            ((5, 5, 7), (3, 3, 7, 4), r"needs 4-d operands, got \(5, 5, 7\) and \(3, 3, 7, 4\)"),
            ((2, 5, 5, 7), (3, 7, 4), r"needs 4-d operands, got \(2, 5, 5, 7\) and \(3, 7, 4\)"),
            ((2, 5, 5, 7), (3, 3, 6, 4), r"channel mismatch: input \(2, 5, 5, 7\), kernel \(3, 3, 6, 4\)"),
        ],
        ids=["3d-input", "3d-kernel", "channels"],
    )
    def test_bad_operands_refused(self, x_shape, k_shape, match):
        with pytest.raises(ShapeError, match=match):
            ops.conv2d_transpose(Tensor(np.zeros(x_shape)), Tensor(np.zeros(k_shape)))


class TestBatchnorm:
    def test_two_point_column(self):
        x = Tensor(np.array([[2.0], [4.0]]))
        out, _, _ = ops.batchnorm(x)
        np.testing.assert_allclose(out.data[:, 0], [-1.0, 1.0], atol=1e-5)

    def test_constant_column_guarded_by_eps(self):
        x = Tensor(np.full((3, 1), 5.0))
        out, _, _ = ops.batchnorm(x)
        np.testing.assert_array_equal(out.data, np.zeros((3, 1)))

    def test_random_batch_standardized(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((8, 4)) * 3.0 + 1.0)
        out = ops.batchnorm(x)[0].data
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-6

    def test_conv_input_per_channel(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((4, 3, 3, 2)) * 2.0 + 0.5)
        out = ops.batchnorm(x)[0].data
        assert np.abs(out.mean(axis=(0, 1, 2))).max() < 1e-10
        assert np.abs(out.var(axis=(0, 1, 2)) - 1.0).max() < 1e-6

    @pytest.mark.parametrize("shape", [(6, 4), (3, 4, 2, 5)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_axis_formula_bit_for_bit(self, shape, dtype):
        # the (rows, channels) forward and the in-place backward round
        # exactly like the textbook formula over the batch axes
        rng = np.random.default_rng(7)
        x = Tensor((rng.standard_normal(shape) * 2.0 + 0.5).astype(dtype), requires_grad=True)
        g = rng.standard_normal(shape).astype(dtype)
        axes = tuple(range(len(shape) - 1))
        mu = x.data.mean(axis=axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(x.data.var(axis=axes, keepdims=True) + ops.BN_EPS)
        xhat = (x.data - mu) * inv_std
        gm = g.mean(axis=axes, keepdims=True)
        gxh = (g * xhat).mean(axis=axes, keepdims=True)
        with GradTape() as tape:
            out, _, _ = ops.batchnorm(x)
        np.testing.assert_array_equal(out.data, xhat)
        np.testing.assert_array_equal(tape.nodes[0].backward_fn(g)[0], inv_std * (g - gm - xhat * gxh))

    def test_batch_of_one_rejected_in_train(self):
        with pytest.raises(ShapeError):
            ops.batchnorm(Tensor(np.zeros((1, 3))))

    @pytest.mark.parametrize("shape", [(16, 3), (4, 3, 2, 3)])
    def test_returns_the_batch_statistics(self, shape):
        # the ladder folds these into its running averages
        # (tests/test_ladder.py, TestRunningStats)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(shape) * 2.0 + 1.0
        axes = tuple(range(len(shape) - 1))
        _, mean, var = ops.batchnorm(Tensor(x))
        assert mean.shape == var.shape == (3,)
        np.testing.assert_allclose(mean, x.mean(axis=axes), rtol=1e-12)
        np.testing.assert_allclose(var, x.var(axis=axes), rtol=1e-12)


class TestActivationsAndLoss:
    def test_relu(self):
        out = ops.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_tails_symmetry_and_dtype(self):
        # underflow to subnormals and to 0 is the intended tail; nothing
        # may overflow or go invalid
        with np.errstate(all="raise", under="ignore"):
            tail = ops._sigmoid(np.array([-100.0, -745.0, -800.0]))
            assert tail[0] == np.exp(-100.0) / (1.0 + np.exp(-100.0))
            assert abs(tail[0] - 3.72007597602e-44) < 1e-54
            assert tail[1] == 5e-324 and tail[2] == 0.0
            assert ops._sigmoid(np.array([0.0]))[0] == 0.5
            np.testing.assert_array_equal(ops._sigmoid(np.array([800.0, 745.0])), [1.0, 1.0])
            v = np.linspace(-40.0, 40.0, 8001)
            for dt in (np.float64, np.float32):
                vd = v.astype(dt)
                s = ops._sigmoid(vd) + ops._sigmoid(-vd)
                assert s.dtype == dt
                assert np.abs(s - 1.0).max() <= np.spacing(dt(1.0))
            out = ops.sigmoid(Tensor(np.array([-800.0, 0.0, 3.0], dtype=np.float32)))
            assert out.data.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_bit_equal_to_where_form(self, dtype):
        rng = np.random.default_rng(9)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 800.0, -800.0, -100.0, -1e300]
        with np.errstate(over="ignore"):  # -1e300 is -inf in f32
            v = np.concatenate(
                [edges] + [rng.standard_normal(4004) * s for s in (0.1, 1.0, 10.0, 100.0)]
            ).astype(dtype)
        with np.errstate(all="raise", under="ignore"):
            for x in (v, v.reshape(-1, 11)[:, ::2], v[9:10].reshape(())):
                out = ops._sigmoid(x)
                assert out.dtype == dtype and out.shape == np.shape(x)
                assert np.array_equal(out, sigmoid_oracle(x), equal_nan=True)

    def test_nll_of_log_softmax_uniform_nine_classes(self):
        logits = Tensor(np.zeros((4, 9)))
        loss = ops.nll_loss(ops.log_softmax(logits), np.array([0, 3, 5, 8]))
        assert abs(loss.item() - np.log(9.0)) < 1e-12

    def test_log_softmax_huge_logits_no_overflow(self):
        out = ops.log_softmax(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[np.log(0.5), np.log(0.5)]])

    def test_log_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        out = ops.log_softmax(Tensor(rng.standard_normal((6, 5)) * 10.0))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), np.ones(6), atol=1e-9)

    def test_target_out_of_range(self):
        with pytest.raises(ShapeError):
            ops.nll_loss(ops.log_softmax(Tensor(np.zeros((2, 3)))), np.array([0, 3]))

    @pytest.mark.parametrize("targets", [np.array([0.0, 2.0]), np.array([True, False])])
    def test_non_integer_targets_refused(self, targets):
        with pytest.raises(ShapeError, match=f"integer class indices, got dtype {targets.dtype}$"):
            ops.nll_loss(ops.log_softmax(Tensor(np.zeros((2, 3)))), targets)

    def test_nll_hand_example(self):
        # two rows with probability 0.5 and 0.25 on the true class
        logp = Tensor(np.log(np.array([[0.5, 0.5], [0.25, 0.75]])))
        loss = ops.nll_loss(logp, np.array([0, 0]))
        expect = -(np.log(0.5) + np.log(0.25)) / 2.0
        assert abs(loss.item() - expect) < 1e-12


class TestGaussianNoise:
    def test_zero_std_bit_exact(self):
        x = Tensor(np.random.default_rng(8).standard_normal((5, 4)))
        out = ops.add_gaussian_noise(x, 0.0, Rng(1))
        np.testing.assert_array_equal(out.data, x.data)

    def test_sample_moments(self):
        x = Tensor(np.zeros(10**6))
        out = ops.add_gaussian_noise(x, 0.5, Rng(2)).data
        assert abs(out.mean()) < 0.002
        assert 0.4985 <= out.std() <= 0.5015

    def test_same_seed_identical(self):
        x = Tensor(np.zeros((3, 3)))
        a = ops.add_gaussian_noise(x, 0.7, Rng(42)).data
        b = ops.add_gaussian_noise(x, 0.7, Rng(42)).data
        np.testing.assert_array_equal(a, b)

    def test_negative_std_rejected(self):
        from hsiladder import ConfigError

        with pytest.raises(ConfigError):
            ops.add_gaussian_noise(Tensor(np.zeros(2)), -0.1, Rng(0))

    @pytest.mark.parametrize("std", [float("nan"), float("inf"), True])
    def test_non_finite_std_rejected(self, std):
        from hsiladder import ConfigError

        with pytest.raises(ConfigError, match="std"):
            ops.add_gaussian_noise(Tensor(np.zeros(2)), std, Rng(0))

    def test_constant_in_backward(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(ops.add_gaussian_noise(x, 0.5, Rng(3)))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones(4))


class TestBackwardSemantics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(9).standard_normal((3, 4)), requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(ops.square(x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_multiple_uses_sum_contributions(self):
        x = Tensor([2.0], requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(ops.add(ops.mul(x, x), x))  # x^2 + x
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_on_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            out = ops.square(x)
        with pytest.raises(GraphError):
            tape.backward(out)

    def test_backward_twice_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(x)
        tape.backward(loss)
        with pytest.raises(GraphError):
            tape.backward(loss)


@pytest.fixture
def refcount_only():
    """The cycle collector off for the test: whatever it sees freed was
    freed by refcount."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.usefixtures("refcount_only")
class TestSavedArrays:
    """The tape keeps only the arrays a backward formula reads, holds no
    reference cycle and lets go of them once backward has run."""

    def test_output_no_backward_reads_is_freed_when_the_forward_drops_it(self):
        x = Tensor(np.random.default_rng(11).standard_normal((5, 3)), requires_grad=True)
        with GradTape() as tape:
            h = ops.add(x, 1.0)
            h_data = weakref.ref(h.data)
            y = ops.sigmoid(h)  # its backward reads its own output, not h
            del h
            assert h_data() is None
            loss = ops.sum_all(y)
        tape.backward(loss)
        s = ops._sigmoid(x.data + 1.0)
        np.testing.assert_array_equal(x.grad, s * (1.0 - s))

    def test_backward_lets_go_of_every_saved_array(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        with GradTape() as tape:
            h = ops.sigmoid(ops.matmul(x, w))
            h_data = weakref.ref(h.data)  # read by the sigmoid and square backwards
            loss = ops.sum_all(ops.square(h))
            del h
        assert h_data() is not None
        tape.backward(loss)
        # the tape and the loss are both still alive
        assert h_data() is None
        assert all(node.backward_fn is None and node.inputs == () for node in tape.nodes)
        assert loss.node is tape.nodes[-1]

    def test_a_closure_lets_go_of_its_arrays_before_the_next_node_runs(self):
        x = Tensor(np.random.default_rng(14).standard_normal((4, 3)), requires_grad=True)
        with GradTape() as tape:
            e = ops.exp(ops.mul(x, 2.0))
            e_data = weakref.ref(e.data)  # read by the exp backward only
            loss = ops.sum_all(e)
            del e
        assert [node.name for node in tape.nodes] == ["mul", "exp", "sum_all"]
        mul_node = tape.nodes[0]
        mul_backward = mul_node.backward_fn
        alive = []

        def watched(g):
            alive.append(e_data() is not None)
            return mul_backward(g)

        mul_node.backward_fn = watched
        tape.backward(loss)
        assert alive == [False]
        np.testing.assert_array_equal(x.grad, 2.0 * np.exp(2.0 * x.data))

    def test_a_graph_without_backward_is_freed_by_refcount(self):
        x = Tensor(np.random.default_rng(13).standard_normal((4, 3)), requires_grad=True)
        with GradTape() as tape:
            h = ops.exp(x)
            h_data = weakref.ref(h.data)
            loss = ops.sum_all(ops.mul(h, x))
        del tape, h
        assert h_data() is not None  # the loss still links to the graph
        del loss
        assert h_data() is None

    def test_tensor_from_another_tape_is_a_leaf_there(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        z = ops.mul(x, 3.0)  # produced on no tape
        with GradTape() as first:
            y = ops.mul(x, 2.0)
        with GradTape() as second:
            loss = ops.sum_all(ops.add(ops.square(y), z))
        second.backward(loss)
        np.testing.assert_array_equal(y.grad, 2.0 * y.data)
        np.testing.assert_array_equal(z.grad, np.ones(3))
        assert x.grad is None
        assert all(node.grad is None for node in first.nodes)
        assert [node.name for node in second.nodes] == ["square", "add", "sum_all"]


def _proj(shape, seed):
    return Tensor(np.random.default_rng(seed).standard_normal(shape))


class TestFiniteDifferences:
    """Central-difference checks for every differentiable op (grid of random
    shapes per op via the seed parametrization)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(2, 5, size=3)
        a = Tensor(rng.standard_normal((m, k)), requires_grad=True)
        b = Tensor(rng.standard_normal((k, n)), requires_grad=True)
        c = _proj((m, n), seed + 100)
        fd_gradcheck(lambda: ops.sum_all(ops.mul(ops.matmul(a, b), c)), [a, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_conv2d(self, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(3, 6, size=2)
        ci, co = rng.integers(1, 4, size=2)
        x = Tensor(rng.standard_normal((2, h, w, ci)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 3, ci, co)), requires_grad=True)
        c = _proj((2, h - 2, w - 2, co), seed + 100)
        fd_gradcheck(lambda: ops.sum_all(ops.mul(ops.conv2d(x, k), c)), [x, k])

    @pytest.mark.parametrize("seed", range(5))
    def test_conv2d_transpose(self, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(2, 5, size=2)
        ci, co = rng.integers(1, 4, size=2)
        x = Tensor(rng.standard_normal((2, h, w, ci)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 3, ci, co)), requires_grad=True)
        c = _proj((2, h + 2, w + 2, co), seed + 100)
        fd_gradcheck(lambda: ops.sum_all(ops.mul(ops.conv2d_transpose(x, k), c)), [x, k])

    @pytest.mark.parametrize("seed", range(5))
    def test_batchnorm_train(self, seed):
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(3, 7)), int(rng.integers(1, 5))
        x = Tensor(rng.standard_normal((n, f)) * 2.0 + 1.0, requires_grad=True)
        c = _proj((n, f), seed + 100)
        fd_gradcheck(lambda: ops.sum_all(ops.mul(ops.batchnorm(x)[0], c)), [x])

    @pytest.mark.parametrize("seed", range(3))
    def test_batchnorm_train_conv(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 3, 2, 2)) + 0.5, requires_grad=True)
        c = _proj((3, 3, 2, 2), seed + 100)
        fd_gradcheck(lambda: ops.sum_all(ops.mul(ops.batchnorm(x)[0], c)), [x])

    @pytest.mark.parametrize("seed", range(5))
    def test_elementwise_broadcasting(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3) + 2.5, requires_grad=True)  # away from 0

        def loss():
            t = ops.add(a, b)
            t = ops.mul(t, b)
            t = ops.sub(t, a)
            t = ops.div(t, b)
            return ops.sum_all(ops.square(t))

        fd_gradcheck(loss, [a, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_unary_chain(self, seed):
        rng = np.random.default_rng(seed)
        # keep relu inputs away from the kink and sqrt inputs positive
        x = Tensor(rng.standard_normal((3, 4)) + np.where(rng.standard_normal((3, 4)) > 0, 0.5, -0.5),
                   requires_grad=True)

        def loss():
            t = ops.relu(x)
            t = ops.add(t, 0.7)
            t = ops.sqrt(ops.square(t))
            t = ops.sigmoid(t)
            t = ops.exp(ops.mul(t, 0.3))
            return ops.sum_all(t)

        fd_gradcheck(loss, [x])

    @pytest.mark.parametrize("seed", range(5))
    def test_log_softmax_nll(self, seed):
        rng = np.random.default_rng(seed)
        n, c = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        x = Tensor(rng.standard_normal((n, c)), requires_grad=True)
        targets = rng.integers(0, c, size=n)
        fd_gradcheck(lambda: ops.nll_loss(ops.log_softmax(x), targets), [x])

    @pytest.mark.parametrize("seed", range(5))
    def test_reductions_and_shapes(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((4, 2, 3)), requires_grad=True)

        def loss():
            m = ops.reduce_mean(x, (0, 1))
            t = ops.sub(x, m)
            t = ops.reshape(t, (4, 6))
            t = ops.slice_rows(t, 2)
            return ops.sum_all(ops.square(t))

        fd_gradcheck(loss, [x])

    @pytest.mark.parametrize("seed", range(3))
    def test_noise_passthrough(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

        def loss():
            noisy = ops.add_gaussian_noise(x, 0.5, Rng(seed + 50))
            return ops.sum_all(ops.square(noisy))

        fd_gradcheck(loss, [x])


class TestStepArena:
    """Large arrays of a step come from reused arena ranges; none is reused
    while any view of it lives."""

    SHAPE = (ARENA_MIN_BYTES // 8 + 8,)  # just over the threshold in f64

    def test_outside_a_step_empty_is_an_owning_ndarray(self):
        a = tensor.empty(self.SHAPE, np.float64)
        assert a.flags.owndata and a.base is None

    def test_inside_a_step_large_requests_are_aligned_arena_views(self):
        with GradTape():
            big = tensor.empty(self.SHAPE, np.float64)
            small = tensor.empty((100,), np.float64)
        assert not big.flags.owndata and big.flags.writeable
        assert big.ctypes.data % 64 == 0
        assert small.flags.owndata

    def test_a_view_keeps_its_range_reserved(self):
        _, busy = arena_usage()
        with GradTape():
            a = tensor.empty(self.SHAPE, np.float64)
        a[:] = 7.0
        view = a.reshape(-1, 8).T[2:5]
        nbytes = arena_usage()[1] - busy
        assert nbytes >= a.nbytes
        addr = a.ctypes.data
        del a
        assert arena_usage()[1] - busy == nbytes
        with GradTape():
            b = tensor.empty(self.SHAPE, np.float64)
        b[:] = -1.0
        assert b.ctypes.data != addr
        assert np.all(view == 7.0)
        del view, b
        assert arena_usage()[1] == busy
        with GradTape():
            # the first fit is the range just released
            assert tensor.empty(self.SHAPE, np.float64).ctypes.data == addr

    def test_a_request_larger_than_a_chunk_grows_the_arena(self):
        reserved, _ = arena_usage()
        n = tensor._CHUNK_BYTES // 8 + 1
        with GradTape():
            big = tensor.empty((n,), np.float64)
        big[-1] = 1.0
        assert arena_usage()[0] >= reserved + big.nbytes
        assert big.ctypes.data % 64 == 0

    @staticmethod
    def steps(dtype, use_decoder: bool, count: int, kept=None) -> bytes:
        """``count`` paper-scale training steps on fixed random input: the
        losses, parameters and running statistics as bytes.  The first
        step's decoded level 1 and a copy of it go into ``kept`` when given."""
        net = LadderNetwork(paper_conv_spec(), Rng(3), dtype=dtype)
        adam = Adam(net.params, 0.01)
        noise = Rng(4)
        gen = np.random.default_rng(5)
        out = []
        for i in range(count):
            batch = gen.standard_normal((200, 7, 7, 15)).astype(dtype)
            targets = gen.integers(0, 9, 100)
            net.zero_grads()
            with GradTape() as tape:
                loss, _, _, z_hat = net.training_loss(batch, 100, targets, noise, use_decoder=use_decoder)
            if i == 0 and kept is not None:
                kept += [z_hat[1].data, z_hat[1].data.copy()]
            tape.backward(loss)
            adam.step()
            out.append(loss.data.tobytes())
        out += [p.data.tobytes() for p in net.params.values()]
        out += [rs.mean.tobytes() + rs.var.tobytes() for rs in net.running.values()]
        return b"".join(out)

    def test_a_kept_decoded_level_is_unchanged_by_the_next_step(self):
        kept = []
        self.steps(np.float64, True, 2, kept)
        level1, before = kept
        assert level1.nbytes >= ARENA_MIN_BYTES and not level1.flags.owndata
        np.testing.assert_array_equal(level1, before)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("use_decoder", [True, False])
    def test_paper_steps_same_bits_when_no_range_is_reused(self, monkeypatch, dtype, use_decoder):
        reused = self.steps(dtype, use_decoder, 2)
        kept = []
        take = tensor._ARENA.take

        def take_and_keep(*args):
            kept.append(take(*args))
            return kept[-1]

        monkeypatch.setattr(tensor._ARENA, "take", take_and_keep)
        assert self.steps(dtype, use_decoder, 2) == reused
        assert kept
        monkeypatch.setattr(tensor._ARENA, "take", lambda shape, dtype, nbytes: np.empty(shape, dtype))
        assert self.steps(dtype, use_decoder, 2) == reused

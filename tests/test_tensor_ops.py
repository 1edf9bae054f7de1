"""Tensor core: oracle equivalence, gradient correctness, tape semantics."""

import numpy as np
import pytest

from hsiladder import GradTape, GraphError, Rng, ShapeError, Tensor
from hsiladder import ops

from helpers import conv2d_oracle, fd_gradcheck, matmul_oracle


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


class TestBatchnorm:
    def test_two_point_column(self):
        x = Tensor(np.array([[2.0], [4.0]]))
        out = ops.batchnorm(x, "train")
        np.testing.assert_allclose(out.data[:, 0], [-1.0, 1.0], atol=1e-5)

    def test_constant_column_guarded_by_eps(self):
        x = Tensor(np.full((3, 1), 5.0))
        out = ops.batchnorm(x, "train")
        np.testing.assert_array_equal(out.data, np.zeros((3, 1)))

    def test_random_batch_standardized(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((8, 4)) * 3.0 + 1.0)
        out = ops.batchnorm(x, "train").data
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-6

    def test_conv_input_per_channel(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((4, 3, 3, 2)) * 2.0 + 0.5)
        out = ops.batchnorm(x, "train").data
        assert np.abs(out.mean(axis=(0, 1, 2))).max() < 1e-10
        assert np.abs(out.var(axis=(0, 1, 2)) - 1.0).max() < 1e-6

    def test_batch_of_one_rejected_in_train(self):
        with pytest.raises(ShapeError):
            ops.batchnorm(Tensor(np.zeros((1, 3))), "train")

    def test_running_stats_and_eval(self):
        rng = np.random.default_rng(6)
        running = ops.RunningStats.for_features(3)
        x1 = rng.standard_normal((16, 3)) * 2.0 + 1.0
        ops.batchnorm(Tensor(x1), "train", running=running)
        # first batch seeds the averages
        np.testing.assert_allclose(running.mean, x1.mean(axis=0))
        x2 = rng.standard_normal((16, 3))
        ops.batchnorm(Tensor(x2), "train", running=running)
        expect = 0.99 * x1.mean(axis=0) + 0.01 * x2.mean(axis=0)
        np.testing.assert_allclose(running.mean, expect)
        # eval on a batch of one is allowed and uses the running stats
        single = Tensor(x1[:1])
        out = ops.batchnorm(single, "eval", running=running)
        np.testing.assert_allclose(
            out.data, (x1[:1] - running.mean) / np.sqrt(running.var + ops.BN_EPS)
        )

    def test_eval_without_running_stats_rejected(self):
        with pytest.raises(GraphError):
            ops.batchnorm(Tensor(np.zeros((2, 3))), "eval")


class TestActivationsAndLoss:
    def test_relu(self):
        out = ops.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_cross_entropy_uniform_nine_classes(self):
        logits = Tensor(np.zeros((4, 9)))
        loss = ops.cross_entropy(logits, np.array([0, 3, 5, 8]))
        assert abs(loss.item() - np.log(9.0)) < 1e-12

    def test_softmax_huge_logits_no_overflow(self):
        out = ops.softmax(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        out = ops.softmax(Tensor(rng.standard_normal((6, 5)) * 10.0))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(6), atol=1e-9)

    def test_target_out_of_range(self):
        with pytest.raises(ShapeError):
            ops.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

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

    def test_replay_reproduces_outputs(self):
        x = Tensor(np.random.default_rng(10).standard_normal((4, 3)), requires_grad=True)
        with GradTape() as tape:
            h = ops.relu(ops.batchnorm(x, "train"))
            noisy = ops.add_gaussian_noise(h, 0.3, Rng(5))
            ops.sum_all(ops.square(noisy))
        assert tape.verify_replay()


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
        fd_gradcheck(lambda: ops.sum_all(ops.mul(ops.batchnorm(x, "train"), c)), [x])

    @pytest.mark.parametrize("seed", range(3))
    def test_batchnorm_train_conv(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 3, 2, 2)) + 0.5, requires_grad=True)
        c = _proj((3, 3, 2, 2), seed + 100)
        fd_gradcheck(lambda: ops.sum_all(ops.mul(ops.batchnorm(x, "train"), c)), [x])

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
            t = ops.exp(ops.scale(t, 0.3))
            return ops.sum_all(t)

        fd_gradcheck(loss, [x])

    @pytest.mark.parametrize("seed", range(5))
    def test_log_softmax_nll(self, seed):
        rng = np.random.default_rng(seed)
        n, c = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        x = Tensor(rng.standard_normal((n, c)), requires_grad=True)
        targets = rng.integers(0, c, size=n)
        fd_gradcheck(lambda: ops.cross_entropy(x, targets), [x])

    @pytest.mark.parametrize("seed", range(5))
    def test_reductions_and_shapes(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((4, 2, 3)), requires_grad=True)

        def loss():
            m = ops.reduce_mean(x, (0, 1), keepdims=True)
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

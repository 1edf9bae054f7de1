"""Differentiable operations over :class:`~hsiladder.tensor.Tensor`.

Every op computes its result eagerly in numpy (convolutions go through
:mod:`~hsiladder.kernels`) and, when a tape is active and the result requires a
gradient, records a node with an analytic backward closure.  All backward
formulas are checked against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, GraphError, ShapeError
from .rng import Rng
from .tensor import GradTape, Tensor, active_tape

BN_EPS = 1e-6
BN_MOMENTUM = 0.99


def _record(name, inputs, out, backward_fn, forward_fn):
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(name, inputs, out, backward_fn, forward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


# ---------------------------------------------------------------------------
# elementwise arithmetic (broadcasting)
# ---------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad)
    na, nb = a.requires_grad, b.requires_grad

    def backward(g):
        return (
            _unbroadcast(g, a.data.shape) if na else None,
            _unbroadcast(g, b.data.shape) if nb else None,
        )

    return _record("add", (a, b), out, backward, lambda: a.data + b.data)


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = Tensor(a.data - b.data, requires_grad=a.requires_grad or b.requires_grad)
    na, nb = a.requires_grad, b.requires_grad

    def backward(g):
        return (
            _unbroadcast(g, a.data.shape) if na else None,
            _unbroadcast(-g, b.data.shape) if nb else None,
        )

    return _record("sub", (a, b), out, backward, lambda: a.data - b.data)


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad)
    na, nb = a.requires_grad, b.requires_grad

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if na else None,
            _unbroadcast(g * a.data, b.data.shape) if nb else None,
        )

    return _record("mul", (a, b), out, backward, lambda: a.data * b.data)


def div(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = Tensor(a.data / b.data, requires_grad=a.requires_grad or b.requires_grad)
    na, nb = a.requires_grad, b.requires_grad

    def backward(g):
        ga = _unbroadcast(g / b.data, a.data.shape) if na else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if nb else None
        return ga, gb

    return _record("div", (a, b), out, backward, lambda: a.data / b.data)


def square(x: Tensor) -> Tensor:
    out = Tensor(x.data * x.data, requires_grad=x.requires_grad)

    def backward(g):
        return (2.0 * x.data * g,)

    return _record("square", (x,), out, backward, lambda: x.data * x.data)


def sqrt(x: Tensor) -> Tensor:
    out = Tensor(np.sqrt(x.data), requires_grad=x.requires_grad)
    out_data = out.data

    def backward(g):
        return (g * 0.5 / out_data,)

    return _record("sqrt", (x,), out, backward, lambda: np.sqrt(x.data))


def exp(x: Tensor) -> Tensor:
    out = Tensor(np.exp(x.data), requires_grad=x.requires_grad)
    out_data = out.data

    def backward(g):
        return (g * out_data,)

    return _record("exp", (x,), out, backward, lambda: np.exp(x.data))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c, requires_grad=x.requires_grad)

    def backward(g):
        return (g * c,)

    return _record("scale", (x,), out, backward, lambda: x.data * c)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0), requires_grad=x.requires_grad)

    def backward(g):
        return (g * (x.data > 0),)

    return _record("relu", (x,), out, backward, lambda: np.maximum(x.data, 0))


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-v) in log space: no overflow, and the v << 0 tail stays
    # nonzero down to the dtype's subnormals
    return np.exp(-np.logaddexp(0.0, -v))


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    out = Tensor(s, requires_grad=x.requires_grad)

    def backward(g):
        return (g * s * (1.0 - s),)

    return _record("sigmoid", (x,), out, backward, lambda: _sigmoid(x.data))


def _log_softmax(v: np.ndarray) -> np.ndarray:
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-probabilities, stabilized by max subtraction."""
    ls = _log_softmax(x.data)
    out = Tensor(ls, requires_grad=x.requires_grad)

    def backward(g):
        return (g - np.exp(ls) * g.sum(axis=-1, keepdims=True),)

    return _record("log_softmax", (x,), out, backward, lambda: _log_softmax(x.data))


def softmax(x: Tensor) -> Tensor:
    return exp(log_softmax(x))


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under log-probs."""
    targets = np.asarray(targets)
    n, c = log_probs.data.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match batch {n}")
    if n == 0:
        raise ShapeError("empty batch in nll_loss")
    if targets.min() < 0 or targets.max() >= c:
        raise ShapeError(f"target index out of range [0, {c}): {targets.min()}..{targets.max()}")
    rows = np.arange(n)

    def compute():
        return np.asarray(-log_probs.data[rows, targets].mean(), dtype=log_probs.dtype)

    out = Tensor(compute(), requires_grad=log_probs.requires_grad)

    def backward(g):
        gl = np.zeros_like(log_probs.data)
        gl[rows, targets] = -g / n
        return (gl,)

    return _record("nll_loss", (log_probs,), out, backward, compute)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean NLL of targets under softmax(logits)."""
    return nll_loss(log_softmax(logits), targets)


# ---------------------------------------------------------------------------
# linear algebra and convolution
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad)
    na, nb = a.requires_grad, b.requires_grad

    def backward(g):
        ga = g @ b.data.T if na else None
        gb = a.data.T @ g if nb else None
        return ga, gb

    return _record("matmul", (a, b), out, backward, lambda: a.data @ b.data)


def conv2d(x: Tensor, k: Tensor) -> Tensor:
    """Valid stride-1 cross-correlation; x is NHWC, k is (kh, kw, cin, cout)."""
    y = kernels.conv2d_forward(x.data, k.data)
    out = Tensor(y, requires_grad=x.requires_grad or k.requires_grad)
    nx, nk = x.requires_grad, k.requires_grad
    _, h, w, _ = x.data.shape
    kh, kw = k.data.shape[0], k.data.shape[1]

    def backward(g):
        gx = kernels.conv2d_input_grad(g, k.data, h, w) if nx else None
        gk = kernels.conv2d_kernel_grad(x.data, g, kh, kw) if nk else None
        return gx, gk

    return _record("conv2d", (x, k), out, backward, lambda: kernels.conv2d_forward(x.data, k.data))


def conv2d_transpose(x: Tensor, k: Tensor) -> Tensor:
    """Transposed (full) valid convolution; maps (b,h,w,cin) to
    (b, h+kh-1, w+kw-1, cout) with k of shape (kh, kw, cin, cout)."""
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeError(f"conv2d_transpose needs 4-d operands, got {x.data.shape} and {k.data.shape}")
    if k.data.shape[2] != x.data.shape[3]:
        raise ShapeError(
            f"conv2d_transpose channel mismatch: input {x.data.shape}, kernel {k.data.shape}"
        )
    _, h, w, _ = x.data.shape
    kh, kw = k.data.shape[0], k.data.shape[1]
    oh, ow = h + kh - 1, w + kw - 1

    def compute():
        return kernels.conv2d_input_grad(x.data, k.data.transpose(0, 1, 3, 2), oh, ow)

    out = Tensor(compute(), requires_grad=x.requires_grad or k.requires_grad)
    nx, nk = x.requires_grad, k.requires_grad

    def backward(g):
        gx = kernels.conv2d_forward(g, k.data.transpose(0, 1, 3, 2)) if nx else None
        gk = kernels.conv2d_kernel_grad(g, x.data, kh, kw).transpose(0, 1, 3, 2) if nk else None
        return gx, gk

    return _record("conv2d_transpose", (x, k), out, backward, compute)


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = Tensor(x.data.reshape(shape), requires_grad=x.requires_grad)

    def backward(g):
        return (g.reshape(x.data.shape),)

    return _record("reshape", (x,), out, backward, lambda: x.data.reshape(shape))


def flatten(x: Tensor) -> Tensor:
    """Collapse all trailing axes into one (keeps the batch axis)."""
    return reshape(x, (x.data.shape[0], -1))


def slice_rows(x: Tensor, stop: int) -> Tensor:
    """First ``stop`` rows along the batch axis."""
    out = Tensor(x.data[:stop].copy(), requires_grad=x.requires_grad)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[:stop] = g
        return (gx,)

    return _record("slice_rows", (x,), out, backward, lambda: x.data[:stop].copy())


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum(), dtype=x.dtype), requires_grad=x.requires_grad)

    def backward(g):
        return (np.broadcast_to(g, x.data.shape).astype(x.dtype, copy=False),)

    return _record("sum_all", (x,), out, backward, lambda: np.asarray(x.data.sum(), dtype=x.dtype))


def reduce_mean(x: Tensor, axes: tuple, keepdims: bool = True) -> Tensor:
    axes = tuple(axes)
    out = Tensor(x.data.mean(axis=axes, keepdims=keepdims), requires_grad=x.requires_grad)
    count = int(np.prod([x.data.shape[a] for a in axes]))

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, x.data.shape) / count,)

    return _record(
        "reduce_mean", (x,), out, backward, lambda: x.data.mean(axis=axes, keepdims=keepdims)
    )


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


@dataclass
class RunningStats:
    """Exponential-average feature statistics for eval-mode normalization."""

    mean: np.ndarray
    var: np.ndarray
    initialized: bool = field(default=False)

    @classmethod
    def for_features(cls, n: int, dtype=np.float64) -> "RunningStats":
        return cls(mean=np.zeros(n, dtype=dtype), var=np.ones(n, dtype=dtype))

    def update(self, mean: np.ndarray, var: np.ndarray, momentum: float = BN_MOMENTUM) -> None:
        if not self.initialized:
            # first batch seeds the averages so early eval is not pulled
            # toward the arbitrary (0, 1) prior
            self.mean = mean.astype(self.mean.dtype)
            self.var = var.astype(self.var.dtype)
            self.initialized = True
            return
        self.mean = momentum * self.mean + (1.0 - momentum) * mean
        self.var = momentum * self.var + (1.0 - momentum) * var


def _bn_axes(x: np.ndarray) -> tuple:
    if x.ndim == 2:
        return (0,)
    if x.ndim == 4:
        return (0, 1, 2)
    raise ShapeError(f"batchnorm expects 2-d or 4-d input, got shape {x.shape}")


def batchnorm(
    x: Tensor,
    mode: str,
    running: RunningStats | None = None,
    eps: float = BN_EPS,
    update_running: bool = True,
) -> Tensor:
    """Per-feature standardization.

    ``train`` normalizes by batch statistics (and folds them into ``running``
    when given); ``eval`` normalizes by the running statistics.  Statistics
    are per feature for 2-d input and per channel over batch x height x width
    for 4-d input.  The backward pass differentiates through the batch
    statistics (full batchnorm gradient).
    """
    axes = _bn_axes(x.data)
    if mode == "train":
        n = int(np.prod([x.data.shape[a] for a in axes]))
        if n < 2:
            raise ShapeError("batchnorm in train mode needs a batch of at least 2")

        def compute():
            mu = x.data.mean(axis=axes, keepdims=True)
            var = x.data.var(axis=axes, keepdims=True)
            return (x.data - mu) * (1.0 / np.sqrt(var + eps))

        mu = x.data.mean(axis=axes, keepdims=True)
        var = x.data.var(axis=axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mu) * inv_std
        if running is not None and update_running:
            running.update(mu.reshape(-1), var.reshape(-1))
        out = Tensor(xhat, requires_grad=x.requires_grad)

        def backward(g):
            gm = g.mean(axis=axes, keepdims=True)
            gxh = (g * xhat).mean(axis=axes, keepdims=True)
            return (inv_std * (g - gm - xhat * gxh),)

        return _record("batchnorm", (x,), out, backward, compute)

    if mode == "eval":
        if running is None:
            raise GraphError("batchnorm eval mode requires running statistics")
        shape = [1] * x.data.ndim
        shape[-1] = -1
        mu = running.mean.reshape(shape)
        inv_std = 1.0 / np.sqrt(running.var.reshape(shape) + eps)

        def compute():
            return (x.data - mu) * inv_std

        out = Tensor(compute(), requires_grad=x.requires_grad)

        def backward(g):
            return (g * inv_std,)

        return _record("batchnorm", (x,), out, backward, compute)

    raise ConfigError(f"batchnorm mode must be 'train' or 'eval', got {mode!r}")


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------


def add_gaussian_noise(x: Tensor, std: float, rng: Rng) -> Tensor:
    """x + eps with eps ~ N(0, std^2); eps is a constant in the backward pass."""
    if std < 0:
        raise ConfigError(f"noise std must be >= 0, got {std}")
    if std == 0.0:
        eps = None
        out = Tensor(x.data.copy(), requires_grad=x.requires_grad)
    else:
        eps = rng.normal(std, x.data.shape, dtype=x.dtype)
        out = Tensor(x.data + eps, requires_grad=x.requires_grad)

    def backward(g):
        return (g,)

    def compute():
        return x.data.copy() if eps is None else x.data + eps

    return _record("gaussian_noise", (x,), out, backward, compute)

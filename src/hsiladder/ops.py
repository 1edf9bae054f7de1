"""Differentiable operations over :class:`~hsiladder.tensor.Tensor`.

Every op computes its result eagerly in numpy (convolutions go through
:mod:`~hsiladder.kernels`) and, when a tape is active and the result requires a
gradient, records a node with an analytic backward closure.  All backward
formulas are checked against central finite differences in the test suite.

A backward closure captures arrays, never tensors, and only those its
formula reads: an operand of a product, quotient or convolution only when
the other input's gradient needs it, the input of ``square``, the op's own
output for ``relu``, ``sigmoid``, ``exp``, ``sqrt``, ``log_softmax`` and
``batchnorm``, and shapes alone for the rest.  Anything else a forward makes
is freed as soon as the forward drops it; nothing is kept to replay one.

Outputs come through :func:`~hsiladder.tensor.empty`: each op and backward
closure calls its ufunc with ``out=ufunc_out(...)``, which is None for a
small result (numpy allocates it) and a step-arena array for a large one
inside a step.  The ufuncs and their order are those of the plain
expressions, so the bits are too.

Ops hold no state: each is a function of its inputs, and ``batchnorm``
returns the batch mean and variance it normalized by next to its output.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ShapeError, as_real
from .rng import Rng
from .tensor import GradTape, Tensor, active_tape, empty, ufunc_out

BN_EPS = 1e-6


def _record(name, inputs, out, backward_fn):
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(name, inputs, out, backward_fn, None)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
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
    ad, bd = a.data, b.data
    na, nb = a.requires_grad, b.requires_grad
    out = Tensor(np.add(ad, bd, out=ufunc_out(ad, bd)), requires_grad=na or nb)
    sa, sb = ad.shape, bd.shape

    def backward(g):
        return (
            _unbroadcast(g, sa) if na else None,
            _unbroadcast(g, sb) if nb else None,
        )

    return _record("add", (a, b), out, backward)


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    ad, bd = a.data, b.data
    na, nb = a.requires_grad, b.requires_grad
    out = Tensor(np.subtract(ad, bd, out=ufunc_out(ad, bd)), requires_grad=na or nb)
    sa, sb = ad.shape, bd.shape

    def backward(g):
        return (
            _unbroadcast(g, sa) if na else None,
            _unbroadcast(np.negative(g, out=ufunc_out(g)), sb) if nb else None,
        )

    return _record("sub", (a, b), out, backward)


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    ad, bd = a.data, b.data
    na, nb = a.requires_grad, b.requires_grad
    out = Tensor(np.multiply(ad, bd, out=ufunc_out(ad, bd)), requires_grad=na or nb)
    sa, sb = ad.shape, bd.shape
    # each operand is kept only for the other's gradient
    ad = ad if nb else None
    bd = bd if na else None

    def backward(g):
        return (
            _unbroadcast(np.multiply(g, bd, out=ufunc_out(g, bd)), sa) if na else None,
            _unbroadcast(np.multiply(g, ad, out=ufunc_out(g, ad)), sb) if nb else None,
        )

    return _record("mul", (a, b), out, backward)


def div(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    ad, bd = a.data, b.data
    na, nb = a.requires_grad, b.requires_grad
    out = Tensor(np.divide(ad, bd, out=ufunc_out(ad, bd)), requires_grad=na or nb)
    sa, sb = ad.shape, bd.shape
    ad = ad if nb else None

    def backward(g):
        ga = _unbroadcast(np.divide(g, bd, out=ufunc_out(g, bd)), sa) if na else None
        gb = None
        if nb:
            t = np.negative(g, out=ufunc_out(g))
            t *= ad
            t /= np.multiply(bd, bd, out=ufunc_out(bd))
            gb = _unbroadcast(t, sb)
        return ga, gb

    return _record("div", (a, b), out, backward)


def square(x: Tensor) -> Tensor:
    xd = x.data
    out = Tensor(np.multiply(xd, xd, out=ufunc_out(xd)), requires_grad=x.requires_grad)

    def backward(g):
        t = np.multiply(2.0, xd, out=ufunc_out(xd))
        t *= g
        return (t,)

    return _record("square", (x,), out, backward)


def sqrt(x: Tensor) -> Tensor:
    out = Tensor(np.sqrt(x.data, out=ufunc_out(x.data)), requires_grad=x.requires_grad)
    out_data = out.data

    def backward(g):
        t = np.multiply(g, 0.5, out=ufunc_out(g))
        return (np.divide(t, out_data, out=ufunc_out(t, out_data)),)

    return _record("sqrt", (x,), out, backward)


def exp(x: Tensor) -> Tensor:
    out = Tensor(np.exp(x.data, out=ufunc_out(x.data)), requires_grad=x.requires_grad)
    out_data = out.data

    def backward(g):
        return (np.multiply(g, out_data, out=ufunc_out(g, out_data)),)

    return _record("exp", (x,), out, backward)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0, out=ufunc_out(x.data)), requires_grad=x.requires_grad)
    out_data = out.data

    def backward(g):
        # max(x, 0) > 0 exactly where x > 0 (NaN and -0.0 included), so the
        # output gives the input's mask
        mask = out_data > 0
        return (np.multiply(g, mask, out=ufunc_out(g, mask)),)

    return _record("relu", (x,), out, backward)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function from one exp of -|v|, which never overflows.

    With ``e = exp(-|v|)`` and ``r = 1 / (1 + e)`` the result is ``r`` for
    v >= 0 and ``e * r`` below, so the v << 0 tail stays nonzero down to the
    dtype's subnormals (the tanh form is exactly 0 below v = -37 in f64).
    The branch is a multiply by ``max(e, v >= 0)``, exactly 1.0 or ``e``,
    rather than a select: a select on a sign mask that is random in practice
    costs more than all the arithmetic, and this form gives the select's
    bits (NaN included) with two fresh arrays.
    """
    e = np.abs(v, out=empty(v.shape, v.dtype))
    np.negative(e, out=e)
    np.exp(e, out=e)
    r = np.add(e, 1.0, out=empty(e.shape, e.dtype))
    np.divide(1.0, r, out=r)
    np.maximum(e, v >= 0, out=e)
    r *= e
    return r


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    out = Tensor(s, requires_grad=x.requires_grad)

    def backward(g):
        t = np.multiply(g, s, out=ufunc_out(g, s))
        t *= np.subtract(1.0, s, out=ufunc_out(s))
        return (t,)

    return _record("sigmoid", (x,), out, backward)


def _log_softmax(v: np.ndarray) -> np.ndarray:
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-probabilities, stabilized by max subtraction."""
    ls = _log_softmax(x.data)
    out = Tensor(ls, requires_grad=x.requires_grad)

    def backward(g):
        return (g - np.exp(ls) * g.sum(axis=-1, keepdims=True),)

    return _record("log_softmax", (x,), out, backward)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under log-probs."""
    targets = np.asarray(targets)
    if targets.dtype.kind not in "iu":
        raise ShapeError(f"targets must be integer class indices, got dtype {targets.dtype}")
    n, c = log_probs.data.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match batch {n}")
    if n == 0:
        raise ShapeError("empty batch in nll_loss")
    if targets.min() < 0 or targets.max() >= c:
        raise ShapeError(f"target index out of range [0, {c}): {targets.min()}..{targets.max()}")
    rows = np.arange(n)
    dtype = log_probs.dtype
    out = Tensor(
        np.asarray(-log_probs.data[rows, targets].mean(), dtype=dtype),
        requires_grad=log_probs.requires_grad,
    )

    def backward(g):
        gl = np.zeros((n, c), dtype=dtype)
        gl[rows, targets] = -g / n
        return (gl,)

    return _record("nll_loss", (log_probs,), out, backward)


# ---------------------------------------------------------------------------
# linear algebra and convolution
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(kernels.gemm(a.data, b.data), requires_grad=a.requires_grad or b.requires_grad)
    na, nb = a.requires_grad, b.requires_grad
    ad = a.data if nb else None
    bd = b.data if na else None

    def backward(g):
        ga = kernels.gemm(g, bd.T) if na else None
        gb = kernels.gemm(ad.T, g) if nb else None
        return ga, gb

    return _record("matmul", (a, b), out, backward)


def conv2d(x: Tensor, k: Tensor) -> Tensor:
    """Valid stride-1 cross-correlation; x is NHWC, k is (kh, kw, cin, cout)."""
    y = kernels.conv2d_forward(x.data, k.data)
    out = Tensor(y, requires_grad=x.requires_grad or k.requires_grad)
    nx, nk = x.requires_grad, k.requires_grad
    _, h, w, _ = x.data.shape
    kh, kw = k.data.shape[0], k.data.shape[1]
    xd = x.data if nk else None
    kd = k.data if nx else None

    def backward(g):
        gx = kernels.conv2d_input_grad(g, kd, h, w) if nx else None
        gk = kernels.conv2d_kernel_grad(xd, g, kh, kw) if nk else None
        return gx, gk

    return _record("conv2d", (x, k), out, backward)


def conv2d_transpose(x: Tensor, k: Tensor) -> Tensor:
    """Transposed (full) valid convolution; maps (b,h,w,cin) to
    (b, h+kh-1, w+kw-1, cout) with k of shape (kh, kw, cin, cout)."""
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeError(f"conv2d_transpose needs 4-d operands, got {x.data.shape} and {k.data.shape}")
    if k.data.shape[2] != x.data.shape[3]:
        raise ShapeError(
            f"conv2d_transpose channel mismatch: input {x.data.shape}, kernel {k.data.shape}"
        )
    x_shape = x.data.shape
    kh, kw, ci, co = k.data.shape
    oh, ow = x_shape[1] + kh - 1, x_shape[2] + kw - 1
    y = kernels.conv2d_input_grad(x.data, k.data.transpose(0, 1, 3, 2), oh, ow)
    out = Tensor(y, requires_grad=x.requires_grad or k.requires_grad)
    nx, nk = x.requires_grad, k.requires_grad
    xd = x.data if nk else None
    kd = k.data if nx else None

    def backward(g):
        # one im2col of g serves both gradients: gx = cols @ K, gk from xᵀ @ cols
        cols = kernels.im2col(g, kh, kw)
        gx = gk = None
        if nx:
            gx = kernels.gemm(cols, kd.transpose(0, 1, 3, 2).reshape(-1, ci)).reshape(x_shape)
        if nk:
            gk = kernels.kernel_grad_t(xd, cols).reshape(ci, kh, kw, co).transpose(1, 2, 0, 3)
        return gx, gk

    return _record("conv2d_transpose", (x, k), out, backward)


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    in_shape = x.data.shape
    out = Tensor(x.data.reshape(tuple(shape)), requires_grad=x.requires_grad)

    def backward(g):
        return (g.reshape(in_shape),)

    return _record("reshape", (x,), out, backward)


def slice_rows(x: Tensor, stop: int) -> Tensor:
    """First ``stop`` rows along the batch axis."""
    out = Tensor(x.data[:stop].copy(), requires_grad=x.requires_grad)
    shape, dtype = x.data.shape, x.dtype

    def backward(g):
        gx = np.zeros(shape, dtype=dtype)
        gx[:stop] = g
        return (gx,)

    return _record("slice_rows", (x,), out, backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_all(x: Tensor) -> Tensor:
    shape, dtype = x.data.shape, x.dtype
    out = Tensor(np.asarray(x.data.sum(), dtype=dtype), requires_grad=x.requires_grad)

    def backward(g):
        return (np.broadcast_to(g, shape).astype(dtype, copy=False),)

    return _record("sum_all", (x,), out, backward)


def reduce_mean(x: Tensor, axes: tuple) -> Tensor:
    """Mean over ``axes``, which are kept with length 1."""
    axes = tuple(axes)
    out = Tensor(x.data.mean(axis=axes, keepdims=True), requires_grad=x.requires_grad)
    shape = x.data.shape
    count = int(np.prod([shape[a] for a in axes]))

    def backward(g):
        spread = np.broadcast_to(g, shape)
        return (np.divide(spread, count, out=ufunc_out(spread)),)

    return _record("reduce_mean", (x,), out, backward)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


def batchnorm(x: Tensor) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Per-feature standardization by batch statistics; returns ``(out, mean,
    var)``, the standardized tensor and the batch mean and (biased) variance
    it was standardized by.

    Statistics are per feature for 2-d input and per channel over batch x
    height x width for 4-d input.  The backward pass differentiates through
    the batch statistics (full batchnorm gradient); ``mean`` and ``var`` are
    plain arrays off the tape.  Prediction normalizes by running statistics
    without this op (:meth:`~hsiladder.ladder.LadderNetwork.predict_log_probs`).
    """
    shape = x.data.shape
    if len(shape) not in (2, 4):
        raise ShapeError(f"batchnorm expects 2-d or 4-d input, got shape {shape}")
    # one row per sample (2-d) or per pixel (4-d NHWC)
    x2 = x.data.reshape(-1, shape[-1])
    n = x2.shape[0]
    if n < 2:
        raise ShapeError("batchnorm needs a batch of at least 2")
    mu = x2.sum(axis=0) / n
    xhat = np.subtract(x2, mu, out=ufunc_out(x2))
    var = np.einsum("ij,ij->j", xhat, xhat) / n
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    out = Tensor(xhat.reshape(shape), requires_grad=x.requires_grad)

    def backward(g):
        # inv_std * ((g - mean(g)) - xhat * mean(g * xhat)), updated in place
        # in this order, which keeps every bit of the gradient
        g2 = g.reshape(xhat.shape)
        gx = np.subtract(g2, g2.sum(axis=0) / n, out=ufunc_out(g2))
        gx -= np.multiply(xhat, np.einsum("ij,ij->j", g2, xhat) / n, out=ufunc_out(xhat))
        gx *= inv_std
        return (gx.reshape(shape),)

    return _record("batchnorm", (x,), out, backward), mu, var


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------


def add_gaussian_noise(x: Tensor, std: float, rng: Rng) -> Tensor:
    """x + eps with eps ~ N(0, std^2); eps is a constant in the backward pass."""
    std = as_real("noise std", std)
    xd = x.data
    if std == 0.0:
        data = np.positive(xd, out=ufunc_out(xd))  # a copy, every bit kept
    else:
        eps = rng.normal(std, xd.shape, dtype=x.dtype)
        data = np.add(xd, eps, out=ufunc_out(xd, eps))
    out = Tensor(data, requires_grad=x.requires_grad)

    def backward(g):
        return (g,)

    return _record("gaussian_noise", (x,), out, backward)

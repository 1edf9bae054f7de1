"""Hot convolution kernels: im2col/col2im plus one BLAS matmul each.

All three kernels implement valid (unpadded) stride-1 cross-correlation
over NHWC tensors with (kh, kw, cin, cout) kernels, following Chellapilla
et al. 2006, "High performance convolutional neural networks for document
processing":

    forward      im2col(x) @ K                 K = k.reshape(kh*kw*ci, co)
    input grad   col2im(gy @ K.T)
    kernel grad  (gy.T @ im2col(x)).T

``im2col`` copies every (kh, kw, ci) window into one row, ordered (p, q, c)
like the rows of K; ``col2im`` is its adjoint, a scatter-add of those rows
back onto the input grid with kh*kw strided slice adds.  col2im serves both
the input gradient and ``ops.conv2d_transpose``, which is the same map.
The kernel gradient contracts over the b*oh*ow rows with the small
(co, kh*kw*ci) product as the output, then transposes that view.  The
backward of ``ops.conv2d_transpose`` builds ``im2col`` of its output
gradient once and reads it for both of its gradients: the input's as
``cols @ K`` and the kernel's as ``x.T @ cols`` (``kernel_grad_t``).
Each large result (an im2col matrix, a GEMM product, a col2im sum) is
written into :func:`~hsiladder.tensor.empty`, so inside a training step it
comes from the step arena.  The kernels equal the brute-force definition to
floating-point rounding; the tests check them against loop oracles.
``benchmarks/bench_kernels.py`` times them at the paper conv ladder's three
shapes.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError
from .tensor import ARENA_MIN_BYTES, empty


def active_backend() -> str:
    # the benchmark's environment manifest records this name
    return "numpy"


def _check_conv_shapes(x: np.ndarray, k: np.ndarray) -> None:
    if x.ndim != 4 or k.ndim != 4:
        raise ShapeError(f"conv2d needs 4-d input and kernel, got {x.shape} and {k.shape}")
    if k.shape[2] != x.shape[3]:
        raise ShapeError(
            f"conv2d channel mismatch: input {x.shape} has {x.shape[3]} channels, "
            f"kernel {k.shape} expects {k.shape[2]}"
        )
    if k.shape[0] > x.shape[1] or k.shape[1] > x.shape[2]:
        raise ShapeError(f"kernel {k.shape[:2]} larger than input {x.shape[1:3]}")


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of two matrices, into :func:`~hsiladder.tensor.empty` when
    the product holds at least ``ARENA_MIN_BYTES``."""
    if a.shape[0] * b.shape[1] * a.itemsize < ARENA_MIN_BYTES:
        return a @ b
    return np.matmul(a, b, out=empty((a.shape[0], b.shape[1]), np.result_type(a, b)))


def im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(b*oh*ow, kh*kw*ci) matrix of every window of x, one copy."""
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))  # (b,oh,ow,ci,kh,kw)
    win = win.transpose(0, 1, 2, 4, 5, 3)
    cols = empty((math.prod(win.shape[:3]), kh * kw * x.shape[3]), x.dtype)
    cols.reshape(win.shape)[...] = win
    return cols


def kernel_grad_t(gy: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(co, kh*kw*ci) transposed kernel gradient gy.T @ cols, for a
    (b, oh, ow, co) gradient and the (b*oh*ow, kh*kw*ci) windows it met."""
    return gemm(gy.reshape(-1, gy.shape[3]).T, cols)


def conv2d_forward(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Valid stride-1 cross-correlation, NHWC input x (kh,kw,ci,co) kernel."""
    _check_conv_shapes(x, k)
    kh, kw, _, co = k.shape
    b, h, w, _ = x.shape
    y = gemm(im2col(x, kh, kw), k.reshape(-1, co))
    return y.reshape(b, h - kh + 1, w - kw + 1, co)


def conv2d_input_grad(gy: np.ndarray, k: np.ndarray, h: int, w: int) -> np.ndarray:
    """Gradient of ``conv2d_forward`` w.r.t. its (b, h, w, ci) input."""
    if gy.ndim != 4 or k.ndim != 4:
        raise ShapeError(
            f"conv2d_input_grad needs 4-d gradient and kernel, got {gy.shape} and {k.shape}"
        )
    kh, kw, ci, co = k.shape
    b, oh, ow, gco = gy.shape
    if gco != co:
        raise ShapeError(
            f"conv2d_input_grad channel mismatch: gradient {gy.shape} has {gco} channels, "
            f"kernel {k.shape} has {co} outputs"
        )
    if (oh, ow) != (h - kh + 1, w - kw + 1):
        raise ShapeError(
            f"conv2d_input_grad: gradient {gy.shape} and kernel {k.shape} come from a "
            f"{(oh + kh - 1, ow + kw - 1)} input, not {(h, w)}"
        )
    dcols = gemm(gy.reshape(-1, co), k.reshape(-1, co).T).reshape(b, oh, ow, kh, kw, ci)
    # col2im: each window row adds back onto the input pixels it was read from
    dx = empty((b, h, w, ci), dcols.dtype)
    dx.fill(0)
    for p in range(kh):
        for q in range(kw):
            dx[:, p : p + oh, q : q + ow] += dcols[:, :, :, p, q]
    return dx


def conv2d_kernel_grad(x: np.ndarray, gy: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Gradient of ``conv2d_forward`` w.r.t. its (kh, kw, ci, co) kernel."""
    if x.ndim != 4 or gy.ndim != 4:
        raise ShapeError(
            f"conv2d_kernel_grad needs 4-d input and gradient, got {x.shape} and {gy.shape}"
        )
    b, h, w, ci = x.shape
    if kh > h or kw > w or gy.shape[:3] != (b, h - kh + 1, w - kw + 1):
        raise ShapeError(
            f"conv2d_kernel_grad: input {x.shape} and a {(kh, kw)} kernel give a "
            f"{(b, h - kh + 1, w - kw + 1)} output, gradient is {gy.shape}"
        )
    return kernel_grad_t(gy, im2col(x, kh, kw)).T.reshape(kh, kw, ci, gy.shape[3])

"""Hot convolution kernels: im2col/col2im plus one BLAS matmul each.

All three kernels implement valid (unpadded) stride-1 cross-correlation
over NHWC tensors with (kh, kw, cin, cout) kernels, following Chellapilla
et al. 2006, "High performance convolutional neural networks for document
processing":

    forward      im2col(x) @ K                 K = k.reshape(kh*kw*ci, co)
    input grad   col2im(gy @ K.T)
    kernel grad  im2col(x).T @ gy

``im2col`` copies every (kh, kw, ci) window into one row, ordered (p, q, c)
like the rows of K; ``col2im`` is its adjoint, a scatter-add of those rows
back onto the input grid with kh*kw strided slice adds.  col2im serves both
the input gradient and ``ops.conv2d_transpose``, which is the same map.
The kernels equal the brute-force definition to floating-point rounding;
the tests check them against loop oracles.  ``benchmarks/bench_kernels.py``
times them at the paper conv ladder's three shapes.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError


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


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(b*oh*ow, kh*kw*ci) matrix of every window of x, one copy."""
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))  # (b,oh,ow,ci,kh,kw)
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * x.shape[3])


def conv2d_forward(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Valid stride-1 cross-correlation, NHWC input x (kh,kw,ci,co) kernel."""
    _check_conv_shapes(x, k)
    kh, kw, _, co = k.shape
    b, h, w, _ = x.shape
    y = _im2col(x, kh, kw) @ k.reshape(-1, co)
    return y.reshape(b, h - kh + 1, w - kw + 1, co)


def conv2d_input_grad(gy: np.ndarray, k: np.ndarray, h: int, w: int) -> np.ndarray:
    """Gradient of ``conv2d_forward`` w.r.t. its (b, h, w, ci) input."""
    kh, kw, ci, co = k.shape
    b, oh, ow, _ = gy.shape
    dcols = (gy.reshape(-1, co) @ k.reshape(-1, co).T).reshape(b, oh, ow, kh, kw, ci)
    # col2im: each window row adds back onto the input pixels it was read from
    dx = np.zeros((b, h, w, ci), dtype=dcols.dtype)
    for p in range(kh):
        for q in range(kw):
            dx[:, p : p + oh, q : q + ow] += dcols[:, :, :, p, q]
    return dx


def conv2d_kernel_grad(x: np.ndarray, gy: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Gradient of ``conv2d_forward`` w.r.t. its (kh, kw, ci, co) kernel."""
    co = gy.shape[3]
    gk = _im2col(x, kh, kw).T @ gy.reshape(-1, co)
    return gk.reshape(kh, kw, x.shape[3], co)

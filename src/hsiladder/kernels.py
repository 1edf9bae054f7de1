"""Hot convolution kernels, one vectorized numpy implementation.

All three kernels implement valid (unpadded) stride-1 cross-correlation
over NHWC tensors with (kh, kw, cin, cout) kernels and equal the
brute-force definition to floating-point rounding; the tests check them
against a loop oracle.  ``benchmarks/bench_kernels.py`` times them at the
paper conv ladder's three shapes.
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


def _correlate(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    kh, kw = k.shape[0], k.shape[1]
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))  # (b,oh,ow,ci,kh,kw)
    return np.einsum("bijcpq,pqco->bijo", win, k, optimize=True)


def conv2d_forward(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Valid stride-1 cross-correlation, NHWC input x (kh,kw,ci,co) kernel."""
    _check_conv_shapes(x, k)
    return _correlate(x, k)


def conv2d_input_grad(gy: np.ndarray, k: np.ndarray, h: int, w: int) -> np.ndarray:
    """Gradient of ``conv2d_forward`` w.r.t. its (b, h, w, ci) input."""
    kh, kw = k.shape[0], k.shape[1]
    pad = ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0))
    gp = np.pad(gy, pad)
    # full correlation with the spatially flipped kernel, channels swapped
    kf = np.ascontiguousarray(k[::-1, ::-1].transpose(0, 1, 3, 2))
    return _correlate(gp, kf)


def conv2d_kernel_grad(x: np.ndarray, gy: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Gradient of ``conv2d_forward`` w.r.t. its (kh, kw, ci, co) kernel."""
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))
    return np.einsum("bijcpq,bijo->pqco", win, gy, optimize=True)

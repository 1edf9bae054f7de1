"""Shared test utilities: brute-force oracles and finite-difference checks."""

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from hsiladder import GradTape
from hsiladder.train import batch_input


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-nested-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def conv2d_oracle(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Six-nested-loop valid cross-correlation (no kernel flip)."""
    b, h, w, ci = x.shape
    kh, kw, ci2, co = k.shape
    assert ci == ci2
    oh, ow = h - kh + 1, w - kw + 1
    out = np.zeros((b, oh, ow, co), dtype=x.dtype)
    for n in range(b):
        for i in range(oh):
            for j in range(ow):
                for o in range(co):
                    acc = 0.0
                    for p in range(kh):
                        for q in range(kw):
                            for c in range(ci):
                                acc += x[n, i + p, j + q, c] * k[p, q, c, o]
                    out[n, i, j, o] = acc
    return out


def conv2d_input_grad_oracle(gy: np.ndarray, k: np.ndarray, h: int, w: int) -> np.ndarray:
    """Loop scatter of each output gradient onto the input pixels its
    window read: d/dx of ``conv2d_oracle``."""
    b, oh, ow, co = gy.shape
    kh, kw, ci, co2 = k.shape
    assert co == co2 and oh == h - kh + 1 and ow == w - kw + 1
    out = np.zeros((b, h, w, ci), dtype=gy.dtype)
    for n in range(b):
        for i in range(oh):
            for j in range(ow):
                for o in range(co):
                    for p in range(kh):
                        for q in range(kw):
                            for c in range(ci):
                                out[n, i + p, j + q, c] += gy[n, i, j, o] * k[p, q, c, o]
    return out


def conv2d_kernel_grad_oracle(x: np.ndarray, gy: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Loop sum of input-window times output-gradient products: d/dk of
    ``conv2d_oracle``."""
    b, h, w, ci = x.shape
    b2, oh, ow, co = gy.shape
    assert b == b2 and oh == h - kh + 1 and ow == w - kw + 1
    out = np.zeros((kh, kw, ci, co), dtype=x.dtype)
    for p in range(kh):
        for q in range(kw):
            for c in range(ci):
                for o in range(co):
                    acc = 0.0
                    for n in range(b):
                        for i in range(oh):
                            for j in range(ow):
                                acc += x[n, i + p, j + q, c] * gy[n, i, j, o]
                    out[p, q, c, o] = acc
    return out


def sigmoid_oracle(v: np.ndarray) -> np.ndarray:
    """The where-form logistic: ``r = 1 / (1 + exp(-|v|))`` where v >= 0,
    ``exp(-|v|) * r`` below, chosen by a select on the sign."""
    e = np.exp(-np.abs(v))
    r = 1.0 / (1.0 + e)
    return np.where(v >= 0, r, e * r)


class AdamOracle:
    """Adam as a loop over the parameters, each with its own moment arrays
    (a ``None`` gradient counts as zero)."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr_scale=1.0):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            g = 0.0 if p.grad is None else p.grad
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (self.lr * lr_scale) * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= update


def confusion_oracle(y_true, y_pred, k: int) -> np.ndarray:
    """Confusion counts by a loop over the (true, predicted) pairs."""
    confusion = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[t, p] += 1
    return confusion


def gather_input_oracle(patches: np.ndarray, indices, input_shape, dtype) -> np.ndarray:
    """Gather-then-cast input pool: index the patches in their own dtype,
    then cast the whole gathered copy to the net's dtype."""
    return batch_input(patches[indices], input_shape, dtype)


def pca_inverse(model, reduced: np.ndarray) -> np.ndarray:
    """Map PCA scores back to band space: the inverse of ``pca_transform``
    at full rank, the least-squares reconstruction below it."""
    return reduced @ model.components.T + model.mean


def scale_bands_oracle(reflectance: np.ndarray, fit_coords=None) -> np.ndarray:
    """Out-of-place band scaling: ``clip((r - lo) / span)``, one full-size
    temporary per step."""
    fit = reflectance if fit_coords is None else reflectance[fit_coords]
    lo = fit.min(axis=tuple(range(fit.ndim - 1)))
    hi = fit.max(axis=tuple(range(fit.ndim - 1)))
    span = np.where(hi > lo, hi - lo, 1.0)
    return np.clip((reflectance - lo) / span, -0.5, 1.5)


def extract_patches_oracle(reflectance: np.ndarray, rows, cols, window: int) -> np.ndarray:
    """Two-copy patch gather: index the (h, w, c, win, win) window view, then
    copy its transpose into (n, win, win, c)."""
    pad = window // 2
    padded = np.pad(reflectance, ((pad, pad), (pad, pad), (0, 0)), mode="symmetric")
    win = sliding_window_view(padded, (window, window), axis=(0, 1))
    return win[rows, cols].transpose(0, 2, 3, 1).copy()


def read_array_oracle(path) -> np.ndarray:
    """Bytes-based HSICUBE1 reader: read the whole data section into bytes,
    then copy it out of a ``frombuffer`` view."""
    codes = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1")}
    with open(path, "rb") as f:
        assert f.read(8) == b"HSICUBE1"
        (ndim,) = struct.unpack("<I", f.read(4))
        dims = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
        (code,) = struct.unpack("<B", f.read(1))
        raw = f.read()
    return np.frombuffer(raw, dtype=codes[code]).reshape(dims).copy()


def reference_backward(tape: GradTape, loss) -> None:
    """The reverse walk of ``GradTape.backward`` without releasing anything:
    every tensor on the tape, intermediate or leaf, keeps its ``.grad``."""
    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(tape.nodes):
        g = node.output.grad
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.backward_fn(g)):
            if gi is not None:
                t.accumulate_grad(gi)


def fd_gradcheck(build_loss, params, step=1e-5, tol=1e-4):
    """Compare tape gradients against central finite differences.

    ``build_loss`` must be a deterministic closure returning a scalar Tensor
    (any stochastic op inside must be re-seeded identically per call).
    Relative error uses a small denominator floor so near-zero gradients are
    compared absolutely.
    """
    with GradTape() as tape:
        loss = build_loss()
    tape.backward(loss)
    worst = 0.0
    for t in params:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = build_loss().item()
            flat[i] = orig - step
            lm = build_loss().item()
            flat[i] = orig
            fd[i] = (lp - lm) / (2.0 * step)
        a = analytic.reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-3)
        rel = np.abs(a - fd) / denom
        worst = max(worst, float(rel.max()))
    assert worst < tol, f"max relative gradient error {worst:.3e} >= {tol}"
    return worst

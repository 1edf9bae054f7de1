"""Shared test utilities: brute-force oracles and finite-difference checks."""

import numpy as np

from hsiladder import GradTape


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

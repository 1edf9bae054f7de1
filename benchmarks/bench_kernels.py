"""Convolution kernel harness at the paper conv ladder's three shapes.

Times ``conv2d_forward``, ``conv2d_input_grad`` and ``conv2d_kernel_grad``
of the active backend on a 200-patch batch and reports the FLOP count
computed from the shapes beside each time.  Run it on its own with

    python3 benchmarks/bench_kernels.py [--dtype f64|f32] [--seconds S]

The traced benchmark run (``run.py --trace 1``) reports the same numbers as
``kernels.conv<i>.*`` metrics.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hsiladder import kernels  # noqa: E402
from metrics import KERNEL_FNS, PAPER_CONV_SHAPES  # noqa: E402
from spans import conv_flop  # noqa: E402


def _median_ms(fn, seconds: float, min_reps: int = 5) -> float:
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(times) < min_reps:
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def time_kernels(dtype, seconds_per_kernel: float = 0.2, seed: int = 0) -> dict[str, float]:
    """``kernels.conv<i>.<fn>_ms`` (median per call) and
    ``kernels.conv<i>.gflop`` for each paper-scale shape."""
    gen = np.random.default_rng(seed)
    out = {}
    for i, (x_shape, k_shape) in enumerate(PAPER_CONV_SHAPES, start=1):
        x = gen.standard_normal(x_shape).astype(dtype)
        k = gen.standard_normal(k_shape).astype(dtype)
        kh, kw = k_shape[:2]
        h, w = x_shape[1:3]
        gy = kernels.conv2d_forward(x, k)
        calls = {
            "forward": lambda: kernels.conv2d_forward(x, k),
            "input_grad": lambda: kernels.conv2d_input_grad(gy, k, h, w),
            "kernel_grad": lambda: kernels.conv2d_kernel_grad(x, gy, kh, kw),
        }
        for fn, call in calls.items():
            out[f"kernels.conv{i}.{fn}_ms"] = _median_ms(call, seconds_per_kernel)
        # the three kernels of one layer do the same useful work
        out[f"kernels.conv{i}.gflop"] = conv_flop("forward", x, k) / 1e9
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dtype", choices=("f64", "f32"), default="f64")
    parser.add_argument("--seconds", type=float, default=0.5, help="per kernel and shape")
    args = parser.parse_args(argv)
    dtype = np.float64 if args.dtype == "f64" else np.float32
    res = time_kernels(dtype, args.seconds)
    print(f"backend {kernels.active_backend()}, dtype {args.dtype}")
    print(f"{'shape':<34}{'kernel':<13}{'ms':>9}{'GFLOP':>9}{'GFLOP/s':>9}")
    for i, (x_shape, k_shape) in enumerate(PAPER_CONV_SHAPES, start=1):
        gflop = res[f"kernels.conv{i}.gflop"]
        for fn in KERNEL_FNS:
            ms = res[f"kernels.conv{i}.{fn}_ms"]
            shape = f"x{x_shape} k{k_shape}"
            print(f"{shape:<34}{fn:<13}{ms:>9.3f}{gflop:>9.4f}{gflop / ms * 1e3:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

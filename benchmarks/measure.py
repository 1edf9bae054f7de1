"""Statistics and the environment manifest for benchmark results."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of all samples at or below it (always an observed value)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not (0 < q <= 100):
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


class SpeedProbe:
    """Samples the machine's current speed with a fixed numpy job that runs
    no code of the package under test: a GEMM with two passes over a large
    vector, a chain of small elementwise ops, and a sliding-window einsum
    convolution with batch statistics.

    The host this benchmark runs on is shared: its speed drifts by 20% and
    more over tens of seconds, and the probe and the workload slow down
    together.  Multiplying a time by NOMINAL_MS / (probe ms taken in the
    same stretch of time) states it at the speed of a machine on which one
    probe takes NOMINAL_MS, which cancels most of the drift.  Contention
    slows some kinds of work more than others; the probe mixes the kinds
    the workloads do.
    """

    NOMINAL_MS = 4.5

    def __init__(self):
        gen = np.random.default_rng(0)
        self._a = gen.standard_normal((200, 735))
        self._b = gen.standard_normal((735, 90))
        self._v = gen.standard_normal(300_000)
        self._small = [gen.standard_normal((200, 300)).astype(np.float32) for _ in range(3)]
        self._x = gen.standard_normal((64, 7, 7, 15)).astype(np.float32)
        self._k = gen.standard_normal((3, 3, 15, 90)).astype(np.float32)
        self.samples: list[float] = []

    def _work(self) -> None:
        for _ in range(2):
            self._a @ self._b
            np.exp(self._v)
            self._v * 1.0001
        a, b, c = self._small
        for _ in range(6):
            d = np.maximum(a * b + c, 0)
            e = np.exp(-np.abs(d))
            e.mean(axis=0)
            (d - e).sum()
        win = sliding_window_view(self._x, (3, 3), axis=(1, 2))
        y = np.einsum("bijcpq,pqco->bijo", win, self._k, optimize=True)
        y.mean(axis=(0, 1, 2))
        y.var(axis=(0, 1, 2))

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            self._work()
            self.samples.append((time.perf_counter() - t0) * 1e3)

    def median_ms(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        """Scale for a time spread over the whole sampled stretch."""
        return self.NOMINAL_MS / self.median_ms()

    def local_factor(self, i: int) -> float:
        """Scale for a time measured just before sample ``i``: uses the
        median of samples i-1, i and i+1."""
        return self.NOMINAL_MS / statistics.median(self.samples[max(0, i - 1) : i + 2])


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when no OpenBLAS
    library is mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_revision(root: Path) -> str:
    """Commit the checkout was made from, read from ``.git`` without
    running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(root: Path, **extra) -> dict:
    from hsiladder import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    out = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "kernel_backend": kernels.active_backend(),
        "machine": platform.machine(),
        "git_revision": git_revision(root),
    }
    out.update(extra)
    return out

"""Deterministic random streams.

All stochastic behaviour in the package flows through :class:`Rng`, a thin
wrapper around numpy's PCG64 bit generator.  A given (seed, numpy version)
pair produces an identical stream on every platform, which is what makes
whole training runs bit-reproducible.

Integer draws, choices and permutations call the generator ``rng.gen``
itself; :class:`Rng` adds substreams, f64-drawn Gaussian noise and the
PCG64 state as u64 words for checkpoints.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, as_index
from .tensor import empty

MAX_SEED = 2**64 - 1  # a seed is one unsigned 64-bit word


def check_state_words(what: str, words) -> list[int]:
    """The six u64 words of :meth:`Rng.state_words` as ints.  ``DataError``
    naming ``what`` unless the increment is odd (``inc = (initseq << 1) |
    1``), ``has_uint32`` is 0 or 1 and ``uinteger`` fits in 32 bits, as in
    every state numpy's PCG64 produces."""
    w = [int(x) for x in np.asarray(words, dtype=np.uint64)]
    if len(w) != 6:
        raise DataError(f"{what} needs 6 words, got {len(w)}")
    if not w[2] & 1:
        raise DataError(f"{what}: increment word is {w[2]}, must be odd")
    if w[4] > 1:
        raise DataError(f"{what}: has_uint32 word is {w[4]}, must be 0 or 1")
    if w[5] >= 2**32:
        raise DataError(f"{what}: uinteger word is {w[5]}, must be below 2**32")
    return w


class Rng:
    """Named deterministic generator (PCG64) with spawnable substreams."""

    def __init__(self, seed: int, _ss: np.random.SeedSequence | None = None):
        self.seed = as_index("seed", seed, 0, MAX_SEED)
        self._ss = np.random.SeedSequence(self.seed) if _ss is None else _ss
        self.gen = np.random.Generator(np.random.PCG64(self._ss))

    def spawn(self, n: int) -> list["Rng"]:
        """Derive ``n`` independent substreams (init / noise / batching ...)."""
        return [Rng(self.seed, _ss=child) for child in self._ss.spawn(n)]

    def normal(self, std: float, shape: tuple, dtype=np.float64) -> np.ndarray:
        """``std`` times standard normals drawn in f64, then cast to
        ``dtype``; both arrays come from :func:`~hsiladder.tensor.empty`."""
        out = self.gen.standard_normal(dtype=np.float64, out=empty(shape, np.float64))
        out *= std
        if out.dtype == dtype:
            return out
        cast = empty(shape, dtype)
        cast[...] = out
        return cast

    # PCG64 state as plain uint64 words so checkpoints can persist and
    # restore mid-run streams exactly.
    def state_words(self) -> np.ndarray:
        st = self.gen.bit_generator.state
        s = st["state"]["state"]
        inc = st["state"]["inc"]
        words = [
            s & 0xFFFFFFFFFFFFFFFF,
            (s >> 64) & 0xFFFFFFFFFFFFFFFF,
            inc & 0xFFFFFFFFFFFFFFFF,
            (inc >> 64) & 0xFFFFFFFFFFFFFFFF,
            int(st["has_uint32"]),
            int(st["uinteger"]),
        ]
        return np.array(words, dtype=np.uint64)

    def set_state_words(self, words: np.ndarray) -> None:
        w = check_state_words("PCG64 state", words)
        self.gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": w[0] | (w[1] << 64), "inc": w[2] | (w[3] << 64)},
            "has_uint32": w[4],
            "uinteger": w[5],
        }

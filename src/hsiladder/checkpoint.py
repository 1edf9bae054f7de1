"""LADCKPT1 checkpoint files.

Layout (little-endian throughout):

    bytes 0..7   magic ``LADCKPT1``
    u32          format version (1)
    u64          training iteration counter
    u32          entry count
    entries:     u16 name length, utf-8 name,
                 u8 dtype code (1=f32, 2=f64, 3=u8, 4=u64),
                 u8 ndim, u32 * ndim dims,
                 raw row-major data

Entries hold model parameters, running batch-norm statistics, optimizer
moments, and the PCG64 state words of the live random streams, so loading a
checkpoint resumes training bit-identically.  ``train`` also stores the loss
curves so far and, as utf-8 JSON in a u8 entry, the settings that decide the
trajectory.  save -> load -> save is byte-identical because entry order is
the (deterministic) insertion order.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"LADCKPT1"
VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1"), 4: np.dtype("<u8")}
_CODE_FOR = {
    np.dtype(np.float32): 1,
    np.dtype(np.float64): 2,
    np.dtype(np.uint8): 3,
    np.dtype(np.uint64): 4,
}


def save_entries(path, iteration: int, entries: dict[str, np.ndarray]) -> None:
    """Write ``entries`` to ``path`` atomically: every dtype is checked
    before any byte is written, and the file only replaces an existing
    checkpoint once it is complete."""
    arrays = {name: np.ascontiguousarray(arr) for name, arr in entries.items()}
    for name, arr in arrays.items():
        if arr.dtype not in _CODE_FOR:
            raise DataError(f"checkpoint entry {name!r} has unsupported dtype {arr.dtype}")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", int(iteration)))
        f.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            code = _CODE_FOR[arr.dtype]
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<BB", code, arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.astype(_DTYPE_CODES[code], copy=False).tobytes(order="C"))
    os.replace(tmp, path)


def _read_exact(f, n: int, path: Path, what: str) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise DataError(f"{path}: truncated checkpoint while reading {what}")
    return raw


def _unpack(fmt: str, f, path: Path, what: str) -> tuple:
    return struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt), path, what))


def load_entries(path) -> tuple[int, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such checkpoint: {path}")
    with open(path, "rb") as f:
        if f.read(8) != MAGIC:
            raise DataError(f"{path}: not a LADCKPT1 checkpoint")
        version, iteration, count = _unpack("<IQI", f, path, "the header")
        if version != VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        entries: dict[str, np.ndarray] = {}
        for i in range(count):
            (nlen,) = _unpack("<H", f, path, f"the name length of entry {i}")
            name = _read_exact(f, nlen, path, f"the name of entry {i}").decode("utf-8")
            code, ndim = _unpack("<BB", f, path, f"the header of entry {name!r}")
            dims = _unpack(f"<{ndim}I", f, path, f"the dims of entry {name!r}")
            dtype = _DTYPE_CODES.get(code)
            if dtype is None:
                raise DataError(f"{path}: unknown dtype code {code} for entry {name!r}")
            n = int(np.prod(dims)) if dims else 1
            raw = _read_exact(f, n * dtype.itemsize, path, f"the data of entry {name!r}")
            entries[name] = np.frombuffer(raw, dtype=dtype).reshape(dims).copy()
    return iteration, entries

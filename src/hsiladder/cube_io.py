"""Array records on disk, shared by HSICUBE1 files and LADCKPT1 checkpoints.

A record is one array (all integers little-endian):

    u32           ndim (1..8)
    u32 * ndim    dims (row-major / C order)
    u8            dtype code: 1 = float32, 2 = float64, 3 = uint8, 4 = uint64
    raw data      dims product * itemsize bytes, row-major

An HSICUBE1 file is the magic ``HSICUBE1`` followed by exactly one record.

The converter turns a headerless raw dump (e.g. exported from a scientific
array tool) into this format after validating the byte length against the
declared dims and dtype, which it takes by the numpy name (``float32``) or
the short name (``f32``) of any dtype code above.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError, as_index

MAGIC = b"HSICUBE1"

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1"), 4: np.dtype("<u8")}
_CODE_FOR = {dtype: code for code, dtype in _DTYPE_CODES.items()}
_MAX_NDIM = 8
_MAX_DIM = 2**32 - 1  # a u32


def storable(arr, what: str) -> np.ndarray:
    """``arr`` as a C-contiguous array for :func:`write_record`.  What a
    record cannot hold (ndim outside 1..8, a dim above 2**32 - 1, another
    dtype) raises ``DataError`` naming ``what``, before any file is opened."""
    arr = np.asarray(arr)
    if not 1 <= arr.ndim <= _MAX_NDIM:
        raise DataError(
            f"{what}: records store 1 to {_MAX_NDIM} dimensions, got a {arr.ndim}-d array"
        )
    if max(arr.shape) > _MAX_DIM:
        raise DataError(f"{what}: records store dims up to {_MAX_DIM}, got shape {arr.shape}")
    if arr.dtype not in _CODE_FOR:
        raise DataError(f"{what}: unsupported dtype {arr.dtype}; records store f32, f64, u8 or u64")
    return np.ascontiguousarray(arr)


def write_record(f, arr: np.ndarray) -> None:
    """Write a :func:`storable` array as one record, straight from its
    buffer, without a bytes copy."""
    f.write(struct.pack(f"<I{arr.ndim}IB", arr.ndim, *arr.shape, _CODE_FOR[arr.dtype]))
    f.write(memoryview(arr))


def read_header(f, fmt: str, path, field: str) -> tuple:
    """``struct.unpack(fmt, ...)`` of the next bytes of ``f``; a short read
    raises ``DataError`` naming ``path`` and ``field``."""
    size = struct.calcsize(fmt)
    raw = f.read(size)
    if len(raw) != size:
        raise DataError(f"{path}: truncated header, {field} needs {size} bytes, got {len(raw)}")
    return struct.unpack(fmt, raw)


def read_record(f, path) -> np.ndarray:
    """Read one record from ``f`` into a fresh array (``path`` names it in
    errors).  The data length is checked against the bytes left in the file
    before the array is allocated, and the data is read straight into it."""
    (ndim,) = read_header(f, "<I", path, "ndim")
    if not 1 <= ndim <= _MAX_NDIM:
        raise DataError(f"{path}: implausible ndim {ndim}")
    *dims, code = read_header(f, f"<{ndim}IB", path, "dims and dtype code")
    dtype = _DTYPE_CODES.get(code)
    if dtype is None:
        raise DataError(f"{path}: unknown dtype code {code}")
    expected = math.prod(dims) * dtype.itemsize
    available = os.fstat(f.fileno()).st_size - f.tell()
    if expected > available:
        raise DataError(f"{path}: expected {expected} data bytes, got {available}")
    out = np.empty(dims, dtype=dtype)
    got = f.readinto(memoryview(out))
    if got != expected:
        raise DataError(f"{path}: expected {expected} data bytes, got {got}")
    return out


@contextmanager
def atomic_write(path):
    """Yield a binary file that replaces ``path`` only once the ``with``
    body completes (``.tmp`` then rename); if the body raises, the ``.tmp``
    is deleted and ``path`` is left as it was."""
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def open_records(path, magic: bytes):
    """Yield ``path`` opened just past its ``magic``; a path that is not a
    file (missing, or a directory) and a byte the ``with`` body leaves
    unread raise ``DataError``."""
    if not Path(path).is_file():
        raise DataError(f"no such file: {path}")
    with open(path, "rb") as f:
        got = f.read(len(magic))
        if got != magic:
            raise DataError(f"{path}: bad magic {got!r}, expected {magic!r}")
        yield f
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after the last record")


def write_array(path, arr: np.ndarray) -> None:
    """Write ``arr`` as an HSICUBE1 file atomically; an array that
    :func:`storable` rejects is rejected before any file is created."""
    arr = storable(arr, str(path))
    with atomic_write(path) as f:
        f.write(MAGIC)
        write_record(f, arr)


def read_array(path) -> np.ndarray:
    """Read an HSICUBE1 file into a fresh array (see :func:`read_record`)."""
    with open_records(path, MAGIC) as f:
        return read_record(f, path)


# ``convert_raw``'s dtype names: each record dtype's numpy name and short form
_RAW_DTYPES = {n: d for d in _DTYPE_CODES.values() for n in (d.name, f"{d.kind}{8 * d.itemsize}")}


def convert_raw(raw_path, dims, dtype_name: str, out_path) -> None:
    """Wrap a headerless row-major raw dump into an HSICUBE1 file.

    Validates ``len(raw) == prod(dims) * itemsize`` before writing anything,
    so a failed conversion never leaves a partial output file.  A dim that
    is not an integer raises ``ConfigError`` naming ``dims``.
    """
    dtype = _RAW_DTYPES.get(str(dtype_name).lower())
    if dtype is None:
        raise DataError(f"unsupported raw dtype {dtype_name!r} (use {', '.join(_RAW_DTYPES)})")
    dims = tuple(as_index("dims", d) for d in dims)
    if any(d <= 0 for d in dims):
        raise DataError(f"dims must be positive, got {dims}")
    raw_path = Path(raw_path)
    if not raw_path.is_file():
        raise DataError(f"no such file: {raw_path}")
    expected = math.prod(dims) * dtype.itemsize
    actual = raw_path.stat().st_size
    if actual != expected:
        raise DataError(
            f"{raw_path}: raw dump is {actual} bytes but dims {dims} with dtype "
            f"{dtype_name} require {expected} bytes"
        )
    data = np.fromfile(raw_path, dtype=dtype).reshape(dims)
    write_array(out_path, data)

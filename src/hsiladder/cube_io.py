"""HSICUBE1 binary array format: reader, writer, raw-dump converter.

Layout (all integers little-endian):

    bytes 0..7    magic ``HSICUBE1``
    u32           ndim
    u32 * ndim    dims (row-major / C order)
    u8            dtype code: 1 = float32, 2 = float64, 3 = uint8
    raw data      dims product * itemsize bytes, row-major

The converter turns a headerless raw dump (e.g. exported from a scientific
array tool) into this format after validating the byte length against the
declared dims and dtype.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"HSICUBE1"

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1")}
_CODE_FOR = {np.dtype(np.float32): 1, np.dtype(np.float64): 2, np.dtype(np.uint8): 3}
_MAX_NDIM = 8
_MAX_DIM = 2**32 - 1  # a u32


def write_array(path, arr: np.ndarray) -> None:
    """Write ``arr`` atomically (``.tmp`` then rename).

    Everything the header cannot hold or :func:`read_array` would reject
    (ndim outside 1..8, a dim above 2**32 - 1, an unsupported dtype) is
    rejected before any file is created.  The data is written straight from
    the array's buffer, without a bytes copy.
    """
    arr = np.asarray(arr)
    if not 1 <= arr.ndim <= _MAX_NDIM:
        raise DataError(f"HSICUBE1 stores 1 to {_MAX_NDIM} dimensions, got a {arr.ndim}-d array")
    if max(arr.shape) > _MAX_DIM:
        raise DataError(f"HSICUBE1 stores dims up to {_MAX_DIM}, got shape {arr.shape}")
    code = _CODE_FOR.get(arr.dtype)
    if code is None:
        raise DataError(
            f"unsupported dtype {arr.dtype}; HSICUBE1 stores float32, float64 or uint8"
        )
    arr = np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code])
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack(f"<I{arr.ndim}IB", arr.ndim, *arr.shape, code))
        f.write(memoryview(arr))
    os.replace(tmp, path)


def _read_header(f, fmt: str, path, field: str) -> tuple:
    size = struct.calcsize(fmt)
    raw = f.read(size)
    if len(raw) != size:
        raise DataError(f"{path}: truncated header, {field} needs {size} bytes, got {len(raw)}")
    return struct.unpack(fmt, raw)


def read_array(path) -> np.ndarray:
    """Read an HSICUBE1 file into a fresh array.

    The data length is checked against the file size before the array is
    allocated, and the data is read straight into it, without a bytes copy.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (ndim,) = _read_header(f, "<I", path, "ndim")
        if ndim == 0 or ndim > _MAX_NDIM:
            raise DataError(f"{path}: implausible ndim {ndim}")
        dims = _read_header(f, f"<{ndim}I", path, "dims")
        (code,) = _read_header(f, "<B", path, "dtype code")
        dtype = _DTYPE_CODES.get(code)
        if dtype is None:
            raise DataError(f"{path}: unknown dtype code {code}")
        expected = math.prod(dims) * dtype.itemsize
        available = os.fstat(f.fileno()).st_size - f.tell()
        if available != expected:
            raise DataError(f"{path}: expected {expected} data bytes, got {available}")
        out = np.empty(dims, dtype=dtype)
        got = f.readinto(memoryview(out))
    if got != expected:
        raise DataError(f"{path}: expected {expected} data bytes, got {got}")
    return out


_NAME_TO_DTYPE = {
    "f32": np.dtype("<f4"),
    "float32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
    "float64": np.dtype("<f8"),
    "u8": np.dtype("u1"),
    "uint8": np.dtype("u1"),
}


def convert_raw(raw_path, dims, dtype_name: str, out_path) -> None:
    """Wrap a headerless row-major raw dump into an HSICUBE1 file.

    Validates ``len(raw) == prod(dims) * itemsize`` before writing anything,
    so a failed conversion never leaves a partial output file.
    """
    dtype = _NAME_TO_DTYPE.get(str(dtype_name).lower())
    if dtype is None:
        raise DataError(f"unsupported raw dtype {dtype_name!r} (use f32, f64 or u8)")
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise DataError(f"dims must be positive, got {dims}")
    raw_path = Path(raw_path)
    if not raw_path.exists():
        raise DataError(f"no such file: {raw_path}")
    expected = int(np.prod(dims)) * dtype.itemsize
    actual = raw_path.stat().st_size
    if actual != expected:
        raise DataError(
            f"{raw_path}: raw dump is {actual} bytes but dims {dims} with dtype "
            f"{dtype_name} require {expected} bytes"
        )
    data = np.fromfile(raw_path, dtype=dtype).reshape(dims)
    write_array(out_path, data)

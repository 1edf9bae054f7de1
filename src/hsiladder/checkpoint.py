"""LADCKPT1 checkpoint files.

Layout (little-endian throughout):

    bytes 0..7   magic ``LADCKPT1``
    u32          format version (2)
    u64          training iteration counter
    u32          entry count
    entries:     u16 name length, utf-8 name, one array record

An array record is the one :mod:`hsiladder.cube_io` writes after the
HSICUBE1 magic: u32 ndim (1..8), u32 * ndim dims, u8 dtype code
(1=f32, 2=f64, 3=u8, 4=u64), raw row-major data.  Version 1 put the dtype
code and a u8 ndim before the dims; such files are refused.

Entries hold model parameters, running batch-norm statistics, optimizer
moments, and the PCG64 state words of the live random streams, so loading a
checkpoint resumes training bit-identically.  ``train`` also stores the loss
curves so far and, as utf-8 JSON in a u8 entry, the settings that decide the
trajectory.  save -> load -> save is byte-identical because entry order is
the (deterministic) insertion order.
"""

from __future__ import annotations

import struct

import numpy as np

from . import cube_io
from .errors import DataError, as_index

MAGIC = b"LADCKPT1"
VERSION = 2
_MAX_NAME_BYTES = 2**16 - 1  # a u16
_MAX_ITERATION = 2**64 - 1  # a u64


def _name_bytes(name: str) -> bytes:
    """The utf-8 bytes of an entry name; one that a u16 length cannot
    describe raises ``DataError`` naming the entry."""
    try:
        raw = name.encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(f"checkpoint entry {name[:40]!r}: name is not encodable as utf-8") from None
    if len(raw) > _MAX_NAME_BYTES:
        raise DataError(
            f"checkpoint entry {name[:40]!r}...: name is {len(raw)} utf-8 bytes, "
            f"at most {_MAX_NAME_BYTES} fit"
        )
    return raw


def save_entries(path, iteration: int, entries: dict[str, np.ndarray]) -> None:
    """Write ``entries`` to ``path`` atomically: the iteration and every
    entry name and array are checked before the file is opened, and the
    file only replaces an existing checkpoint once it is complete.  An
    ``iteration`` that is not an integer raises ``ConfigError``."""
    iteration = as_index("iteration", iteration)
    if not 0 <= iteration <= _MAX_ITERATION:
        raise DataError(f"checkpoint iteration {iteration} is outside 0..{_MAX_ITERATION}")
    records = [
        (_name_bytes(name), cube_io.storable(arr, f"checkpoint entry {name!r}"))
        for name, arr in entries.items()
    ]
    with cube_io.atomic_write(path) as f:
        f.write(MAGIC + struct.pack("<IQI", VERSION, iteration, len(records)))
        for raw, arr in records:
            f.write(struct.pack("<H", len(raw)) + raw)
            cube_io.write_record(f, arr)


def load_entries(path) -> tuple[int, dict[str, np.ndarray]]:
    """The iteration and the entries, in file order, of the checkpoint at
    ``path``; a malformed file, or one that names an entry twice, raises
    ``DataError``."""
    with cube_io.open_records(path, MAGIC) as f:
        version, iteration, count = cube_io.read_header(f, "<IQI", path, "the checkpoint header")
        if version != VERSION:
            raise DataError(
                f"{path}: unsupported checkpoint version {version}, this build reads {VERSION}"
            )
        entries: dict[str, np.ndarray] = {}
        for i in range(count):
            (nlen,) = cube_io.read_header(f, "<H", path, f"the name length of entry {i}")
            (raw,) = cube_io.read_header(f, f"<{nlen}s", path, f"the name of entry {i}")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: the name of entry {i} is not utf-8") from None
            if name in entries:
                raise DataError(f"{path}: entry {name!r} appears twice")
            entries[name] = cube_io.read_record(f, f"{path} entry {name!r}")
    return iteration, entries

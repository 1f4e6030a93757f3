"""Plain ``.npy`` column files with checksum and fsync support.

The durable store keeps every numeric column as one standard npy-1.0
file — readable by any numpy (``np.load``), mmap-attachable with
``mmap_mode="r"``, and dead simple to inspect.  :func:`write_column`
writes a fixed 128-byte header and the data, fsyncs, and returns the
data checksum, so a column is durable and its manifest row known after
one pass over the array.

Checksums always cover the **data region only** (everything after the
header), never the header itself: the attach path verifies a memory-map
of the data (`zlib.crc32(view)`), and the persist path checksums the
array it just wrote — both see the same bytes regardless of how the
header was produced.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path

import numpy as np

_MAGIC = b"\x93NUMPY\x01\x00"
#: Total header size (magic + length word + padded dict); data starts here.
HEADER_SIZE = 128


def _header_bytes(dtype: np.dtype, length: int) -> bytes:
    """A fixed-size npy-1.0 header for a 1-D C-order array."""
    descr = dtype.str
    dict_str = f"{{'descr': '{descr}', 'fortran_order': False, 'shape': ({length},), }}"
    payload = dict_str.encode("latin1")
    space = HEADER_SIZE - len(_MAGIC) - 2  # 2 bytes of little-endian dict length
    if len(payload) + 1 > space:
        raise ValueError(f"npy header overflow for dtype={descr} length={length}")
    payload = payload + b" " * (space - len(payload) - 1) + b"\n"
    return _MAGIC + len(payload).to_bytes(2, "little") + payload


def write_column(path: str | Path, array: np.ndarray) -> int:
    """Write ``array`` as a durable npy column file; returns the data CRC-32."""
    data = array.tobytes()  # C order, whatever the strides
    with open(path, "wb") as fh:
        fh.write(_header_bytes(array.dtype, array.shape[0]))
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return zlib.crc32(data)


def column_equals(path: str | Path, array: np.ndarray) -> bool:
    """Whether the column file at ``path`` decodes to exactly ``array``:
    same dtype, same length, same data bytes.  Reads the file itself — a
    missing, torn or foreign file is simply not equal."""
    try:
        stored = np.load(path)
    except (OSError, ValueError, EOFError):
        return False
    return (
        stored.dtype == array.dtype
        and stored.shape == array.shape
        and stored.tobytes() == array.tobytes()
    )


def read_header(path: str | Path) -> tuple[np.dtype, int]:
    """``(dtype, length)`` of a 1-D npy column, without touching the data."""
    with open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
        else:
            raise ValueError(f"unsupported npy version {version} in {path}")
    if len(shape) != 1 or fortran:
        raise ValueError(f"not a 1-D C-order column: {path} (shape={shape})")
    return dtype, shape[0]


def data_crc32(path: str | Path, chunk_bytes: int = 1 << 22) -> int:
    """CRC-32 of the data region of an npy file (header skipped)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not an npy-1.0 file: {path}")
        hlen = int.from_bytes(fh.read(2), "little")
        fh.seek(len(_MAGIC) + 2 + hlen)
        crc = 0
        while True:
            chunk = fh.read(chunk_bytes)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so freshly created entries survive a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

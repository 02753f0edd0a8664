"""Binary tensor archive with CRC32 integrity check, the one file format of
checkpoints and hidden-state dumps.

Layout (all little-endian):

    magic "PREA" | version u16 | entry count u32
    per entry: name length u16, UTF-8 name, rank u8, dims u32 * rank,
               payload float32 row-major
    trailing CRC32 (u32) of all preceding bytes

The CRC is verified before any tensor is decoded, so a corrupted file never
surfaces partial data. Payloads are float32 on disk, integers as whole numbers
(exact up to 2**24); readers return float32 and callers widen or cast back.
Writes go through a sibling temp file renamed onto the target.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"PREA"
VERSION = 1


class ArchiveError(RuntimeError):
    """Malformed, truncated, or corrupted tensor archive."""


def write_archive(path, entries) -> None:
    """Write named tensors to `path`.

    entries: dict or iterable of (name, array). Names must be unique;
    arrays are converted to float32.
    """
    if isinstance(entries, dict):
        items = list(entries.items())
    else:
        items = list(entries)
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise ArchiveError("duplicate entry names in archive")
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<HI", VERSION, len(items))
    for name, arr in items:
        arr = np.asarray(arr, dtype="<f4")  # tobytes() always emits C order
        raw_name = name.encode("utf-8")
        if len(raw_name) > 0xFFFF:
            raise ArchiveError(f"entry name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise ArchiveError(f"rank {arr.ndim} exceeds format limit")
        buf += struct.pack("<H", len(raw_name))
        buf += raw_name
        buf += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            buf += struct.pack("<I", dim)
        buf += arr.tobytes()
    buf += struct.pack("<I", zlib.crc32(buf) & 0xFFFFFFFF)
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_bytes(buf)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_archive(path) -> dict:
    """Read an archive back as {name: float32 ndarray}.

    The file is read once into one writable buffer per call, and every
    returned array is a view into it (payloads may sit at unaligned offsets),
    so two reads never share memory. Raises ArchiveError on bad magic or
    version, truncation, CRC mismatch, duplicate names, or declared sizes
    that disagree with the payload.
    """
    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        if fh.readinto(raw) != len(raw):
            raise ArchiveError("archive changed size while being read")
    if len(raw) < len(MAGIC) + 6 + 4:
        raise ArchiveError("archive truncated: shorter than minimal header")
    if raw[:4] != MAGIC:
        raise ArchiveError(f"bad magic {bytes(raw[:4])!r}, expected {MAGIC!r}")
    body = memoryview(raw)[:-4]
    stored_crc = struct.unpack_from("<I", raw, len(body))[0]
    actual_crc = zlib.crc32(body) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ArchiveError(
            f"CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )
    pos = 4
    version, count = struct.unpack_from("<HI", body, pos)
    pos += 6
    if version != VERSION:
        raise ArchiveError(f"unsupported archive version {version}")
    out: dict = {}
    for _ in range(count):
        if pos + 2 > len(body):
            raise ArchiveError("archive truncated inside entry header")
        (name_len,) = struct.unpack_from("<H", body, pos)
        pos += 2
        name = str(body[pos : pos + name_len], "utf-8")
        pos += name_len
        if pos + 1 > len(body):
            raise ArchiveError("archive truncated inside entry header")
        rank = body[pos]
        pos += 1
        if pos + 4 * rank > len(body):
            raise ArchiveError("archive truncated inside dims")
        dims = struct.unpack_from(f"<{rank}I", body, pos)
        pos += 4 * rank
        size = math.prod(dims)
        nbytes = 4 * size
        if pos + nbytes > len(body):
            raise ArchiveError(f"declared size of {name!r} exceeds payload")
        arr = np.frombuffer(body, dtype="<f4", count=size, offset=pos).reshape(dims)
        pos += nbytes
        if name in out:
            raise ArchiveError(f"duplicate entry name {name!r}")
        out[name] = arr
    if pos != len(body):
        raise ArchiveError(f"{len(body) - pos} trailing bytes after last entry")
    return out

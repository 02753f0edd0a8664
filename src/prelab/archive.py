"""Binary tensor archive with CRC32 integrity check, the one file format of
checkpoints and hidden-state dumps.

Layout (all little-endian):

    magic "PREA" | version u16 | entry count u32
    per entry: name length u16, UTF-8 name, rank u8, dims u32 * rank,
               payload float32 row-major
    trailing CRC32 (u32) of all preceding bytes

Payloads are float32 on disk, integers as whole numbers (exact up to 2**24);
readers return float32 and callers widen or cast back. Both directions
stream, so no buffer of the whole file is ever built. A write sends each
header and payload straight from its array to a sibling temp file, renamed
onto the target. A read is two passes over the file: a CRC pass, which
raises on a mismatch before any tensor is decoded, so a corrupted file
never surfaces partial data; then a parse that reads each payload into a
fresh array or, given the {name: array} layout of an archive kind (a
checkpoint, a dump), into the array of its name.
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
WRITE_BUFFER = 1 << 20  # bytes
CRC_CHUNK = 1 << 16  # bytes per read of the CRC pass, small enough to stay in cache for the CRC


class ArchiveError(RuntimeError):
    """Malformed, truncated, or corrupted tensor archive."""


def write_archive(path, entries: dict) -> None:
    """Write the named tensors of `entries`, in its order, to `path`.

    Arrays are converted to float32. Each payload is written from the
    array's own buffer (a copy only for an array that is not C-contiguous
    float32), and the CRC is updated piece by piece.
    """
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb", buffering=WRITE_BUFFER) as fh:
            crc = _write(fh, MAGIC + struct.pack("<HI", VERSION, len(entries)), 0)
            for name, arr in entries.items():
                arr = np.asarray(arr, dtype="<f4", order="C")
                raw_name = name.encode("utf-8")
                if len(raw_name) > 0xFFFF:
                    raise ArchiveError(f"entry name too long: {name!r}")
                if arr.ndim > 0xFF:
                    raise ArchiveError(f"rank {arr.ndim} exceeds format limit")
                header = (struct.pack("<H", len(raw_name)) + raw_name
                          + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
                crc = _write(fh, arr, _write(fh, header, crc))
            fh.write(struct.pack("<I", crc & 0xFFFFFFFF))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write(fh, piece, crc: int) -> int:
    fh.write(piece)
    return zlib.crc32(piece, crc)


def read_archive(path, into=None) -> dict:
    """Read an archive back as {name: float32 ndarray}.

    The first pass checks the size, the magic and the CRC; the second parses
    the entries, each into a fresh array never shared between reads. Given
    `into`, a {name: writable C-contiguous float32 array} layout, each
    payload is read into its array and `into` is returned; the file must
    hold exactly its names, each of its array's shape, or ValueError names
    the first missing entry (in layout order), else the first unexpected
    one (by name), else the first of another shape (in layout order), whose
    payloads are skipped. Raises ArchiveError on bad magic or version,
    truncation, CRC mismatch, duplicate names, or declared sizes that
    disagree with the payload; a file that fails its size, magic or CRC
    check writes into no array.
    """
    if into and not all(a.dtype == "<f4" and a.flags.c_contiguous and a.flags.writeable
                        for a in into.values()):
        raise TypeError("read_archive reads into writable C-contiguous float32 arrays only")
    out, shapes = {}, {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(MAGIC) + 6 + 4:
            raise ArchiveError("archive truncated: shorter than minimal header")
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ArchiveError(f"bad magic {magic!r}, expected {MAGIC!r}")
        body_len = size - 4
        _check_crc(fh, body_len)
        fh.seek(len(MAGIC))
        version, count = struct.unpack("<HI", _take(fh, 6, body_len, "header"))
        if version != VERSION:
            raise ArchiveError(f"unsupported archive version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _take(fh, 2, body_len, "entry header"))
            name = str(_take(fh, name_len, body_len, "entry header"), "utf-8")
            rank = _take(fh, 1, body_len, "entry header")[0]
            dims = struct.unpack(f"<{rank}I", _take(fh, 4 * rank, body_len, "dims"))
            nbytes = 4 * math.prod(dims)
            if fh.tell() + nbytes > body_len:
                raise ArchiveError(f"declared size of {name!r} exceeds payload")
            if name in shapes:
                raise ArchiveError(f"duplicate entry name {name!r}")
            shapes[name] = dims
            arr = np.empty(dims, dtype="<f4") if into is None else into.get(name)
            if arr is None or arr.shape != dims:
                fh.seek(nbytes, os.SEEK_CUR)  # not in the layout: refused below
                continue
            if fh.readinto(arr) != nbytes:
                raise ArchiveError("archive changed size while being read")
            out[name] = arr
        if fh.tell() != body_len:
            raise ArchiveError(f"{body_len - fh.tell()} trailing bytes after last entry")
    if into is None:
        return out
    missing = [name for name in into if name not in shapes]
    unexpected = sorted(shapes.keys() - into.keys())
    for what, wrong in (("missing", missing), ("unexpected", unexpected)):
        if wrong:
            raise ValueError(f"{what} entry {wrong[0]!r} ({len(wrong)} {what} in all)")
    for name, arr in into.items():
        if arr.shape != shapes[name]:
            raise ValueError(f"entry {name!r} has shape {shapes[name]}, not {arr.shape}")
    return into


def _take(fh, n: int, end: int, where: str) -> bytes:
    """The next n bytes of fh, which must not pass offset `end`."""
    if fh.tell() + n > end:
        raise ArchiveError(f"archive truncated inside {where}")
    data = fh.read(n)
    if len(data) != n:
        raise ArchiveError("archive changed size while being read")
    return data


def _check_crc(fh, body_len: int) -> None:
    """Compare the CRC32 of the first body_len bytes with the stored one that
    follows them, reading CRC_CHUNK bytes at a time."""
    fh.seek(0)
    chunk = memoryview(bytearray(min(CRC_CHUNK, body_len)))
    crc, left = 0, body_len
    while left:
        n = min(left, len(chunk))
        if fh.readinto(chunk[:n]) != n:
            raise ArchiveError("archive changed size while being read")
        crc = zlib.crc32(chunk[:n], crc)
        left -= n
    (stored_crc,) = struct.unpack("<I", _take(fh, 4, body_len + 4, "CRC"))
    actual_crc = crc & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ArchiveError(
            f"CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )


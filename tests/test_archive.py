import os
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prelab.archive import ArchiveError, MAGIC, read_archive, write_archive


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    entries = {
        "a/x": rng.normal(size=(3, 4)).astype(np.float32),
        "scalar": np.float32(2.5),
        "empty_dim": np.zeros((0, 5), dtype=np.float32),
        "cube": rng.normal(size=(2, 2, 2)).astype(np.float32),
    }
    path = tmp_path / "t.prea"
    write_archive(path, entries)
    back = read_archive(path)
    assert list(back) == list(entries)
    for name, arr in entries.items():
        assert back[name].dtype == np.float32
        assert np.array_equal(back[name], np.asarray(arr, dtype=np.float32))


def test_float64_written_as_float32(tmp_path):
    x = np.array([1.0, 1 / 3], dtype=np.float64)
    path = tmp_path / "t.prea"
    write_archive(path, {"x": x})
    assert np.array_equal(read_archive(path)["x"], x.astype(np.float32))


def test_magic_and_layout(tmp_path):
    path = tmp_path / "t.prea"
    write_archive(path, {"v": np.arange(3, dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC == b"PREA"
    version, count = struct.unpack_from("<HI", raw, 4)
    assert (version, count) == (1, 1)
    (stored_crc,) = struct.unpack("<I", raw[-4:])
    assert stored_crc == zlib.crc32(raw[:-4]) & 0xFFFFFFFF


def test_a_file_with_a_duplicate_name_is_refused(tmp_path):
    path = tmp_path / "t.prea"
    write_archive(path, {"x": np.zeros(1), "y": np.zeros(1)})
    raw = bytearray(path.read_bytes())
    raw[raw.rindex(b"y")] = ord("x")
    raw[-4:] = struct.pack("<I", zlib.crc32(raw[:-4]) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(ArchiveError, match="duplicate entry name 'x'"):
        read_archive(path)


def test_single_byte_corruption_detected(tmp_path):
    path = tmp_path / "t.prea"
    write_archive(path, {"x": np.arange(16, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x40
    path.write_bytes(bytes(raw))
    with pytest.raises(ArchiveError, match="CRC"):
        read_archive(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "t.prea"
    write_archive(path, {"x": np.arange(16, dtype=np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(ArchiveError):
        read_archive(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "t.prea"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ArchiveError, match="magic"):
        read_archive(path)


def test_failed_write_leaves_old_archive_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "t.prea"
    write_archive(path, {"x": np.arange(4, dtype=np.float32)})
    assert os.listdir(tmp_path) == ["t.prea"]  # no temp file after a good write
    old = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_archive(path, {"x": np.zeros(9, dtype=np.float32)})
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["t.prea"]


# Hypothesis requires float32 bounds that float32 represents exactly; 1e30
# itself does not, so the range is +/-1e30 rounded to float32.
F32_BOUND = float(np.float32(1e30))


@st.composite
def tensor_entries(draw):
    n = draw(st.integers(1, 5))
    entries = []
    for i in range(n):
        rank = draw(st.integers(0, 3))
        dims = tuple(draw(st.integers(1, 6)) for _ in range(rank))
        vals = draw(st.lists(
            st.floats(-F32_BOUND, F32_BOUND, width=32),
            min_size=int(np.prod(dims)) if rank else 1,
            max_size=int(np.prod(dims)) if rank else 1))
        arr = np.array(vals, dtype=np.float32).reshape(dims)
        entries.append((f"t{i}/{draw(st.text(min_size=1, max_size=8))}", arr))
    names = [e[0] for e in entries]
    if len(set(names)) != len(names):
        entries = [(f"{i}:{name}", arr) for i, (name, arr) in enumerate(entries)]
    return entries


@given(tensor_entries())
@settings(max_examples=200, deadline=None)
def test_property_round_trip(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("arch") / "t.prea"
    write_archive(path, dict(entries))
    back = read_archive(path)
    assert [n for n, _ in entries] == list(back)
    for name, arr in entries:
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def test_unaligned_payloads_and_a_rank_0_entry_round_trip(tmp_path):
    # names of odd length put payloads at offsets that are not multiples of 4
    rng = np.random.default_rng(3)
    entries = {"a": rng.normal(size=(3, 5)).astype(np.float32), "bcd": np.float32(-7.25),
               "efghi": rng.normal(size=(4,)).astype(np.float32), "j": np.zeros((2, 0, 3))}
    path = tmp_path / "t.prea"
    write_archive(path, entries)
    offsets, pos = [], 10  # header: magic, version, count
    for name, arr in entries.items():
        pos += 2 + len(name) + 1 + 4 * np.ndim(arr)
        offsets.append(pos)
        pos += 4 * np.size(arr)
    assert [off % 4 for off in offsets] == [2, 0, 0, 0]  # "a" sits at offset 22
    back = read_archive(path)
    assert all(arr.flags.aligned and arr.flags.writeable for arr in back.values())
    assert back["bcd"].shape == ()
    for name, arr in entries.items():
        want = np.asarray(arr, dtype=np.float32)
        assert back[name].shape == want.shape and back[name].tobytes() == want.tobytes()
    assert np.array_equal(back["a"] @ back["a"].T, entries["a"] @ entries["a"].T)


def test_read_into_fills_and_returns_the_given_arrays(tmp_path):
    rng = np.random.default_rng(4)
    entries = {"m": rng.normal(size=(3, 4)).astype(np.float32), "s": np.float32(1.5),
               "v": rng.normal(size=(5,)).astype(np.float32)}
    path = tmp_path / "t.prea"
    write_archive(path, entries)
    block = np.full((2, 3, 4), np.nan, dtype=np.float32)
    into = {"v": np.zeros(5, dtype=np.float32), "m": block[1], "s": np.zeros((), dtype=np.float32)}
    given = dict(into)
    back = read_archive(path, into=into)
    assert list(back) == ["v", "m", "s"] and all(back[name] is given[name] for name in given)
    for name, arr in entries.items():
        assert back[name].tobytes() == arr.tobytes()
    assert np.isnan(block[0]).all()  # the neighbouring row of m's block is untouched


@pytest.mark.parametrize("layout, found", [
    ({"m": (4, 3), "s": (), "v": (5,), "w": ()}, "missing entry 'w' (1 missing in all)"),
    ({"m": (4, 3)}, "unexpected entry 's' (2 unexpected in all)"),
    ({"m": (3, 4), "s": (), "v": (4,)}, "entry 'v' has shape (5,), not (4,)"),
    ({"m": (4, 3), "s": (), "v": (4,)}, "entry 'm' has shape (3, 4), not (4, 3)"),
])
def test_read_into_refuses_a_file_of_another_layout(tmp_path, layout, found):
    # missing (in layout order) before unexpected (by name) before another shape
    path = tmp_path / "t.prea"
    shapes = {"m": (3, 4), "s": (), "v": (5,)}
    write_archive(path, {name: np.ones(shape) for name, shape in shapes.items()})
    into = {name: np.full(shape, -3.5, dtype=np.float32) for name, shape in layout.items()}
    with pytest.raises(ValueError, match=f"^{re.escape(found)}$"):
        read_archive(path, into=into)
    for name, arr in into.items():  # a skipped payload leaves its sentinel untouched
        assert (arr == (1.0 if shapes.get(name) == arr.shape else -3.5)).all(), name


def test_read_into_takes_only_writable_c_contiguous_float32_arrays(tmp_path):
    path = tmp_path / "t.prea"
    write_archive(path, {"m": np.ones((3, 4))})
    read_only = np.zeros((3, 4), dtype=np.float32)
    read_only.flags.writeable = False
    for wrong in (np.zeros((3, 4)), np.zeros((4, 3), dtype=np.float32).T, read_only):
        with pytest.raises(TypeError, match="float32"):
            read_archive(path, into={"m": wrong})
    assert not read_only.any()


def test_read_arrays_are_writable_and_not_shared_between_reads(tmp_path):
    path = tmp_path / "t.prea"
    write_archive(path, {"x": np.arange(6.0).reshape(2, 3), "y": np.ones(4)})
    first, second = read_archive(path), read_archive(path)
    for name in first:
        assert first[name].flags.writeable
        assert not np.shares_memory(first[name], second[name])
    first["x"][...] = -1.0
    assert np.array_equal(second["x"], np.arange(6.0).reshape(2, 3))
    assert np.array_equal(read_archive(path)["x"], np.arange(6.0).reshape(2, 3))


@pytest.mark.parametrize("where", ["count", "name", "dims", "payload"])
def test_corrupted_byte_raises_before_any_entry_is_decoded(tmp_path, monkeypatch, where):
    path = tmp_path / "t.prea"
    write_archive(path, {"name": np.arange(16, dtype=np.float32).reshape(4, 4)})
    raw = bytearray(path.read_bytes())
    # header 10 bytes, name length 2, name 4, rank 1, dims 8, payload 64
    raw[{"count": 6, "name": 13, "dims": 18, "payload": 40}[where]] ^= 0x40
    path.write_bytes(bytes(raw))
    decoded = []
    frombuffer = np.frombuffer
    monkeypatch.setattr(np, "frombuffer", lambda *a, **k: decoded.append(a) or frombuffer(*a, **k))
    sentinel = np.full((4, 4), -3.5, dtype=np.float32)
    with pytest.raises(ArchiveError, match="CRC"):
        read_archive(path, into={"name": sentinel})
    assert decoded == []
    assert (sentinel == -3.5).all()

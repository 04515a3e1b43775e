import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib import format as npy

import ultratts
from ultratts import arrayfile
from ultratts.errors import FormatError


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mixed_records():
    rng = np.random.default_rng(0)
    return [
        rng.normal(size=(7, 5)).astype(np.float32),
        rng.normal(size=11),
        rng.integers(0, 256, size=13).astype(np.uint8),
        np.array([3, -1 << 40, 1 << 62], dtype=np.int64),
        np.zeros((4, 0)),
        np.zeros(0, dtype=np.uint8),
    ]


def test_records_round_trip_bit_for_bit(tmp_path):
    path = tmp_path / "a.bin"
    arrays = mixed_records()
    arrayfile.save(path, arrays)
    loaded = arrayfile.load(path)
    assert len(loaded) == len(arrays)
    for a, b in zip(loaded, arrays):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert a.flags.writeable


def test_a_transposed_array_is_written_in_c_order(tmp_path):
    path = tmp_path / "a.bin"
    array = np.arange(12.0).reshape(3, 4).T
    arrayfile.save(path, [array])
    (loaded,) = arrayfile.load(path)
    assert loaded.flags.c_contiguous
    assert np.array_equal(loaded, array)


def test_an_np_save_file_is_one_record(tmp_path):
    path = tmp_path / "a.npy"
    array = np.random.default_rng(1).normal(size=(9, 3))
    np.save(path, array)
    (loaded,) = arrayfile.load(path)
    assert loaded.tobytes() == array.tobytes()
    arrayfile.save(tmp_path / "b.npy", [array])
    assert (tmp_path / "b.npy").read_bytes() == path.read_bytes()


def test_save_over_a_file_rewrites_it_in_place(tmp_path, monkeypatch):
    path = tmp_path / "a.bin"
    arrayfile.save(path, [np.ones((300, 400)), np.arange(10)])
    inode, first_size = path.stat().st_ino, path.stat().st_size
    write_array, sizes = npy.write_array, []

    def recording_write_array(fh, *args, **kwargs):
        sizes.append(path.stat().st_size)
        return write_array(fh, *args, **kwargs)

    monkeypatch.setattr(npy, "write_array", recording_write_array)
    second = [np.full((20, 7), 2.0, dtype=np.float32)]
    arrayfile.save(path, second)
    monkeypatch.undo()
    # the file was not truncated before its first record was written
    assert sizes == [first_size]
    arrayfile.save(tmp_path / "fresh.bin", second)
    assert path.stat().st_ino == inode
    assert path.read_bytes() == (tmp_path / "fresh.bin").read_bytes()
    (loaded,) = arrayfile.load(path)
    assert loaded.tobytes() == second[0].tobytes()


def test_a_failed_save_leaves_only_what_it_wrote(tmp_path):
    path, fresh = tmp_path / "a.bin", tmp_path / "fresh.bin"
    arrayfile.save(path, [np.ones((300, 400)), np.arange(10)])
    for target in (path, fresh):
        with pytest.raises(ValueError):
            arrayfile.save(target, [np.arange(3), np.array([None])])
    # no byte of the earlier, longer file is left past what the failed save wrote
    assert path.read_bytes() == fresh.read_bytes()


def test_load_reads_one_copy(tmp_path):
    path = tmp_path / "a.bin"
    arrayfile.save(path, [np.ones((300, 400)), np.ones(5000, dtype=np.float32)])
    _, peak = traced_peak(arrayfile.load, path)
    assert peak <= 1.25 * path.stat().st_size


def test_save_copies_nothing(tmp_path):
    big = np.ones((500, 400))
    _, peak = traced_peak(arrayfile.save, tmp_path / "a.bin", [big, big])
    assert peak < big.nbytes / 10


def refused_peak(path):
    """The traced peak of a ``load`` that must raise ``FormatError``."""
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"declares \(1099511627776,\)"):
            arrayfile.load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def with_declared_shape(data: bytes, old: tuple, new: tuple) -> bytes:
    """``data`` with the one record header that declares shape ``old``
    declaring ``new`` instead, in place of its padding so the header keeps
    its length."""
    old_text, new_text = (f"'shape': {shape}, }}".encode() for shape in (old, new))
    assert data.count(old_text) == 1
    patched = data.replace(old_text + b" " * (len(new_text) - len(old_text)), new_text)
    assert patched != data and len(patched) == len(data)
    return patched


def test_an_oversized_record_is_refused_before_allocating(tmp_path):
    path = tmp_path / "a.bin"
    # a sound record first, so reading any data before every header is
    # checked shows in the peak
    arrayfile.save(path, [np.ones(200_000), np.ones(100_000)])
    data = path.read_bytes()
    path.write_bytes(with_declared_shape(data, (100_000,), (1 << 40,)))
    assert refused_peak(path) < len(data) / 10


def npy_bytes(tmp_path, array):
    path = tmp_path / "one.npy"
    np.save(path, array, allow_pickle=True)
    return path.read_bytes()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d[:5],
        lambda d: d[:40],
        lambda d: d[:-3],
        lambda d: d + d[:20],
        lambda d: d + b"x",
        lambda d: b"MLPC" + d[4:],
    ],
    ids=["inside-magic", "inside-header", "truncated-data", "partial-record", "trailing-byte",
         "foreign-magic"],
)
def test_a_damaged_file_is_format_error_naming_it(tmp_path, corrupt):
    path = tmp_path / "damaged.bin"
    arrayfile.save(path, [np.ones((4, 3)), np.arange(5)])
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError, match="damaged.bin"):
        arrayfile.load(path)


def test_object_dtype_is_refused(tmp_path):
    path = tmp_path / "a.npy"
    path.write_bytes(npy_bytes(tmp_path, np.array([{"a": 1}, None], dtype=object)))
    with pytest.raises(FormatError, match="holds object"):
        arrayfile.load(path)


def test_fortran_order_is_refused(tmp_path):
    path = tmp_path / "a.npy"
    path.write_bytes(npy_bytes(tmp_path, np.asfortranarray(np.ones((3, 4)))))
    with pytest.raises(FormatError, match="in Fortran order"):
        arrayfile.load(path)


def test_a_negative_dimension_is_refused(tmp_path):
    path = tmp_path / "a.bin"
    arrayfile.save(path, [np.ones((1, 1))])
    # (-1, -1) declares as many bytes as (1, 1) does
    path.write_bytes(with_declared_shape(path.read_bytes(), (1, 1), (-1, -1)))
    with pytest.raises(FormatError, match=r"holds float64 \(-1, -1\)"):
        arrayfile.load(path)


def test_save_refuses_an_object_array(tmp_path):
    with pytest.raises(ValueError):
        arrayfile.save(tmp_path / "a.bin", [np.array([None])])


def test_only_arrayfile_reads_and_writes_numpy_files():
    """Every array file of the package goes through ``arrayfile``: no other
    module calls ``np.save``, ``np.savez`` or ``np.load``, or imports ``struct``."""
    package = Path(ultratts.__file__).parent
    offenders = []
    for source in sorted(package.glob("*.py")):
        if source.name == "arrayfile.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in {"save", "savez", "load"}:
                if isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}:
                    offenders.append(f"{source.name}: np.{node.attr}")
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            offenders += [
                f"{source.name}: import {n}" for n in names if n.split(".")[0] == "struct"
            ]
    assert offenders == []

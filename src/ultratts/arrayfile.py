"""The run directory's one array-file format: numpy ``.npy`` records, one
after another. A file of one record is what ``np.save`` writes. Each reader
checks its own record count, dtypes and shapes on the list ``load`` returns.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from .errors import FormatError

_HEADER_READERS = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}


def save(path: Path, arrays: list[np.ndarray]) -> None:
    """Write each array as one C-order ``.npy`` record; a C-order array goes to
    the file with ``tofile``, without a copy.

    An existing file is written over in place, not truncated first, and is
    cut to the written length at the end, also when a record fails. A file
    saved again and again, such as the best epoch's checkpoint, then keeps
    its inode and its blocks: the file system rewrites the same pages rather
    than allocating and writing out a fresh copy after every truncation.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            for array in arrays:
                npy.write_array(fh, np.asarray(array, order="C"), allow_pickle=False)
        finally:
            fh.truncate()


def load(path: Path) -> list[np.ndarray]:
    """Every record of a file written by ``save``, each read into one writable
    array. All headers are checked before any data is allocated: a foreign or
    cut header, a record that is not numeric and in C order, or one that
    declares more bytes than the file has left is a ``FormatError``."""
    records = []  # (data offset, shape, dtype) of each record
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        while fh.tell() < size:
            where = f"record {len(records)} of {path}"
            try:
                version = npy.read_magic(fh)
                if version not in _HEADER_READERS:
                    raise ValueError(f"unsupported .npy version {version}")
                shape, fortran_order, dtype = _HEADER_READERS[version](fh)
            except ValueError as e:
                raise FormatError(f"{where}: {e}") from e
            if dtype.kind not in "biufc" or fortran_order or any(n < 0 for n in shape):
                order = " in Fortran order" if fortran_order else ""
                raise FormatError(
                    f"{where} holds {dtype} {shape}{order}, not a numeric C-order array"
                )
            nbytes = math.prod(shape) * dtype.itemsize
            if nbytes > size - fh.tell():
                raise FormatError(
                    f"{where} declares {shape} x {dtype} in the {size - fh.tell()} bytes left"
                )
            records.append((fh.tell(), shape, dtype))
            fh.seek(nbytes, os.SEEK_CUR)
        arrays = []
        for offset, shape, dtype in records:
            fh.seek(offset)
            arrays.append(np.fromfile(fh, dtype=dtype, count=math.prod(shape)).reshape(shape))
    return arrays

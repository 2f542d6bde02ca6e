"""Little-endian fixed-width binary readers/writers for serialization.

Arrays carry no length: the reader is told how many items to take."""

from __future__ import annotations

import struct
from typing import Callable

import numpy as np

from .errors import IntegrityError


class Writer:
    def __init__(self):
        self._parts: list[bytes] = []

    def u8(self, v: int) -> None:
        self._parts.append(struct.pack("<B", v))

    def u16(self, v: int) -> None:
        self._parts.append(struct.pack("<H", v))

    def u64(self, v: int) -> None:
        self._parts.append(struct.pack("<Q", v))

    def raw(self, b: bytes) -> None:
        self._parts.append(b)

    def array(self, a: np.ndarray) -> None:
        """Little-endian dump of a 1-d array, without its length."""
        a = np.ascontiguousarray(a)
        self.raw(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    def __init__(self, data: bytes, pos: int = 0):
        self._data = data
        self._pos = pos

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise IntegrityError("truncated section")
        b = self._data[self._pos : self._pos + n]
        self._pos += n
        return b

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def array(self, dtype, count: int) -> np.ndarray:
        """The next count items of dtype; ``IntegrityError`` if fewer remain."""
        dtype = np.dtype(dtype)
        data = self._take(count * dtype.itemsize)
        return np.frombuffer(data, dtype=dtype.newbyteorder("<")).astype(dtype, copy=False)

    def left(self) -> int:
        return len(self._data) - self._pos

    def done(self) -> bool:
        return not self.left()


Pieces = dict[str, Callable[[Writer], None]]


def serialized_sizes(pieces: Pieces) -> dict[str, int]:
    """Bytes that each named writer of a structure's fields writes."""
    sizes = {}
    for name, write in pieces.items():
        w = Writer()
        write(w)
        sizes[name] = len(w.getvalue())
    return sizes


class Fields:
    """A structure stored as named fields: ``pieces`` gives the writer of
    each, in file order, so that what is written and what is reported as
    written come from the same code."""

    def pieces(self) -> Pieces:
        raise NotImplementedError

    def serialize(self, w: Writer) -> None:
        for write in self.pieces().values():
            write(w)

    def structure_bytes(self) -> dict[str, int]:
        """Bytes of each field, in file order; they sum to the structure."""
        return serialized_sizes(self.pieces())

"""Little-endian fixed-width binary readers/writers for serialization."""

from __future__ import annotations

import struct

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
        """Length-prefixed little-endian dump of a 1-d array."""
        a = np.ascontiguousarray(a)
        data = a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes()
        self.u64(len(data))
        self.raw(data)

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

    def array(self, dtype) -> np.ndarray:
        n = self.u64()
        if n % np.dtype(dtype).itemsize:
            raise IntegrityError(f"array of {n} bytes is not whole {np.dtype(dtype).name} items")
        return np.frombuffer(self._take(n), dtype=np.dtype(dtype).newbyteorder("<")).astype(
            dtype, copy=False
        )

    def done(self) -> bool:
        return self._pos == len(self._data)

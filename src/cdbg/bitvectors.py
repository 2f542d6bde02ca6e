"""Rank/select bitvectors, Elias-Fano monotone sequences, packed symbol sequences.

Conventions (fixed by the public contracts):

* ``rank1(i)`` counts set bits in the prefix of length ``i``, ``0 <= i <= n``.
* ``select1(j)`` returns the 1-based position of the j-th set bit,
  ``1 <= j <= count``.
* ``get(i)`` uses 0-based positions (plain Python indexing).

A bitvector is held in RAM in one form, ``BitVector``: packed words and
a rank directory. On disk it is a one-byte tag and the smaller of two
encodings, plain on a tie: the words (tag 1), or the set positions as an
Elias-Fano ``MonotoneSequence`` (tag 2). Its length is not stored; the
loader passes it to ``BitVector.deserialize``, which reads either tag into
words. So a file whose writer chose the larger encoding is written back
smaller, and for it ``structure_bytes`` (the per-field bytes of ``cdbg
stats``) tells what this package would write, while the section sizes
come from the container header.

Fixed-width fields (the 2-bit edge symbols, the Elias-Fano low bits) are
stored by one codec, ``_pack_fields``/``_unpack_fields``: a little-endian
bit stream in which bit b of field i is stream bit ``i * width + b``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._binio import Fields, Pieces, Reader, Writer
from .errors import BoundsError, IntegrityError


def _words(packed: np.ndarray) -> np.ndarray:
    """A little-endian byte stream zero-padded to whole uint64 words."""
    words = np.zeros((len(packed) + 7) // 8, dtype="<u8")
    words.view(np.uint8)[: len(packed)] = packed
    return words


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """bits (0/1 uint8) -> uint64 words, bit i of word w = bits[64w + i]."""
    return _words(np.packbits(bits, bitorder="little"))


def _pack_fields(values: np.ndarray, width: int) -> np.ndarray:
    """Nonnegative values below 2**width as a little-endian bit stream of
    width-bit fields, in ceil(n * width / 8) bytes."""
    bits = np.empty((len(values), width), dtype=np.uint8)
    for b in range(width):
        bits[:, b] = (values >> b) & 1
    return np.packbits(bits, bitorder="little")


def _unpack_fields(data: np.ndarray, n: int, width: int) -> np.ndarray:
    """The first n width-bit fields of the bit stream in data, as uint8 up
    to width 8 and as int64 above. Fields are summed one bit column at a
    time, so the temporaries are the stream's bits and one n-entry column."""
    if not width:
        return np.zeros(n, dtype=np.uint8)
    bits = np.unpackbits(data.view(np.uint8), count=n * width, bitorder="little")
    if width > 8:
        bits = bits.astype(np.int64)
    values = bits[::width].copy()
    for b in range(1, width):
        values |= bits[b::width] << values.dtype.type(b)
    return values


class BitVector:
    """Plain bitvector with O(1) rank and O(log n) select."""

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=np.uint8)
        self._hold(len(bits), _pack_bits(bits))

    def _hold(self, n: int, words: np.ndarray, count: int | None = None) -> None:
        """Keep n bits packed in words, and their count."""
        self.n = n
        self._words = words
        self.count = int(np.bitwise_count(words).sum()) if count is None else count

    @cached_property
    def _block(self) -> np.ndarray:
        """The rank directory, built at the first rank or select:
        ``_block[w]`` is the number of set bits in ``words[:w]``."""
        block = np.zeros(len(self._words) + 1, dtype=np.int64)
        np.cumsum(np.bitwise_count(self._words), out=block[1:])
        return block

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise BoundsError(f"bit index {i} out of range [0, {self.n})")
        return int((self._words[i >> 6] >> np.uint64(i & 63)) & np.uint64(1))

    def rank1(self, i: int) -> int:
        """Set bits in the prefix of length i."""
        if not 0 <= i <= self.n:
            raise BoundsError(f"rank position {i} out of range [0, {self.n}]")
        w, r = divmod(int(i), 64)
        part = int(self._words[w]) & ((1 << r) - 1) if r else 0
        return int(self._block[w]) + part.bit_count()

    def select1(self, j: int) -> int:
        """1-based position of the j-th set bit."""
        if not 1 <= j <= self.count:
            raise BoundsError(f"select occurrence {j} out of range [1, {self.count}]")
        w = int(np.searchsorted(self._block, j, side="left")) - 1
        x = int(self._words[w])
        r = j - int(self._block[w])
        while r > 1:
            x &= x - 1
            r -= 1
        return (w << 6) + (x & -x).bit_length()

    def ones_positions(self) -> np.ndarray:
        """0-based positions of the set bits (``flatnonzero`` is 4x faster on bools)."""
        return np.flatnonzero(self.to_bits().view(bool)).astype(np.int64)

    def to_bits(self) -> np.ndarray:
        return np.unpackbits(self._words.view(np.uint8), count=self.n, bitorder="little")

    def serialize(self, w: Writer) -> None:
        """A tag byte, then the words (tag 1) or the set positions as a
        ``MonotoneSequence`` (tag 2), whichever is smaller, plain on a tie.
        Both sizes follow from the length, the count and the last set bit,
        read off the last nonzero word; the set positions are unpacked only
        when the sparse encoding wins."""
        top = np.flatnonzero(self._words)[-1:]  # the last nonzero word, if any
        last = 64 * int(top[0]) + int(self._words[top[0]]).bit_length() - 1 if len(top) else 0
        if MonotoneSequence.serialized_size(self.count, last) < 8 * len(self._words):
            w.u8(2)
            return MonotoneSequence(self.ones_positions()).serialize(w)
        w.u8(1)
        w.array(self._words)

    @classmethod
    def deserialize(cls, r: Reader, n: int) -> "BitVector":
        """The n bits at the reader's position, stored in either encoding."""
        tag = r.u8()
        bv = cls.__new__(cls)
        if tag == 1:
            words = r.array(np.uint64, (n + 63) // 64)
            if n % 64 and int(words[-1]) >> (n % 64):
                raise IntegrityError(f"plain bitvector sets bits past its {n} bits")
            bv._hold(n, words)
        elif tag == 2:
            pos = MonotoneSequence.deserialize(r).to_array()  # nonnegative
            if (pos[1:] <= pos[:-1]).any():
                raise IntegrityError("sparse bitvector: positions must be strictly increasing")
            if len(pos) and pos[-1] >= n:
                raise IntegrityError("sparse bitvector: set-bit position out of range")
            bits = np.zeros(n, dtype=np.uint8)
            bits[pos] = 1
            bv._hold(n, _pack_bits(bits), len(pos))
        else:
            raise IntegrityError(f"unknown bitvector tag {tag}")
        return bv


class SparseBitVector(BitVector):
    """Never built. The benchmark's traced mode wraps ``rank1`` and
    ``select1`` of this class through its own ``__dict__``, so it keeps
    both until that wrap list drops it."""

    rank1 = BitVector.rank1
    select1 = BitVector.select1


class MonotoneSequence:
    """Elias-Fano encoded nondecreasing sequence of nonnegative integers.

    Entry j is split into its high part ``v >> l``, stored in unary as set
    bit ``high + j`` of a plain bitvector, and its l low bits, stored as the
    j-th field of a fixed-width bit stream in uint64 words.

    Stored: n, l, the ``ceil(n * l / 64)`` low words, and the high words
    with their count. ``deserialize`` checks that the high bits mark exactly
    n entries, the last in the last word, and that every value the high
    bits and l allow fits a nonnegative int64, so ``access`` (0-based),
    ``access_range`` and the whole-sequence ``to_array`` read only checked
    structure and agree.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.int64)
        if values.size:
            if values.min() < 0:
                raise ValueError("values must be nonnegative")
            if (values[1:] < values[:-1]).any():
                raise ValueError("values must be nondecreasing")
        n = self.n = len(values)
        l = self._low_bits = self._low_width(n, int(values[-1]) if n else 0)
        highs = values >> l
        high_bits = np.zeros(n + int(highs[-1]) if n else 0, dtype=np.uint8)
        high_bits[highs + np.arange(n)] = 1
        self._high = BitVector(high_bits)
        self._lows = _words(_pack_fields(values & ((1 << l) - 1), l))

    @staticmethod
    def _low_width(n: int, last: int) -> int:
        """The low bits per entry of n entries whose largest is last:
        floor(log2((last + 1) // n)), at least 0, on integers (a float log2
        rounds up for ratios just below 2**53 and above)."""
        return max(1, (last + 1) // max(1, n)).bit_length() - 1

    @classmethod
    def serialized_size(cls, n: int, last: int) -> int:
        """Bytes that ``serialize`` writes for n entries whose largest is
        last (0 when n is 0): the fixed fields, the low words and the high
        words, whose n + (last >> l) bits end at the last entry's bit."""
        l = cls._low_width(n, last)
        return 8 + 1 + 8 * ((n * l + 63) // 64) + 8 + 8 * ((n + (last >> l) + 63) // 64)

    def __len__(self) -> int:
        return self.n

    def access(self, j: int) -> int:
        """Entry j (0-based)."""
        return self.access_range(j, j + 1)[0]

    def access_range(self, i: int, j: int) -> list[int]:
        """Entries i..j-1 (0-based): one select for entry i, then a forward
        scan over the high bits of the run."""
        if not 0 <= i <= j <= self.n:
            raise BoundsError(f"access range [{i}, {j}) outside [0, {self.n})")
        if i == j:
            return []
        pos = self._high.select1(i + 1) - 1
        words = self._high._words
        w, s = divmod(pos, 64)
        x = int(words[w]) >> s << s
        highs = []
        for e in range(i, j):
            while not x:
                w += 1
                x = int(words[w])
            highs.append((w << 6) + (x & -x).bit_length() - 1 - e)
            x &= x - 1
        l = self._low_bits
        first = i * l >> 6
        lows = int.from_bytes(self._lows[first : ((j * l - 1) >> 6) + 1].tobytes(), "little")
        mask = (1 << l) - 1
        shift = i * l - (first << 6)
        return [(h << l) | (lows >> (shift + t * l) & mask) for t, h in enumerate(highs)]

    def to_array(self) -> np.ndarray:
        if not self.n:  # the usually empty kept bits: loads ran 1.12x slower without it
            return np.zeros(0, dtype=np.int64)
        highs = self._high.ones_positions() - np.arange(self.n, dtype=np.int64)
        return (highs << self._low_bits) | _unpack_fields(self._lows, self.n, self._low_bits)

    def serialize(self, w: Writer) -> None:
        w.u64(self.n)
        w.u8(self._low_bits)
        w.array(self._lows)
        w.u64(len(self._high._words))
        w.array(self._high._words)

    @classmethod
    def deserialize(cls, r: Reader) -> "MonotoneSequence":
        seq = cls.__new__(cls)
        n = seq.n = r.u64()
        l = seq._low_bits = r.u8()
        seq._lows = r.array(np.uint64, (n * l + 63) // 64)
        words = r.array(np.uint64, r.u64())
        top = 64 * len(words) - 64 + int(words[-1]).bit_length() if len(words) else 0
        high = seq._high = BitVector.__new__(BitVector)
        high._hold(top, words)
        if high.count != n or (len(words) and not words[-1]):
            raise IntegrityError(
                f"Elias-Fano high bits mark {high.count} entries in {len(words)} words, not {n}"
            )
        if (top - n + 1) << l > 2**63:  # past the last entry's high part
            raise IntegrityError(f"Elias-Fano values of {l} low bits overflow int64")
        return seq


class SymbolSequence(Fields):
    """Sequence of edge symbols, codes 1..5 (``$acgt``), one byte per code
    in RAM; ``access`` uses 1-based positions. The symbols hold one run of
    ``closure_len`` ``$`` symbols from ``closure_start`` (0-based), the
    graph's closure edges.

    On disk that run is its start, one byte (in the graph it is the root's
    outdegree, at most 4), and its length, a u64. The other ``$`` symbols
    are one bitvector over the symbols outside the run, and every
    remaining symbol is a 2-bit code, a c g t = 0 1 2 3, packed by
    ``_pack_fields``; the marks give the number of codes.
    """

    def __init__(self, codes: np.ndarray, closure_start: int, closure_len: int):
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.size and (codes.min() < 1 or codes.max() > 5):
            raise ValueError("symbol codes must lie in [1, 5]")
        run = codes[closure_start : closure_start + closure_len]
        if not 0 <= closure_start <= len(codes) - closure_len or (run != 1).any():
            raise ValueError("the closure run must be $ symbols inside the sequence")
        self._hold(codes, closure_start, closure_len)

    def _hold(self, codes: np.ndarray, closure_start: int, closure_len: int) -> None:
        self.n = len(codes)
        self._codes = codes
        self.closure_start = closure_start
        self.closure_len = closure_len

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise BoundsError(f"access position {i} out of range [1, {self.n}]")
        return int(self._codes[i - 1])

    def codes(self) -> np.ndarray:
        return self._codes

    def _split(self) -> tuple[BitVector, np.ndarray]:
        """The ``$`` marks over the symbols outside the closure run, and the
        packed 2-bit codes of the unmarked ones."""
        start = self.closure_start
        rest = np.concatenate([self._codes[:start], self._codes[start + self.closure_len :]])
        dollar = rest == 1
        return BitVector(dollar), _pack_fields(rest[~dollar] - 2, 2)

    def _write_closure(self, w: Writer) -> None:
        w.u8(self.closure_start)
        w.u64(self.closure_len)

    def pieces(self) -> Pieces:
        marks, packed = self._split()
        return {
            "closure": self._write_closure,
            "dollars": marks.serialize,
            "codes": lambda w: w.array(packed),
        }

    @classmethod
    def deserialize(cls, r: Reader, n: int) -> "SymbolSequence":
        """The n symbols of a sequence. The lengths are checked against the
        stored bytes before any n-sized array is allocated: every symbol
        outside the closure run costs at least one stored bit, a mark or a
        2-bit code."""
        start, closure_len = r.u8(), r.u64()
        if closure_len > n:
            raise IntegrityError(f"{closure_len} closure edges exceed the {n} edges")
        if n - closure_len > 8 * r.left():
            raise IntegrityError(f"truncated section: {n - closure_len} symbols in {r.left()} bytes")
        marks = BitVector.deserialize(r, n - closure_len)
        if start > marks.n:
            raise IntegrityError(f"closure run at {start} starts past the {n} edges")
        if marks.count < closure_len:
            raise IntegrityError(f"{marks.count} $ edges cannot enter {closure_len} ending nodes")
        rest = marks.n - marks.count
        packed = r.array(np.uint8, (2 * rest + 7) // 8)
        if rest % 4 and int(packed[-1]) >> 2 * (rest % 4):
            raise IntegrityError("packed symbols set bits past their last symbol")
        other = marks.to_bits()
        other[other == 0] = _unpack_fields(packed, rest, 2) + 2
        run = np.ones(closure_len, dtype=np.uint8)
        seq = cls.__new__(cls)
        seq._hold(np.concatenate([other[:start], run, other[start:]]), start, closure_len)
        return seq

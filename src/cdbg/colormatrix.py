"""Succinct color matrix: colorable bitmap N, row-boundary bitmap F, delta payload.

Rows of the dynamic table are concatenated as deltas (first element
absolute, later elements differences) into one list; its prefix sums are
strictly increasing and stored with Elias-Fano so that a row decodes in
time linear in its length: color h of row [i..j] is ps[i+h-1] - ps[i-1].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._binio import Reader, Writer
from .bitvectors import AnyBitVector, MonotoneSequence, bit_vector, read_bit_vector
from .coloring import ColorableMap, DynamicColorTable
from .errors import IncompleteColoring, IntegrityError, NotColored


@dataclass
class CompressedColors:
    """Immutable (N, F, payload) triple answering per-node color queries."""

    N: AnyBitVector
    F: AnyBitVector
    payload: MonotoneSequence  # prefix sums of the delta list M'
    p: int
    num_colors: int

    def serialize(self, w: Writer) -> None:
        w.u8(1)  # section version
        w.u64(self.p)
        w.u64(self.num_colors)
        self.N.serialize(w)
        self.F.serialize(w)
        self.payload.serialize(w)

    @classmethod
    def deserialize(cls, r: Reader) -> "CompressedColors":
        if r.u8() != 1:
            raise IntegrityError("unsupported color section version")
        p = r.u64()
        num_colors = r.u64()
        n = read_bit_vector(r)
        f = read_bit_vector(r)
        payload = MonotoneSequence.deserialize(r)
        if n.count != p or f.count != p:
            raise IntegrityError(f"N marks {n.count} colorable nodes and F {f.count} rows, not p={p}")
        if f.n != len(payload):
            raise IntegrityError(f"row bitmap length {f.n} != payload length {len(payload)}")
        return cls(N=n, F=f, payload=payload, p=p, num_colors=num_colors)


def compress(table: DynamicColorTable, cmap: ColorableMap) -> CompressedColors:
    """Delta-encode the table rows in colorable-rank order. The (rank, color)
    pairs come from the nonzero bytes of the row masks, so memory is the
    masks' own bytes plus a few words per entry; a prefix sum is the color
    plus the last colors of all earlier rows."""
    masks = table.masks
    if 0 in masks:
        raise IncompleteColoring(f"colorable rank {masks.index(0) + 1} received no color")
    last = np.array([m.bit_length() for m in masks], dtype=np.int64)  # each row's last color
    sizes = (last + 7) // 8
    data = b"".join(map(int.to_bytes, masks, sizes.tolist(), repeat("little")))
    data = np.frombuffer(data, dtype=np.uint8)
    nz = np.flatnonzero(data)
    i, bit = np.nonzero(np.unpackbits(data[nz, None], axis=1, bitorder="little"))
    row = np.repeat(np.arange(len(masks)), sizes)[nz[i]]
    colors = 8 * (nz[i] - (np.cumsum(sizes) - sizes)[row]) + bit + 1
    return CompressedColors(
        N=cmap.bitmap,
        F=bit_vector(np.diff(row, prepend=-1) != 0),
        payload=MonotoneSequence(colors + (np.cumsum(last) - last)[row]),
        p=len(masks),
        num_colors=int(last.max(initial=0)),
    )


def get_colors(cc: CompressedColors, v: int) -> list[int]:
    """Colors of node v, cost proportional to the answer length."""
    if not cc.N.get(v - 1):
        raise NotColored(f"node {v} is not in the colorable set")
    r = int(cc.N.rank1(v))
    i = cc.F.select1(r)
    j = cc.F.select1(r + 1) - 1 if r < cc.p else len(cc.payload)
    if i < 2:
        return cc.payload.access_range(0, j)
    base, *sums = cc.payload.access_range(i - 2, j)
    return [s - base for s in sums]


def decode_rows(cc: CompressedColors) -> tuple[np.ndarray, np.ndarray]:
    """All p rows at once as compressed-row arrays: the row of colorable rank
    r is ``colors[offsets[r - 1]:offsets[r]]``.

    Decodes the payload and F once instead of one ``access`` per color.
    Raises ``IntegrityError`` unless F has exactly p set bits, the first at
    position 0, F is as long as the payload, and every row is strictly
    increasing from color 1 (the payload prefix sums strictly increase).
    """
    ps = cc.payload.to_array()
    starts = cc.F.ones_positions()
    if cc.F.n != len(ps):
        raise IntegrityError(f"row bitmap length {cc.F.n} != payload length {len(ps)}")
    if len(starts) != cc.p:
        raise IntegrityError(f"row bitmap marks {len(starts)} rows, expected p={cc.p}")
    offsets = np.append(starts, len(ps))
    if offsets[0] != 0:
        raise IntegrityError("row bitmap does not start a row at position 0")
    if len(ps) and (ps[0] < 1 or np.any(np.diff(ps) <= 0)):
        raise IntegrityError("color payload is not strictly increasing from 1")
    base = np.zeros(cc.p, dtype=np.int64)
    base[1:] = ps[starts[1:] - 1]
    return offsets, ps - np.repeat(base, np.diff(offsets))


def decode_table(cc: CompressedColors) -> list[list[int]]:
    """All rows, in colorable-rank order (test/verification helper)."""
    offsets, colors = decode_rows(cc)
    bounds, flat = offsets.tolist(), colors.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

"""Succinct color matrix: stored-row bitmap N, row-boundary bitmap F, delta payload.

Rows of the dynamic table are concatenated as deltas (first element
absolute, later elements differences) into one list; its prefix sums are
strictly increasing and stored with Elias-Fano so that a row decodes in
time linear in its length: color h of row [i..j] is ps[i+h-1] - ps[i-1].

The rows are those of the colorable nodes less the implicit successors
(``BossIndex.implicit_candidates``) that share no color with a sibling:
a walk finds their colors without them. The color section stores the
payload, then F, whose length is the payload's, then one bit per
implicit successor, set where its row is kept. N, the nodes with a row,
is derived at load from the graph's explicit colorable bitmap and those
bits, and held as plain words; p is its count, and the number of colors
is the largest last color of a row. The section is checked once, at
load, so the decoders read trusted arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from ._binio import Fields, Pieces, Reader
from .bitvectors import BitVector, MonotoneSequence
from .coloring import DynamicColorTable
from .errors import IncompleteColoring, IntegrityError, NotColored


_NONE = np.zeros(0, dtype=np.int64)


@dataclass
class CompressedColors(Fields):
    """Immutable (N, F, payload) triple answering per-node color queries.

    ``kept`` marks, per implicit successor of the graph, the ones with a
    row, and ``implicit`` holds the ids of the others, the colorable nodes
    without a row; a table built without them keeps every row.
    ``_query`` is traversal's slot for its view of these colors
    (``traversal._ColorView``), empty after build and after load.
    """

    N: BitVector  # the nodes with a row
    F: BitVector  # the first entry of each row in the payload
    payload: MonotoneSequence  # prefix sums of the delta list M'
    p: int
    num_colors: int
    kept: BitVector = field(default_factory=lambda: BitVector(_NONE))
    implicit: np.ndarray = field(default_factory=lambda: _NONE)
    _query: object = field(default=None, init=False, compare=False, repr=False)

    def pieces(self) -> Pieces:
        return {
            "payload": self.payload.serialize,
            "F": self.F.serialize,
            "kept": self.kept.serialize,
        }

    @classmethod
    def deserialize(
        cls, r: Reader, explicit: BitVector, candidates: np.ndarray = _NONE
    ) -> "CompressedColors":
        """The section, with N the nodes of the loaded graph's explicit
        colorable bitmap and the implicit successors ``candidates`` whose
        bit is set. Raises ``IntegrityError`` unless F, as long as the
        payload, marks one row per node of N, the first at position 0, and
        the payload strictly increases from 1, so that every row is
        non-empty and strictly increasing. The number of colors C is the
        largest last color of a row; a greedy coloring uses every color
        1..C in the row of a starting node, so C above the payload length
        is refused too."""
        payload = MonotoneSequence.deserialize(r)
        f = BitVector.deserialize(r, len(payload))
        kept = BitVector.deserialize(r, len(candidates))
        stored, implicit = explicit, candidates
        if kept.count:
            bits = explicit.to_bits()
            bits[candidates[kept.ones_positions()] - 1] = 1
            stored, implicit = BitVector(bits), candidates[~kept.to_bits().view(bool)]
        p = stored.count
        if f.count != p:
            raise IntegrityError(f"row bitmap marks {f.count} rows, not p={p}")
        if f.n and not f.get(0):
            raise IntegrityError("row bitmap does not start a row at position 0")
        ps = payload.to_array()
        if len(ps) and (ps[0] < 1 or (np.diff(ps) <= 0).any()):
            raise IntegrityError("color payload is not strictly increasing from 1")
        ends = np.append(f.ones_positions()[1:], len(ps)) - 1
        num_colors = int(np.diff(ps[ends], prepend=0).max()) if p else 0
        if num_colors > len(ps):
            raise IntegrityError(f"largest color {num_colors} exceeds the {len(ps)} color entries")
        return cls(
            N=stored, F=f, payload=payload, p=p, num_colors=num_colors, kept=kept, implicit=implicit
        )


def compress(table: DynamicColorTable, colorable: BitVector) -> CompressedColors:
    """Delta-encode the table rows in colorable-rank order, less those of
    the implicit successors the table does not keep; N is ``colorable``,
    the graph's colourable bitmap, less those nodes. The (rank, color)
    pairs come from the nonzero bytes of the row masks, so memory is the
    masks' own bytes plus a few words per entry; a prefix sum is the color
    plus the last colors of all earlier rows."""
    masks = table.masks
    if 0 in masks:
        raise IncompleteColoring(f"colorable rank {masks.index(0) + 1} received no color")
    stored, implicit = colorable, table.candidates[~table.kept]
    if len(implicit):
        bits = colorable.to_bits()
        dropped = set((np.cumsum(bits)[implicit - 1] - 1).tolist())
        masks = [m for r, m in enumerate(masks) if r not in dropped]
        bits[implicit - 1] = 0
        stored = BitVector(bits)
    last = np.array([m.bit_length() for m in masks], dtype=np.int64)  # each row's last color
    sizes = (last + 7) // 8
    data = b"".join(map(int.to_bytes, masks, sizes.tolist(), repeat("little")))
    data = np.frombuffer(data, dtype=np.uint8)
    nz = np.flatnonzero(data)
    i, bit = np.nonzero(np.unpackbits(data[nz, None], axis=1, bitorder="little"))
    row = np.repeat(np.arange(len(masks)), sizes)[nz[i]]
    colors = 8 * (nz[i] - (np.cumsum(sizes) - sizes)[row]) + bit + 1
    return CompressedColors(
        N=stored,
        F=BitVector(np.diff(row, prepend=-1) != 0),
        payload=MonotoneSequence(colors + (np.cumsum(last) - last)[row]),
        p=len(masks),
        num_colors=int(last.max(initial=0)),
        kept=BitVector(table.kept),
        implicit=implicit,
    )


def get_colors(cc: CompressedColors, v: int) -> list[int]:
    """Colors of node v, cost proportional to the answer length. Raises
    ``NotColored`` for a node without a row, an implicit successor too."""
    if not cc.N.get(v - 1):
        raise NotColored(f"node {v} has no row")
    r = int(cc.N.rank1(v))
    i = cc.F.select1(r)
    j = cc.F.select1(r + 1) - 1 if r < cc.p else len(cc.payload)
    if i < 2:
        return cc.payload.access_range(0, j)
    base, *sums = cc.payload.access_range(i - 2, j)
    return [s - base for s in sums]


def decode_rows(cc: CompressedColors) -> tuple[np.ndarray, np.ndarray]:
    """All p rows at once as compressed-row arrays: the row of N-rank r is
    ``colors[offsets[r - 1]:offsets[r]]``.

    Decodes the payload and F once instead of one ``access`` per color;
    both were checked at load.
    """
    ps = cc.payload.to_array()
    starts = cc.F.ones_positions()
    offsets = np.append(starts, len(ps))
    base = np.zeros(cc.p, dtype=np.int64)
    base[1:] = ps[starts[1:] - 1]
    return offsets, ps - np.repeat(base, np.diff(offsets))

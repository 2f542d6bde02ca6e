"""Partial graph coloring: the colorable nodes and greedy color assignment.

Only starting, ending and critical nodes are colored; they are the p
colorable nodes. The graph derives their bitmap N at build and at load
(``BossIndex.colorable``), so the index does not store it. For every
string s of R' (the reads plus their reverse complements), the scan
collects two rank sets over the path of $·s·$:

* W, the colorable nodes on the path, including the ending node;
* I, the nodes whose colors s must avoid so that it can be told apart at
  branches: its starting and ending nodes and the successors of every
  branching node on the path or leading into a path node of indegree > 1,
  the ending node included (a later string that ends there must not take
  the colour of one that branched off before it).

``scan_all`` computes W and I for all strings at once with whole-array
operations; ``tests/oracle.py::scan_read_ref`` is the per-string graph
walk it agrees with. A sequential pass then gives each string, in R'
order (the greedy order), the smallest color absent from its I and W
rows. Each row is one Python int with bit c - 1 set for color c, so the
occupied colors are the OR of the string's I and W rows, its color is the
lowest zero bit of that OR, and the W rows take that bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitvectors import BitVector
from ._arrays import _gather, _unique
from .boss import BossIndex, _branch_edges
from .errors import CorruptIndex
from .sequence import DUMMY, ReadSet, encode
from .stages import stage


def mark_colorable(boss: BossIndex) -> BitVector:
    """Starting and ending nodes, plus the solid successors of branching
    nodes: the graph's own colourable bitmap, derived with the graph."""
    return boss.colorable


@dataclass
class ColoringJob:
    """Scan result for one string of R': ranks to color and ranks to inspect."""

    W: list[int]
    I: list[int]


class DynamicColorTable:
    """Growable per-colorable-node color sets: ``masks[r - 1]`` is the row of
    colorable rank r as a Python int, with bit c - 1 set for color c."""

    def __init__(self, p: int):
        self.masks: list[int] = [0] * p
        self.read_colors: list[int] = []

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "DynamicColorTable":
        """A table holding the given colors at each colorable rank, in order."""
        table = cls(len(rows))
        table.masks = [sum(1 << (c - 1) for c in set(row)) for row in rows]
        return table

    @property
    def rows(self) -> list[list[int]]:
        """Each row's colors in increasing order; a copy, derived from the masks."""
        return [[i + 1 for i in range(m.bit_length()) if m >> i & 1] for m in self.masks]

    @property
    def p(self) -> int:
        return len(self.masks)

    @property
    def num_colors(self) -> int:
        return max(self.read_colors, default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DynamicColorTable)
            and self.masks == other.masks
            and self.read_colors == other.read_colors
        )


def scan_read(boss: BossIndex, colorable: BitVector, read: str) -> ColoringJob:
    """W and I of one string: ``scan_all`` of that string alone."""
    return scan_all(boss, colorable, [read])[0]


def assign_color(job: ColoringJob, table: DynamicColorTable) -> int:
    """Pick the smallest color absent from I union W rows; add it to W rows."""
    masks = table.masks
    occupied = 0
    for r in job.I:
        occupied |= masks[r - 1]
    for r in job.W:
        occupied |= masks[r - 1]
    bit = ~occupied & (occupied + 1)  # the lowest zero bit
    for r in job.W:
        masks[r - 1] |= bit
    return bit.bit_length()


def color_all(
    boss: BossIndex, colorable: BitVector, reads: ReadSet, threads: int = 1
) -> DynamicColorTable:
    """Scan all strings of R' at once, then assign colors sequentially in
    R' order. ``threads`` is ignored; it stays because the benchmark's
    pipeline passes ``threads=1`` (ROADMAP item 1 removes both)."""
    strings = [s for s in reads.strings_with_rc() if len(s) >= boss.k]
    with stage("scan"):
        jobs = scan_all(boss, colorable, strings)
    with stage("assign"):
        table = DynamicColorTable(colorable.count)
        for job in jobs:
            table.read_colors.append(assign_color(job, table))
    return table


def scan_all(boss: BossIndex, colorable: BitVector, strings: list[str]) -> list[ColoringJob]:
    """W and I of every string, equal to the per-string graph walk
    ``tests/oracle.py::scan_read_ref`` string by string.

    Raises ``CorruptIndex`` in the cases that walk does: a string
    shorter than k, a path that breaks off the graph, an inspected
    successor that is not colorable, or a path that does not end on a
    colorable node.
    """
    if not strings:
        return []
    k = boss.k
    if min(len(s) for s in strings) < k:
        raise CorruptIndex(f"read shorter than order k={k}")
    path, offsets = _walk_paths(boss, strings)
    on = colorable.to_bits().astype(bool)
    rank = np.cumsum(on)  # rank[v - 1] = rank1(v)
    n = len(strings)
    owner = np.repeat(np.arange(n), np.diff(offsets))
    firsts, ends = path[offsets[:-1]], path[offsets[1:] - 1]

    ptr, inspected = _inspected_successors(boss)
    idx, counts = _gather(ptr, path)
    seen = inspected[idx]
    bad = seen[~on[seen - 1]]
    if len(bad):
        raise CorruptIndex(f"uncolorable successor {bad[0]} of a branching node")
    if not on[ends - 1].all():
        raise CorruptIndex("path did not end on a colorable ending node")

    p1 = colorable.count + 1
    on_w = on[path - 1]
    w_keys = _unique(owner[on_w] * p1 + rank[path[on_w] - 1])
    i_keys = _unique(np.concatenate([
        np.repeat(owner, counts) * p1 + rank[seen - 1],
        np.arange(n) * p1 + rank[firsts - 1],
        np.arange(n) * p1 + rank[ends - 1],
    ]))
    return [
        ColoringJob(W=w, I=r)
        for w, r in zip(_split_keys(w_keys, p1, n), _split_keys(i_keys, p1, n))
    ]


def _walk_paths(boss: BossIndex, strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Node path of $·s·$ for every string, from its starting node $·s[:k-2]
    to its ending node, flat with per-string offsets.

    All strings walk in lockstep from the all-dummy root (node 1) over
    s + "$"; after k-2 steps each is at its starting node. Strings are
    ordered longest first, so the ones still walking are a prefix.
    """
    k = boss.k
    steps = np.array([len(s) + 1 for s in strings], dtype=np.int64)
    syms = encode(DUMMY.join(strings) + DUMMY)
    sym_start = np.concatenate([[0], np.cumsum(steps)[:-1]])
    offsets = np.concatenate([[0], np.cumsum(steps - (k - 3))])
    path = np.empty(offsets[-1], dtype=np.int64)

    # forward(v, c) is fwd[5 * v + c - 1], the target of v's edge with symbol c,
    # at the narrowest width that holds an index into the table
    size = 5 * (boss.node_count + 1)
    fwd = np.zeros(size, dtype=np.int32 if size < 2**31 else np.int64)
    fwd[5 * boss.edge_sources().astype(np.int64) + boss._codes - 1] = boss.edge_targets()
    order = np.argsort(-steps, kind="stable")
    neg_steps = -steps[order]
    sym_start, path_start = sym_start[order], offsets[:-1][order] - (k - 2)
    cur = np.ones(len(strings), dtype=np.int64)
    for j in range(int(steps.max())):
        a = int(np.searchsorted(neg_steps, -j))  # strings with more than j steps
        cur = fwd[5 * cur[:a] + syms[sym_start[:a] + j] - 1]
        if not cur.all():
            i = int(order[np.flatnonzero(cur == 0)].min())
            if j < k - 2:
                raise CorruptIndex(f"starting node missing for prefix of string {i}")
            raise CorruptIndex(f"path of string {i} breaks off the graph")
        if j >= k - 3:
            path[path_start[:a] + j + 1] = cur
    return path, offsets


def _inspected_successors(boss: BossIndex) -> tuple[np.ndarray, np.ndarray]:
    """CSR over node ids: the successors the per-string walk
    (``tests/oracle.py::scan_read_ref``) inspects when its path passes
    node v, the ending node included. They are the real successors of v
    when v branches, and, when v has indegree > 1, those of every branching
    predecessor of v. Row v is ``inspected[ptr[v]:ptr[v + 1]]``. Node ids
    are widened to int64 first: the key ``node * (n + 1) + tgt`` exceeds
    int32 once n > 46,340."""
    n = boss.node_count
    src, targets = boss.edge_sources().astype(np.int64), boss.edge_targets().astype(np.int64)
    branch = _branch_edges(boss, targets)
    own_src, own_tgt = src[branch], targets[branch]
    own_ptr = np.searchsorted(own_src, np.arange(n + 2))
    into = branch & (np.bincount(targets, minlength=n + 1)[targets] > 1)
    idx, counts = _gather(own_ptr, src[into])
    node = np.concatenate([own_src, np.repeat(targets[into], counts)])
    tgt = np.concatenate([own_tgt, own_tgt[idx]])
    node, tgt = np.divmod(_unique(node * (n + 1) + tgt), n + 1)
    return np.searchsorted(node, np.arange(n + 2)), tgt


def _split_keys(keys: np.ndarray, p1: int, n: int) -> list[list[int]]:
    """Sorted keys ``string * p1 + rank`` to one sorted rank list per string."""
    bounds = np.searchsorted(keys // p1, np.arange(n + 1)).tolist()
    ranks = (keys % p1).tolist()
    return [ranks[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

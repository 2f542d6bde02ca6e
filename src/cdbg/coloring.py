"""Partial graph coloring: the colorable nodes and greedy color assignment.

Only starting, ending and critical nodes are colored; they are the p
colorable nodes. The graph derives them at build and at load
(``BossIndex.colorable``), so the index does not store their bitmap. For
every string s of R' (the reads plus their reverse complements), the scan
collects two rank sets over the path of $·s·$:

* W, the colorable nodes on the path, from the starting to the ending node;
* U, W plus the successors of every branching node on the path or leading
  into a path node of indegree > 1, the ending node included (a later
  string that ends there must not take the colour of one that branched
  off before it; ``_inspected_successors`` holds that rule).

``scan_all`` computes both for all strings at once with whole-array
operations, as flat rank lists with per-string bounds;
``tests/oracle.py::scan_read_ref`` is the per-string graph walk it agrees
with. A sequential pass then gives each string, in R' order (the greedy
order), the smallest color absent from its U rows. Each row is one Python
int with bit c - 1 set for color c, so the string's color is the lowest
zero bit of the OR of its U rows, and its W rows take that bit.

Every colorable row is filled, the rows of the graph's implicit
successors (``BossIndex.implicit_candidates``) too. A walk at the
branching node above such a node t sends t every color that no ending
sibling holds, so the index drops t's row unless it shares a color with a
sibling's row, which happens only where a string repeats a (k-2)-mer.
``color_all`` records on the table which candidates keep their rows, and
``colormatrix.compress`` drops the others.
"""

from __future__ import annotations

import numpy as np

from .bitvectors import BitVector
from ._arrays import _gather, _unique
from .boss import BossIndex
from .errors import CorruptIndex
from .sequence import DUMMY, ReadSet, encode
from .stages import stage


def mark_colorable(boss: BossIndex) -> BitVector:
    """Starting and ending nodes, plus the solid successors of branching
    nodes: the graph's colourable bitmap (``BossIndex.colorable``)."""
    return boss.colorable


class DynamicColorTable:
    """Growable per-colorable-node color sets: ``masks[r - 1]`` is the row of
    colorable rank r as a Python int, with bit c - 1 set for color c.
    ``candidates`` holds the ids of the graph's implicit successors, and
    ``kept`` whether each shares a color with a sibling and so keeps its
    row in the index; a table whose masks are set by hand has neither, so
    every row is kept. ``read_colors`` holds each string's color in R'
    order; the number of colors C is read from the compressed section
    (``CompressedColors.num_colors``), not from the table."""

    def __init__(self, p: int):
        self.masks: list[int] = [0] * p
        self.read_colors: list[int] = []
        self.candidates = np.zeros(0, dtype=np.int64)
        self.kept = np.zeros(0, dtype=bool)


def scan_read(boss: BossIndex, colorable: BitVector, read: str) -> tuple[list[int], list[int]]:
    """W and U of one string: ``scan_all`` of that string alone."""
    w, _, u, _ = scan_all(boss, colorable, [read])
    return w, u


def assign_color(w: list[int], u: list[int], table: DynamicColorTable) -> int:
    """Pick the smallest color absent from the U rows; add it to the W rows."""
    masks = table.masks
    occupied = 0
    for r in u:
        occupied |= masks[r - 1]
    bit = ~occupied & (occupied + 1)  # the lowest zero bit
    for r in w:
        masks[r - 1] |= bit
    return bit.bit_length()


def color_all(
    boss: BossIndex, colorable: BitVector, reads: ReadSet, threads: int = 1
) -> DynamicColorTable:
    """Scan all strings of R' at once, then assign colors sequentially in
    R' order, and record which implicit successors keep their rows.
    ``threads`` is ignored; it stays because the benchmark's pipeline
    passes ``threads=1`` (ROADMAP item 1 removes both)."""
    strings = [s for s in reads.strings_with_rc() if len(s) >= boss.k]
    with stage("scan"):
        w, w_bounds, u, u_bounds = scan_all(boss, colorable, strings)
    with stage("assign"):
        table = DynamicColorTable(colorable.count)
        table.read_colors = [
            assign_color(w[a:b], u[c:d], table)
            for a, b, c, d in zip(w_bounds, w_bounds[1:], u_bounds, u_bounds[1:])
        ]
        table.candidates = boss.implicit_candidates
        table.kept = _shares_with_sibling(boss, colorable, table.masks)
    return table


def _shares_with_sibling(boss: BossIndex, colorable: BitVector, masks: list[int]) -> np.ndarray:
    """Per implicit successor, whether its row shares a color with its
    sibling's: the target of the $ edge just before the read-end edge
    (``BossIndex._read_end_edges``) that enters it."""
    targets = boss.edge_targets()
    second = boss._read_end_edges(np.flatnonzero(np.diff(boss._first_edge) == 2))
    sibling_of = np.zeros(boss.node_count + 1, dtype=targets.dtype)
    sibling_of[targets[second]] = targets[second - 1]
    ones = colorable.ones_positions()  # a node's row is its position among them
    node = np.searchsorted(ones, boss.implicit_candidates - 1).tolist()
    sibling = np.searchsorted(ones, sibling_of[boss.implicit_candidates] - 1).tolist()
    return np.array([masks[t] & masks[s] != 0 for t, s in zip(node, sibling)], dtype=bool)


def scan_all(
    boss: BossIndex, colorable: BitVector, strings: list[str]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """W and U of every string as ``(w, w_bounds, u, u_bounds)``: string i's
    ranks are ``w[w_bounds[i]:w_bounds[i + 1]]``, ascending, and likewise
    for U. String by string they equal the W and I ∪ W of the per-string
    graph walk ``tests/oracle.py::scan_read_ref``.

    Raises ``CorruptIndex`` where that walk does: a string shorter than
    k, a path that breaks off the graph, an inspected successor that is
    not colorable, or a path that does not end on a colorable node.
    """
    if not strings:
        return [], [0], [], [0]
    k = boss.k
    if min(len(s) for s in strings) < k:
        raise CorruptIndex(f"read shorter than order k={k}")
    # int64 once: ``_inspected_successors``'s keys overflow int32 past 46,340 nodes
    src, targets = boss.edge_sources().astype(np.int64), boss.edge_targets().astype(np.int64)
    path, offsets = _walk_paths(boss, src, targets, strings)
    on = colorable.to_bits().astype(bool)
    rank = np.cumsum(on)  # rank[v - 1] = rank1(v)
    n = len(strings)
    owner = np.repeat(np.arange(n), np.diff(offsets))
    ends = path[offsets[1:] - 1]

    ptr, inspected = _inspected_successors(boss, src, targets)
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
    u_keys = _unique(np.concatenate([w_keys, np.repeat(owner, counts) * p1 + rank[seen - 1]]))
    return (*_split_keys(w_keys, p1, n), *_split_keys(u_keys, p1, n))


def _walk_paths(
    boss: BossIndex, src: np.ndarray, targets: np.ndarray, strings: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Node path of $·s·$ for every string, from its starting node $·s[:k-2]
    to its ending node, flat with per-string offsets.

    All strings walk in lockstep from the all-dummy root (node 1) over
    s + "$": k-3 steps over s[:k-3], then one step per path node, the first
    reaching the starting node. The symbols s[k-3:] + "$" are laid out as
    the path is, so one index per string reads a step's symbol and writes
    the node it reaches. Strings are ordered longest first, so the ones
    still walking are a prefix, its length per step from the sorted lengths.

    A walk stands at 5 * v for node v and ``fwd[5 * v + c]`` is
    5 * forward(v, c), so a step is one add and one gather. Node 0's
    entries and those of missing edges are 0: a walk that leaves the graph
    stays at node 0, so one check of the paths' last nodes after the walk
    names the first string, in R' order, whose path holds a 0.
    """
    k, n = boss.k, len(strings)
    lens = np.array([len(s) for s in strings], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lens - (k - 4))])
    syms = encode(DUMMY.join(s[k - 3 :] for s in strings) + DUMMY)
    path = np.empty(offsets[-1], dtype=np.int64)
    # at the narrowest width that holds an index into the table
    size = 5 * (boss.node_count + 1) + 1
    fwd = np.zeros(size, dtype=np.int32 if size < 2**31 else np.int64)
    fwd[5 * src + boss._codes] = targets
    fwd *= 5
    order = np.argsort(-lens, kind="stable")
    at = offsets[:-1][order]
    walking = np.cumsum(np.bincount(np.diff(offsets))[::-1])[::-1][1:].tolist()
    prefix = encode("".join(s[: k - 3] for s in strings)).reshape(n, k - 3)[order]
    cur = np.full(n, 5, dtype=fwd.dtype)
    # the sums index at full width: a narrower index is widened by the gather
    for j in range(k - 3):
        cur = fwd[np.add(cur, prefix[:, j], dtype=np.intp)]
    for j, a in enumerate(walking):  # a: the strings with more than j steps left
        idx = at[:a] + j
        cur = fwd[np.add(cur[:a], syms[idx], dtype=np.intp)]
        path[idx] = cur
    path //= 5
    ends = path[offsets[1:] - 1]  # 0 where a path left the graph
    if not ends.all():
        i = int(np.argmin(ends))
        if not path[offsets[i]]:
            raise CorruptIndex(f"starting node missing for prefix of string {i}")
        raise CorruptIndex(f"path of string {i} breaks off the graph")
    return path, offsets


def _inspected_successors(
    boss: BossIndex, src: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR over node ids, given each edge's source and target as int64:
    the successors the per-string walk (``tests/oracle.py::scan_read_ref``)
    inspects when its path passes node v, the ending node included. They
    are the real successors of v when v branches, and, when v has
    indegree > 1, those of every branching predecessor of v. A node has
    indegree > 1 exactly when a flagged edge enters it, since the
    canonical edges enter each node but the root once
    (``BossIndex._derive_targets``). Row v is
    ``inspected[ptr[v]:ptr[v + 1]]``."""
    n = boss.node_count
    # the edges of nodes of outdegree > 1; an ending node's one edge is its closure edge
    branch = np.diff(boss._first_edge)[src] > 1
    own_src, own_tgt = src[branch], targets[branch]
    own_ptr = np.searchsorted(own_src, np.arange(n + 2))
    merge = np.zeros(n + 1, dtype=bool)  # indegree > 1; a flagged closure edge marks 0
    merge[targets[boss._flags.ones_positions()]] = True
    into = branch & merge[targets]
    idx, counts = _gather(own_ptr, src[into])
    node = np.concatenate([own_src, np.repeat(targets[into], counts)])
    tgt = np.concatenate([own_tgt, own_tgt[idx]])
    node, tgt = np.divmod(_unique(node * (n + 1) + tgt), n + 1)
    return np.searchsorted(node, np.arange(n + 2)), tgt


def _split_keys(keys: np.ndarray, p1: int, n: int) -> tuple[list[int], list[int]]:
    """Sorted keys ``string * p1 + rank`` to flat ranks and n + 1 bounds."""
    return (keys % p1).tolist(), np.searchsorted(keys, np.arange(n + 1) * p1).tolist()

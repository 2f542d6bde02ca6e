"""Consumers of the colored index: read reconstruction and contig assembly.

Reconstruction spells each color of a starting node by following that
color: at a branch it takes the one successor whose row holds the color,
and it gives the color up as ambiguous when more than one holds it, or
when none does and the branch has no implicit successor, the successor
without a row (``BossIndex.implicit_candidates``) that takes every color
no stored row holds. Every query reads the index through one view
(``_IndexView``), derived on the first query and kept with the colors
for every later query with the same graph. So the color table is
decoded once per loaded index, not once per call.

``reconstruct_all`` walks all its (starting node, color) pairs in
lockstep (``_walk_lockstep``), one whole-array step per real branch: a
step takes each walk's edge, by its color at a branch, and then the hop
from that edge's target (``_hop_table``), for at most k - 2 edges. A hop
follows single out-edges and crosses read-end branches: a node with two
out-edges, the first a $ edge into an ending node whose row holds no
color past the hop mask, the second into an implicit successor. There a
walk takes the $ edge when the ending row holds its color and the
implicit successor otherwise, so it is never ambiguous there. Each hop
keeps the OR of the ending rows it crosses as one mask word; a walk whose
color is in its hop's mask ends inside that hop, and one edge-by-edge
pass after the lockstep finds where. Every other branch, a read-end
branch whose ending row holds a color past the mask included, is a step.

``build_seqs`` walks its start's colors one node at a time
(``_walk_color``): a start holds few colors, and a lockstep step costs
about the same however many walks it carries. At a branch both read bit
c - 1 of each successor's row bitmask: the one-node walk from Python ints,
in one pass over the branch's out-edges, the lockstep walk from one gather
over the view's word matrix for all its walks. An implicit successor
reads an empty row (``_IndexView.empty``), kept apart from a node that
is not colorable, which raises ``NotColored``. Both walks give the same
strings.

Around the walks, ``reconstruct_all`` works on whole arrays too: every
starting node's colors come from one gather of the view's decoded rows
(``_IndexView.start_colors``), every start's label from one
``BossIndex.node_labels`` call, and the per-start counts from one
``bincount`` over the walks' owners. Only the recovered strings are made
one at a time.

Contig assembly walks one starting node at a time. It keeps the active
reads as one bitmask of their colors, with the starting node that
activated each, and extends through a branch only when a single
successor carries at least an ``x`` fraction of them; an implicit
successor carries the active colors that no other successor's row holds.
Most branches on a walk are read ends: an ending node and one implicit
successor without a row, so the walk goes on exactly while the reads
that end there are few enough. A walk crosses such branches inside its
runs and stops its run only at a real branch, at a node with starting
predecessors or at an ending node. It reads three caches of the view
that only assembly fills: the starting predecessor of each node of
indegree > 1, its parent or none, read per node from a byte that
whole-array steps over the flagged edges derive, so that a single
``contig_assm`` pays little before its walk; the run from each node
where a walk stood, which records the read-end branches it crosses; and
a record of each real branching node where a walk stood, with its
successors' colors. The walks of an
``assemble_all`` call share long paths, so most runs and records are
derived by one walk and read by many.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ._arrays import _gather
from .boss import BossIndex
from .colormatrix import CompressedColors, decode_rows
from .errors import BadStart, BadThreshold, NotColored
from .sequence import CODE_SYMBOLS, DUMMY, ReadSet, reverse_complement
from .stages import stage

_CODE_ASCII = bytes.maketrans(bytes(range(len(CODE_SYMBOLS))), CODE_SYMBOLS.encode("ascii"))


@dataclass
class StartReport:
    colors: int = 0
    recovered: int = 0
    ambiguous: int = 0


@dataclass
class ReconstructionReport:
    recovered: list[str]
    ambiguous_count: int
    starts: np.ndarray  # the starting nodes
    tally: np.ndarray  # per start, its (ambiguous, recovered) walks
    verified_fraction: float | None = None

    @property
    def recovered_count(self) -> int:
        return len(self.recovered)

    @property
    def per_start(self) -> dict[int, StartReport]:
        """Each start's report, made from ``tally`` on each read."""
        tally = zip(self.starts.tolist(), self.tally.tolist())
        return {v: StartReport(lost + won, won, lost) for v, (lost, won) in tally}


def build_seqs(boss: BossIndex, colors: CompressedColors, v: int) -> list[str]:
    """Reconstruct one string per color of starting node v; ambiguous colors
    are skipped."""
    if not boss.is_starting(v):
        raise BadStart(f"node {v} is not a starting node")
    view = _IndexView.of(boss, colors)
    m, steps = view.mask(v), []
    while m:  # v's colors, ascending
        steps.append(_walk_color(view, v, (m & -m).bit_length()))
        m &= m - 1
    label = boss.node_label(v)
    return [(label + s).strip(DUMMY) for s in steps if s is not None]


def reconstruct_all(
    boss: BossIndex,
    colors: CompressedColors,
    verify_against: ReadSet | None = None,
    threads: int = 1,
) -> ReconstructionReport:
    """What build_seqs gives from every starting node, walked all at once,
    with per-start counts. A walk is ambiguous when it reaches a branch
    where not exactly one successor holds its color, or takes more than
    edge_count + k steps. Raises ``NotColored`` when a start or an
    inspected successor is not colorable. ``threads`` is ignored; it stays
    because the benchmark's pipeline passes ``threads=1`` (ROADMAP item 1
    removes both)."""
    ids, view = boss.starting_node_ids(), _IndexView.of(boss, colors)
    owner, col = view.start_colors(ids)
    steps = _walk_lockstep(view, ids[owner], col)
    labels = _labels(boss, ids)
    recovered = [
        (labels[o] + s).strip(DUMMY) for o, s in zip(owner.tolist(), steps) if s is not None
    ]
    got = np.array([s is not None for s in steps], dtype=np.int64)
    tally = np.bincount(2 * owner + got, minlength=2 * len(ids)).reshape(-1, 2)
    fraction = None if verify_against is None else verified_fraction(recovered, verify_against)
    return ReconstructionReport(recovered, len(steps) - len(recovered), ids, tally, fraction)


def _walk_color(view: _IndexView, v: int, c: int) -> str | None:
    """The symbols that color c's walk from starting node v appends to v's
    label, one node at a time; None when the walk is ambiguous or takes
    more than edge_count + k steps. A branch is read in one pass that counts
    the successors whose row holds c (a row past the words through
    ``mask``) and the implicit successors. Every out-edge is read before
    the choice, so an uncolorable successor raises ``NotColored`` where the
    lockstep does."""
    first_edge, targets, codes = view.first_edge, view.targets, view.codes
    mask, masks, rank, empty = view.mask, view.row_masks(), view._rank, view.empty
    last_ending, bit = view.last_ending, c - 1
    syms = bytearray()  # one code per step
    for _ in range(view.step_limit):
        if v <= last_ending:
            break
        e, end = first_edge[v] - 1, first_edge[v + 1] - 1
        if end - e > 1:
            hits = implicit = 0
            for f in range(e, end):
                r = rank[targets[f] - 1]
                m = masks[r] if r >= 0 else None
                if m is None:
                    m = mask(targets[f])  # a row past the words, or NotColored
                if m >> bit & 1:
                    hits, hit = hits + 1, f
                elif r == empty:
                    implicit, spare = implicit + 1, f
            if hits == 1:
                e = hit
            elif not hits and implicit == 1:
                e = spare
            else:
                return None
        v = targets[e]
        syms.append(codes[e])
    if v > last_ending:
        return None  # a walk this long cycles
    return syms.translate(_CODE_ASCII).decode()


def _walk_lockstep(view: _IndexView, cur: np.ndarray, col: np.ndarray) -> list[str | None]:
    """What ``_walk_color`` gives for each walk (start ``cur``, color
    ``col``), all walks at once: one whole-array step per real branch. A
    step takes a walk's edge, by its color at a branch, and then the hop
    from that edge's target (``_hop_table``); it counts every edge against
    the step guard. A walk whose color is in the hop's mask ends at a read
    end inside the hop: it is set aside, and once all walks stop, one
    edge-by-edge pass finds the crossed node where each takes its $ edge.
    Then the recovered walks are spelled in one pass over their hops: the
    code of each edge a hop takes, as the one-node walk reads it."""
    if view.hops is None:
        with stage("hops"):
            view.hops = _hop_table(view)
    words, rank, empty = view.words, view.rank, view.empty
    n_walks, n_words, top = len(col), words.shape[1], int(col.max(initial=0))
    (hop_to, hop_len, crossed), hop_mask = view.hops
    mask_type, mask_bits = hop_mask.dtype.type, 8 * hop_mask.itemsize
    beyond, past_mask = top > 64 * n_words, top > mask_bits
    # int64 once per call: mixed-width numpy steps on small arrays are slower
    targets, first_edge = (np.asarray(a).astype(np.int64) for a in (view.targets, view.first_edge))
    # the edge a hop leaves each node by, 0-based, at the graph's width:
    # a crossed node's second
    leave = np.asarray(view.first_edge)[:-1] - 1
    leave[crossed] += 1
    last_ending, limit = view.last_ending, view.step_limit
    wid, steps = np.arange(n_walks), np.zeros(n_walks, dtype=np.int64)
    ok, total = np.zeros(n_walks, dtype=bool), np.zeros(n_walks, dtype=np.int64)
    # (walk, its edges before the step, the step's edge, edges)
    hops = [(wid[:0], wid[:0], wid[:0], hop_len[:0])]
    aside = []  # (walk, hop start, color, edges before the step, the step's edge)
    while True:
        done = cur <= last_ending
        won = done & (steps <= limit)
        ok[wid[won]], total[wid[won]] = True, steps[won]
        go = ~done & (steps < limit)  # a walk at the limit cycles and stays ambiguous
        wid, cur, col, steps = wid[go], cur[go], col[go], steps[go]
        if not len(wid):
            break
        lo = first_edge[cur]
        single = first_edge[cur + 1] - lo == 1
        pos = np.where(single, lo, 0)
        nxt = np.where(single, targets[lo - 1], 0)
        if not single.all():
            branch = np.flatnonzero(~single)
            edges, counts = _gather(first_edge, cur[branch])
            owner = np.repeat(branch, counts)
            t = targets[edges - 1]
            r, bit = rank[t - 1], col[owner] - 1
            if (r < 0).any():
                raise NotColored(f"node {t[r < 0][0]} is not in the colorable set")
            word = np.minimum(bit >> 6, n_words - 1) if beyond else bit >> 6
            hit = (words[r, word] >> (bit & 63).astype(np.uint64) & 1).astype(bool)
            if beyond:  # a color past the words: a binary search of its row
                far = np.flatnonzero(bit >= 64 * n_words)
                at, c = view.offsets[r[far]].astype(np.int64) - 1, bit[far] + 1
                end, row_colors = view.offsets[r[far] + 1], view.row_colors
                for j in reversed(range(int((end - at).max(initial=1)).bit_length())):
                    to = at + (1 << j)  # ``at`` moves to the last entry below c
                    at = np.where((to < end) & (row_colors.take(to, mode="clip") < c), to, at)
                hit[far] = (at + 1 < end) & (row_colors.take(at + 1, mode="clip") == c)
            # one hit takes its edge; no hit takes the implicit successor's
            hits = np.bincount(owner[hit], minlength=len(cur))[owner]
            take = np.where(r == empty, hits == 0, hit & (hits == 1))
            pos[owner[take]] = edges[take]
            nxt[owner[take]] = t[take]
        alive = nxt > 0
        wid, nxt, col, pos, steps = wid[alive], nxt[alive], col[alive], pos[alive], steps[alive]
        bit = np.minimum(col - 1, mask_bits - 1) if past_mask else col - 1
        ends = (hop_mask[nxt] >> bit.astype(mask_type) & 1).astype(bool)
        if past_mask:  # no crossed row holds a color past the mask
            ends &= col <= mask_bits
        if ends.any():
            aside.append((wid[ends], nxt[ends], col[ends], steps[ends], pos[ends]))
            go = ~ends
            wid, nxt, col, pos, steps = wid[go], nxt[go], col[go], pos[go], steps[go]
        n = hop_len[nxt] + 1
        hops.append((wid, steps, pos, n))
        cur, steps = hop_to[nxt], steps + n

    # each walk set aside ends at the first crossed node of its hop whose
    # ending row holds its color: it spells its hop up to that node, and
    # then the $ edge
    if aside:
        wid, at, col, before, pos = (np.concatenate(a) for a in zip(*aside))
        end_row = np.full(len(leave), empty, dtype=rank.dtype)
        end_row[crossed] = rank[targets[first_edge[crossed] - 1] - 1]
        gap, at_end = np.zeros_like(before), np.zeros_like(at)  # per walk: its j and crossed node
        left, bit = np.arange(len(wid)), (col - 1).astype(np.uint64)
        j = 0  # the hop's edges before node ``at``
        while len(left):
            hit = (words[end_row[at], 0] >> bit & 1).astype(bool)
            w = left[hit]
            gap[w], at_end[w] = j, at[hit]
            go = ~hit
            left, bit, at, j = left[go], bit[go], targets[leave[at[go]]], j + 1
        # the step's edge, j edges and the $ edge; a walk that ends visits
        # no node twice, so it keeps within the step guard
        ok[wid], total[wid] = True, before + gap + 2
        hops.append((wid, before, pos, (gap + 1).astype(np.uint8)))
        hops.append((wid, before + gap + 1, first_edge[at_end], np.ones(len(wid), dtype=np.uint8)))

    # the recovered walks' hops, each spelled from its step's edge on, at
    # its walk's place in the text: inside a hop, a walk leaves each node
    # by ``leave``
    wid, before, edge, n = (np.concatenate(a) for a in zip(*hops))
    keep = np.flatnonzero(ok[wid])
    ends = np.cumsum(total)
    order = keep[np.argsort(n[keep], kind="stable")[::-1]]  # longest hops first
    n, edge = n[order], edge[order] - 1
    first = (ends - total)[wid[order]] + before[order]  # where each hop's first symbol goes
    syms, codes = np.zeros(int(total.sum()), dtype=np.uint8), np.asarray(view.codes)
    longer = np.cumsum(np.bincount(n)[::-1])[::-1][1:]  # [j]: the hops of more than j edges
    after = leave[targets]  # [e]: the edge a hop takes after edge e
    for j, m in enumerate(longer.tolist()):
        syms[first[:m] + j] = codes[edge[:m]]
        edge = after[edge[:m]]
    text = syms.tobytes().translate(_CODE_ASCII).decode()
    ends = ends.tolist()
    return [
        text[a:b] if good else None
        for a, b, good in zip([0] + ends[:-1], ends, ok.tolist())
    ]


def verified_fraction(recovered: list[str], original: ReadSet) -> float:
    """Fraction of distinct original reads recovered up to reverse complement."""
    if not original.reads:
        return 1.0
    got = set(recovered)
    hits = sum(1 for r in original.reads if r in got or reverse_complement(r) in got)
    return hits / len(original.reads)


def contig_assm(boss: BossIndex, colors: CompressedColors, v: int, x: float) -> str:
    """Assemble one contig starting from v with extension threshold x. A
    starting predecessor u of a node the walk enters activates u's colors:
    when u has two or more out-edges, only those the node's row holds.
    The one starting predecessor a node can have is its parent, read per
    node from a byte derived on the index's first assembly walk
    (``_starting_preds``)."""
    _check_threshold(x)
    if not boss.is_starting(v):
        raise BadStart(f"node {v} is not a starting node")
    return _assemble_from(_IndexView.of(boss, colors), v, boss.node_label(v), x)


def assemble_all(boss: BossIndex, colors: CompressedColors, x: float) -> list[str]:
    """Contigs from every starting node, as ``contig_assm`` gives them (a
    contig contained in a longer one is kept; a starting predecessor with
    two or more out-edges activates only the colors that the entered node
    holds), deduplicated up to reverse complement, longest first. The
    walks share the view's per-node starting predecessors and its runs
    and branch records."""
    _check_threshold(x)
    view, starts = _IndexView.of(boss, colors), boss.starting_node_ids()
    seen: set[str] = set()
    contigs: list[str] = []
    for v, label in zip(starts.tolist(), _labels(boss, starts)):
        s = _assemble_from(view, v, label, x)
        canon = min(s, reverse_complement(s))
        if canon not in seen:
            seen.add(canon)
            contigs.append(s)
    contigs.sort(key=lambda s: (-len(s), s))
    return contigs


def _check_threshold(x: float) -> None:
    if not 0.0 < x <= 1.0:
        raise BadThreshold(f"threshold {x} outside (0, 1]")


def _labels(boss: BossIndex, ids) -> list[str]:
    """Labels of many nodes from one ``node_labels`` call."""
    w = boss.k - 1
    text = boss.node_labels(ids).tobytes().translate(_CODE_ASCII).decode()
    return [text[i : i + w] for i in range(0, len(text), w)]


def _starting_preds(boss: BossIndex) -> bytearray:
    """Per node id a byte: 1 + whether its parent has two or more
    out-edges when the node has indegree > 1 and its parent is a starting
    node, else 0. A node has indegree > 1 exactly when a flagged edge
    enters it, since the canonical edges enter each node but the root
    once (``BossIndex._derive_targets``). No flagged edge leaves a
    starting node (the load refuses one), so a starting node enters only
    its children, and a node's one possible starting predecessor is its
    parent: only the flagged edges are read."""
    t = boss.edge_targets()[boss._flags.ones_positions()]  # 0 for a closure edge
    u = boss._parent[t]
    starts = np.append(boss.starting_node_ids(), boss.node_count + 1)  # past every parent
    start = starts[np.searchsorted(starts, u)] == u
    t, u = t[start], u[start]
    held = bytearray(boss.node_count + 1)  # indexes faster than a memoryview
    first_edge = boss._first_edge
    np.frombuffer(held, dtype=np.uint8)[t] = 1 + (first_edge[u + 1] - first_edge[u] > 1)
    return held


def _hop_table(view: _IndexView) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The hops of the index's graph: per node id, the node a walk lands
    on by following single out-edges from it and crossing read-end
    branches, until any other branching node or an ending node, or for
    k - 2 edges; the number of edges taken; and the crossed nodes. A hop
    crosses a node with two out-edges, the first a $ edge into an ending
    node whose row holds no color past the mask, the second into an
    implicit successor, by its second edge. Apart, per node id, the hop's
    mask: the OR of the crossed ending rows, bit c - 1 for color c, in
    the narrowest unsigned word that holds min(C, 64) bits. The cap keeps
    the edge count in a byte and the derivation to about 2 log2 k rounds
    of gathers: pointer doubling over whole arrays, as
    ``BossIndex._ancestors`` lifts parents, in int64 and stored at the
    graph's width."""
    boss = view.graph()
    first_edge, targets, last_ending = boss._first_edge, boss.edge_targets(), view.last_ending
    ids = np.arange(boss.node_count + 1)
    out = np.diff(first_edge) * (ids > last_ending)  # no hop leaves the root or an ending node
    moves = out == 1
    up = np.where(moves, targets[first_edge[:-1] - 1], ids)
    two = np.flatnonzero(out == 2)
    end, spare = targets[first_edge[two] - 1], targets[first_edge[two]]
    row = view.rank[end - 1].astype(np.int64)
    keep = (end <= last_ending) & (view.rank[spare - 1] == view.empty)
    keep &= (row >= 0) & (row < view.empty)
    two, row = two[keep], row[keep]
    mask_type = np.min_scalar_type((1 << min(int(view.row_colors.max(initial=1)), 64)) - 1)
    fits = view.row_colors[view.offsets[row + 1] - 1] <= 8 * mask_type.itemsize  # rows ascend
    crossed, row = two[fits], row[fits]
    moves[crossed], up[crossed] = True, targets[first_edge[crossed]]
    up_mask = np.zeros(len(ids), dtype=mask_type)
    up_mask[crossed] = view.words[row, 0]
    up_len, d = moves.astype(np.uint8), boss.k - 2
    if d & 1:
        land, steps, mask = up, up_len, up_mask
    else:
        land, steps, mask = ids, np.zeros_like(up_len), np.zeros_like(up_mask)
    while d > 1:
        d >>= 1
        up, up_len, up_mask = up[up], up_len + up_len[up], up_mask | up_mask[up]
        if d & 1:
            land, steps, mask = up[land], steps + up_len[land], mask | up_mask[land]
    width = first_edge.dtype
    return (land.astype(width), steps, crossed.astype(width)), mask


# (code, target, color mask) of each successor that is not an ending node,
# and the colors of the ending successors as one mask. An implicit
# successor's mask is the complement of its siblings' rows, a negative int
_BranchRecord = tuple[list[tuple[int, int, int]], int]
# the codes of a run's edges, the node where it stops (0 for an ending
# node) and, per read-end branch it crosses, (the codes taken before that
# branch, the ending sibling's row as a mask)
_Run = tuple[bytes, int, tuple[tuple[int, int], ...]]


class _IndexView:
    """Every query's view of one index, graph and colors, built on the
    first query and kept in ``CompressedColors._query``. A query with
    another graph object builds it again, so it never answers with one
    graph's arrays for another. It refers to the graph only weakly and
    not to the colors, so an index and its view are dropped together.

    * the graph's arrays as memoryviews, whose items index as Python ints
      without a copy: ``first_edge``, ``codes``, ``targets`` (0 on
      closure edges) and ``parent``; and ``last_ending``, ``edge_count``,
      ``step_limit``;
    * ``words``, each row of the color table as a bitmask, bit c - 1 for
      color c, as ``DynamicColorTable.masks`` holds them during the build:
      a (p + 1, W) uint64 matrix, row r's colors 1..64W, which the
      lockstep walk gathers from. W is ⌈C/64⌉ but at most the payload
      entries per row, rounded up, so ``words`` takes at most two words
      per payload entry and one per row;
    * ``offsets`` and ``row_colors``, every row as ``decode_rows`` gives
      it, with the empty row appended, each at the narrowest integer width
      that holds it: ``start_colors`` gathers from them, ``mask`` builds a
      row's mask past the words from them, and the lockstep walk tests a
      color past the words by a binary search of its row;
    * ``rank``: node v's row is ``rank[v - 1]``, or -1 when v is not
      colorable, at the narrowest signed width that holds -1 and p, so
      2 B per node below 2**15 rows. Every implicit successor reads row
      ``empty``, one past the stored rows, which holds no color.

    So the view grows with the payload, not with p·C. Five caches are
    filled only by the queries that read them: ``masks``
    (``row_masks``), the rows of ``words`` as Python ints, which the
    one-node walks and assembly test with one shift, a list slot and,
    while W = 1, an int of at most 36 B per row, with None for a row
    holding a color past 64W; ``hops`` (``_hop_table``), whole on the
    first lockstep walk: per node where its hop lands, at the graph's
    width, and the hop's edges in a byte, with the crossed read-end
    branches' ids at the graph's width, and apart per node the hop's
    mask, in the narrowest unsigned word that holds min(C, 64) bits.
    Below 2**31 edges that is 5 B per node and the mask's 1, 2, 4 or 8 B
    (4 B for C from 17 to 32), and 4 B per crossed node;
    ``starting_preds`` (``_starting_preds``), whole on the first assembly
    walk: per node id a byte in a ``bytearray`` (none, or the parent,
    which branches or not); and, once an assembly walk stood at a node,
    ``runs``, its run (``derive_run``), or None at a real branching node,
    and ``branches``, that branching node's record (``derive_branch``). A
    lookup of an uncolorable node raises ``NotColored`` each time: no
    failure is kept in any map."""

    def __init__(self, boss: BossIndex, colors: CompressedColors):
        self.graph = weakref.ref(boss)
        self.first_edge, self.codes = memoryview(boss._first_edge), memoryview(boss._codes)
        self.targets, self.parent = memoryview(boss.edge_targets()), memoryview(boss._parent)
        self.last_ending = int(boss.K[1])  # ending nodes are ids 2..K[1]
        self.edge_count = boss.edge_count
        self.step_limit = boss.edge_count + boss.k
        offsets, row_colors = decode_rows(colors)
        held = colors.N.ones_positions()
        self.empty = colors.p
        # a scatter wraps as a narrow cumsum would where N holds more than p rows
        self.rank = np.full(colors.N.n, -1, dtype=np.min_scalar_type(-1 - self.empty))
        self.rank[held] = np.arange(len(held))
        self.rank[colors.implicit - 1] = self.empty
        n_words = max(1, min(-(-colors.num_colors // 64), -(-len(row_colors) // max(colors.p, 1))))
        rows, bit = np.repeat(np.arange(colors.p), np.diff(offsets)), row_colors - 1
        fits = bit < 64 * n_words
        self.words = np.zeros((colors.p + 1, n_words), dtype=np.uint64)
        word_bit = np.uint64(1) << (bit[fits] & 63).astype(np.uint64)
        np.bitwise_or.at(self.words.ravel(), rows[fits] * n_words + (bit[fits] >> 6), word_bit)
        # row ``empty`` appended; signed, so that int64 arithmetic stays int64
        width = np.min_scalar_type(-1 - len(row_colors))
        self.offsets = np.append(offsets, len(row_colors)).astype(width)
        self.row_colors = row_colors.astype(np.min_scalar_type(colors.num_colors))
        self._rank = memoryview(self.rank)
        self.masks: list[int | None] | None = None
        self.runs: dict[int, _Run | None] = {}
        self.branches: dict[int, _BranchRecord | None] = {}
        self.hops: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
        self.starting_preds: bytearray | None = None

    @staticmethod
    def of(boss: BossIndex, colors: CompressedColors) -> _IndexView:
        view = colors._query
        if view is None or view.graph() is not boss:
            view = colors._query = _IndexView(boss, colors)
        return view

    def row_masks(self) -> list[int | None]:
        """``masks``, derived from ``words`` on the first call."""
        if self.masks is None:
            words, masks = self.words, self.words[:, -1].tolist()
            for j in reversed(range(words.shape[1] - 1)):
                masks = [m << 64 | w for m, w in zip(masks, words[:, j].tolist())]
            last = self.row_colors[self.offsets[1:-1] - 1]  # rows ascend: each one's largest
            for r in np.flatnonzero(last > 64 * words.shape[1]).tolist():
                masks[r] = None
            self.masks = masks
        return self.masks

    def mask(self, v: int) -> int:
        """Node v's row as a bitmask; a row past the words has its mask
        built from ``row_colors`` on each call."""
        r = self._rank[v - 1]
        if r < 0:
            raise NotColored(f"node {v} is not in the colorable set")
        if (m := (self.masks or self.row_masks())[r]) is None:
            bits = np.bincount(self.row_colors[self.offsets[r] : self.offsets[r + 1]] - 1)
            m = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
        return m

    def start_colors(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The colors of nodes ``ids`` as (position in ids, color) pairs,
        by position and then color: one gather of their rows. Raises
        ``NotColored`` for the first node without a row."""
        r = self.rank[ids - 1]
        if (r < 0).any():
            raise NotColored(f"node {ids[r < 0][0]} is not in the colorable set")
        entries, counts = _gather(self.offsets, r)
        return np.repeat(np.arange(len(ids)), counts), self.row_colors[entries].astype(np.int64)

    def derive_run(self, v: int) -> _Run | None:
        """The run from node v, kept in ``runs``; None when v is a real
        branching node. A run takes single out-edges and crosses each
        read-end branch whose solid successor reads row ``empty`` and whose
        ending sibling's row is in ``masks``. It stops at any other
        branching node, so the walk's branch step reads a sibling without
        a row or with one past the words and the run, derived ahead of the
        walk, raises nothing; at a node with starting predecessors; or at
        an ending node (stop 0, whose edge adds no code). It is cut after
        any walk's budget of edge_count + 1 edges, so a cycle ends."""
        first_edge, targets, codes = self.first_edge, self.targets, self.codes
        last_ending, kinds = self.last_ending, self.starting_preds
        rank, masks, empty = self._rank, self.row_masks(), self.empty
        syms, crossed = bytearray(), []
        t = v
        while len(syms) <= self.edge_count:
            e = first_edge[t] - 1
            out = first_edge[t + 1] - 1 - e
            if out == 2 and targets[e] <= last_ending and rank[targets[e + 1] - 1] == empty:
                r = rank[targets[e] - 1]
                if r < 0 or masks[r] is None:
                    break
                crossed.append((len(syms), masks[r]))
                e += 1
            elif out != 1:
                break
            t = targets[e]
            if t <= last_ending:
                t = 0
                break
            syms.append(codes[e])
            if kinds[t]:
                break
        run = None if t == v and not syms else (bytes(syms), t, tuple(crossed))
        self.runs[v] = run
        return run

    def derive_branch(self, v: int) -> _BranchRecord | None:
        """Branching node v's record: (code, target, color mask) for each
        successor that is not an ending node, and the colors of the ending
        successors as one mask; None when two successors share a color. An
        implicit successor's mask is every color the other rows do not
        hold. Kept in ``branches`` unless a successor's row is past the
        words, since that row's mask, built per call, may be as wide as C.
        Every successor's colors are read, so an uncolorable one raises
        whether or not two others share a color."""
        first_edge, targets, codes = self.first_edge, self.targets, self.codes
        solid: list[tuple[int, int, int]] = []
        seen = ending = 0
        shared = False
        for e in range(first_edge[v] - 1, first_edge[v + 1] - 1):
            t = targets[e]
            held = self.mask(t)
            shared = shared or bool(seen & held)
            seen |= held
            if t <= self.last_ending:
                ending |= held
            else:
                solid.append((codes[e], t, held))
        rank, empty = self._rank, self.empty
        solid = [(code, t, ~seen if rank[t - 1] == empty else held) for code, t, held in solid]
        record = None if shared else (solid, ending)
        if seen.bit_length() <= 64 * self.words.shape[1]:
            self.branches[v] = record
        return record


def _assemble_from(view: _IndexView, v: int, label: str, x: float) -> str:
    """Walk from starting node v, whose label is given, keeping the active
    reads; extend through a branch only when a single successor carries at
    least an x fraction of them. The walk visits at most edge_count + 1
    nodes; it crosses each run, read-end branches included, in one step
    and reads a real branching node's successors from its record."""
    if view.starting_preds is None:
        view.starting_preds = _starting_preds(view.graph())
    runs, branches, mask = view.runs, view.branches, view.mask
    kinds, parent = view.starting_preds, view.parent
    active = mask(v)  # bit c - 1 for each active read's color c
    owner: dict[int, int] = {}  # color -> the start that activated it, where not v
    finished: dict[int, int] = {}  # start -> the mask of its colors that ended

    def finish(gone: int) -> None:
        while gone:
            low = gone & -gone
            s = owner.get(low.bit_length(), v)
            finished[s] = finished.get(s, 0) | low
            gone ^= low

    syms = bytearray()  # one code per edge taken
    cur, budget = v, view.edge_count + 1  # the nodes left to visit
    while budget:
        if kind := kinds[cur]:  # cur's parent u is a starting node: its colors activate
            u = parent[cur]
            new = mask(u) & ~finished[u] if u in finished else mask(u)
            if kind == 2:  # u branches: only those that cur's row holds
                new &= mask(cur)
            active |= new
            while new:  # highest first: no negative int, as ``m & -m`` makes
                c = new.bit_length()
                owner[c] = u
                new ^= 1 << c - 1
        run = runs[cur] if cur in runs else view.derive_run(cur)
        if run is not None:
            codes, stop, crossed = run
            taken = len(codes)
            for at, ended in crossed:  # each read-end branch, decided as a branch step
                if gone := active & ended:
                    left = active ^ gone
                    if left.bit_count() / active.bit_count() < x:
                        taken = at
                        break
                    finish(gone)
                    active = left
                elif not active:  # else all active reads go on, a share of 1
                    taken = at
                    break
            if taken >= budget:
                syms += codes[:budget]  # the budget ends inside the run
                break
            syms += codes[:taken]
            if taken < len(codes) or not stop:
                break  # a read-end branch stopped the walk, or an ending node
            budget -= taken
            cur = stop
            continue
        budget -= 1
        record = branches[cur] if cur in branches else view.derive_branch(cur)
        if record is None or not active:
            break  # two successors share a color, or no read is active
        solid, ending = record
        n = active.bit_count()
        candidates = [s for s in solid if (s[2] & active).bit_count() / n >= x]
        if gone := active & ending:
            finish(gone)
            active ^= gone
        if len(candidates) != 1:
            break
        code, cur, held = candidates[0]
        syms.append(code)
        active &= held
    return (label + syms.translate(_CODE_ASCII).decode()).lstrip(DUMMY)

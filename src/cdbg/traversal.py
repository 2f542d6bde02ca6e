"""Consumers of the colored index: read reconstruction and contig assembly.

Reconstruction spells each color of a starting node by following that
color: at a branch it takes the one successor whose row holds the color,
and it gives the color up as ambiguous when more than one holds it, or
when none does and the branch has no implicit successor, the successor
without a row (``BossIndex.implicit_candidates``) that takes every color
no stored row holds. Every query reads the index through two views, each
derived on the first query that needs it and kept on its object for every
later query: the graph's ``_GraphView`` in ``BossIndex._query`` and the
colors' ``_ColorView`` in ``CompressedColors._query``. So the color table
is decoded once per loaded index, not once per call.

Below ``LOCKSTEP_MIN_WALKS`` (starting node, color) pairs, a query walks
each pair one node at a time, and from there on all pairs in lockstep,
one whole-array step per branch: a step takes each walk's edge and hops
along single out-edges to the next branch (``_hop_table``). At a branch
both read bit c - 1 of each successor's row bitmask: the one-node walk
from a Python int, the lockstep walk from one gather over the color
view's word matrix for all its walks. In the view an implicit successor
reads an empty row (``_ColorView.empty``), kept apart from a node that is
not colorable, which raises ``NotColored``. A lockstep step costs about
the same however many walks it carries, so few walks are faster one at a
time. Both walks give the same strings.

Around the walks, ``reconstruct_all`` works on whole arrays too: every
starting node's colors come from one unpack of its rows in the color
view's word matrix (``_ColorView.start_colors``; a sparse row from
``sparse``), every start's label from one ``BossIndex.node_labels`` call,
and the per-start counts from one ``bincount`` over the walks' owners.
Only the recovered strings are made one at a time.

Contig assembly walks one starting node at a time: it keeps a set of
active reads (color -> starting node) and extends through a branch only
when a single successor carries at least an ``x`` fraction of them; an
implicit successor carries the active colors that no other successor's
row holds. It reads three caches that only assembly fills: in the graph
view, the starting predecessors of each node of indegree > 1 and the
unary run from each node of outdegree 1 where a walk stood, which a walk
crosses in one step; in the color view, a record of each branching node
where a walk stood, with its successors' colors. The walks of an
``assemble_all`` call share long paths, so most runs and records are
derived by one walk and read by many.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._arrays import _gather, _unique
from .boss import BossIndex
from .colormatrix import CompressedColors, decode_rows
from .errors import BadStart, BadThreshold, NotColored
from .sequence import CODE_SYMBOLS, DUMMY, ReadSet, reverse_complement

_CODE_ASCII = bytes.maketrans(bytes(range(len(CODE_SYMBOLS))), CODE_SYMBOLS.encode("ascii"))


@dataclass
class StartReport:
    colors: int = 0
    recovered: int = 0
    ambiguous: int = 0


@dataclass
class ReconstructionReport:
    recovered: list[str] = field(default_factory=list)
    ambiguous_count: int = 0
    per_start: dict[int, StartReport] = field(default_factory=dict)
    verified_fraction: float | None = None

    @property
    def recovered_count(self) -> int:
        return len(self.recovered)


def build_seqs(boss: BossIndex, colors: CompressedColors, v: int) -> list[str]:
    """Reconstruct one string per color of starting node v; ambiguous colors
    are skipped."""
    if not boss.is_starting(v):
        raise BadStart(f"node {v} is not a starting node")
    palette = _ColorView.of(colors)
    row = np.array(palette.colors(v), dtype=np.int64)
    steps = _walk_pairs(boss, _GraphView.of(boss), palette, np.full(len(row), v), row)
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
    report = ReconstructionReport()
    ids, palette = boss.starting_node_ids(), _ColorView.of(colors)
    owner, col = palette.start_colors(ids)
    steps = _walk_pairs(boss, _GraphView.of(boss), palette, ids[owner], col)
    labels = _labels(boss, ids)
    report.recovered = [
        (labels[o] + s).strip(DUMMY) for o, s in zip(owner.tolist(), steps) if s is not None
    ]
    got = np.array([s is not None for s in steps], dtype=np.int64)
    tally = np.bincount(2 * owner + got, minlength=2 * len(ids)).reshape(-1, 2).tolist()
    report.per_start = {
        v: StartReport(lost + won, won, lost) for v, (lost, won) in zip(ids.tolist(), tally)
    }
    report.ambiguous_count = len(steps) - len(report.recovered)
    if verify_against is not None:
        report.verified_fraction = verified_fraction(report.recovered, verify_against)
    return report


# The number of walks from which _walk_pairs steps them in lockstep.
# Measured on a 2-core 2.1 GHz Xeon (medians of 60 alternated pairs, one
# at a time against lockstep, on a fresh graph view, so that each lockstep
# timing includes deriving the hop table; the color view is built before).
# Walks of strided starts: at k=25 the two cross between 40 and 56 walks
# (decode-k25-10x 2.29 against 2.35 ms at 48, 2.64 against 2.42 ms at 56;
# repeats-k25 2.42 against 2.34 ms at 40); at k=31 between 56 and 64
# (build-k31-30x 4.18 against 4.52 ms at 56, 4.38 against 4.29 ms at 64).
# All walks (40 pairs): repeats-k25's 96 took 5.1 against 2.8 ms,
# decode-k25-10x's 394 16.3 against 3.9 ms.
LOCKSTEP_MIN_WALKS = 56


def _walk_pairs(
    boss: BossIndex, graph: _GraphView, palette: _ColorView, cur: np.ndarray, col: np.ndarray
) -> list[str | None]:
    """What ``_walk_color`` gives for each walk (start ``cur[i]``, color
    ``col[i]``). Fewer than ``LOCKSTEP_MIN_WALKS`` walks go one node at a
    time, more go in lockstep."""
    if len(col) < LOCKSTEP_MIN_WALKS:
        return [_walk_color(graph, palette, v, c) for v, c in zip(cur.tolist(), col.tolist())]
    return _walk_lockstep(boss, graph, palette, cur, col)


def _walk_color(graph: _GraphView, palette: _ColorView, v: int, c: int) -> str | None:
    """The symbols that color c's walk from starting node v appends to v's
    label, one node at a time; None when the walk is ambiguous."""
    first_edge, targets, codes = graph.first_edge, graph.targets, graph.codes
    mask, rank, empty = palette.mask, palette._rank, palette.empty
    last_ending, bit = graph.last_ending, c - 1
    syms = bytearray()  # one code per step
    while v > last_ending:
        if len(syms) == graph.step_limit:
            return None  # a walk this long cycles
        e, end = first_edge[v] - 1, first_edge[v + 1] - 1
        if end - e > 1:
            hits = [f for f in range(e, end) if mask(targets[f]) >> bit & 1]
            if not hits:  # no row holds c: the implicit successor does
                hits = [f for f in range(e, end) if rank[targets[f] - 1] == empty]
            if len(hits) != 1:
                return None
            e = hits[0]
        v = targets[e]
        syms.append(codes[e])
    return syms.translate(_CODE_ASCII).decode()


def _walk_lockstep(
    boss: BossIndex, graph: _GraphView, palette: _ColorView, cur: np.ndarray, col: np.ndarray
) -> list[str | None]:
    """What ``_walk_color`` gives for each walk (start ``cur``, color
    ``col``), all walks at once: one whole-array step per branch. A step
    takes a walk's edge, by its color at a branch, and then the hop from
    that edge's target (``_hop_table``); it counts every edge against the
    step guard. Once all walks stop, the recovered ones are spelled in one
    pass over their hops: the code of each edge a hop takes, as the
    one-node walk reads it."""
    words, rank, sparse, empty = palette.words, palette.rank, palette.sparse, palette.empty
    n_walks, n_words = len(col), words.shape[1]
    beyond = int(col.max(initial=0)) > 64 * n_words
    if graph.hops is None:
        graph.hops = _hop_table(boss)
    hop_to, hop_len = graph.hops
    # int64 once per call: mixed-width numpy steps on small arrays are slower
    targets, first_edge = boss.edge_targets().astype(np.int64), boss._first_edge.astype(np.int64)
    last_ending, limit = int(boss.K[1]), boss.edge_count + boss.k  # ending nodes are ids 2..K[1]
    wid, steps = np.arange(n_walks), np.zeros(n_walks, dtype=np.int64)
    ok, total = np.zeros(n_walks, dtype=bool), np.zeros(n_walks, dtype=np.int64)
    hops = [(wid[:0], wid[:0], hop_len[:0])]  # (walk, its step's edge, edges)
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
            if beyond:  # a color past the words is only in a sparse row
                far = np.flatnonzero(bit >= 64 * n_words)
                hit[far] = [c + 1 in sparse.get(x, ()) for x, c in zip(r[far].tolist(), bit[far].tolist())]
            # one hit takes its edge; no hit takes the implicit successor's
            hits = np.bincount(owner[hit], minlength=len(cur))[owner]
            take = np.where(r == empty, hits == 0, hit & (hits == 1))
            pos[owner[take]] = edges[take]
            nxt[owner[take]] = t[take]
        alive = nxt > 0
        wid, nxt, col = wid[alive], nxt[alive], col[alive]
        n = hop_len[nxt] + 1
        cur, steps = hop_to[nxt], steps[alive] + n
        hops.append((wid, pos[alive], n))

    # the recovered walks' hops in walk order, each spelled from its step's
    # edge on: inside a hop, a walk leaves each node by its one out-edge
    wid, edge, n = (np.concatenate(a) for a in zip(*hops))
    keep = np.flatnonzero(ok[wid])
    keep = keep[np.argsort(wid[keep], kind="stable")]
    n = n[keep]
    first = np.cumsum(n) - n  # where each hop's first symbol goes
    order = np.argsort(n, kind="stable")[::-1]  # longest hops first
    first, edge = first[order], edge[keep[order]] - 1
    syms = np.zeros(int(total.sum()), dtype=np.uint8)
    longer = np.cumsum(np.bincount(n)[::-1])[::-1][1:]  # [j]: the hops of more than j edges
    for j, m in enumerate(longer.tolist()):
        syms[first[:m] + j] = boss._codes[edge[:m]]
        edge = first_edge[targets[edge[:m]]] - 1
    text = syms.tobytes().translate(_CODE_ASCII).decode()
    ends = np.cumsum(total).tolist()
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
    """Assemble one contig starting from v with extension threshold x."""
    _check_threshold(x)
    if not boss.is_starting(v):
        raise BadStart(f"node {v} is not a starting node")
    graph, palette = _GraphView.for_assembly(boss), _ColorView.of(colors)
    return _assemble_from(graph, palette, v, boss.node_label(v), x)


def assemble_all(boss: BossIndex, colors: CompressedColors, x: float) -> list[str]:
    """Contigs from every starting node, as ``contig_assm`` gives them (a
    contig contained in a longer one is kept), deduplicated up to reverse
    complement, longest first."""
    _check_threshold(x)
    graph, palette = _GraphView.for_assembly(boss), _ColorView.of(colors)
    starts = boss.starting_node_ids()
    seen: set[str] = set()
    contigs: list[str] = []
    for v, label in zip(starts.tolist(), _labels(boss, starts)):
        s = _assemble_from(graph, palette, v, label, x)
        if not s:
            continue
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


def _starting_preds(boss: BossIndex) -> dict[int, list[int]]:
    """The starting predecessors of each node of indegree > 1, in BOSS
    order: the out-edges of the starting nodes, in source order."""
    targets, starts = boss.edge_targets(), boss.starting_node_ids()
    edges, counts = _gather(boss._first_edge, starts)
    into = targets[edges - 1]
    keep = np.bincount(targets, minlength=boss.node_count + 1)[into] > 1
    preds: dict[int, list[int]] = {}
    for u, t in zip(np.repeat(starts, counts)[keep].tolist(), into[keep].tolist()):
        preds.setdefault(t, []).append(u)
    return preds


def _hop_table(boss: BossIndex) -> tuple[np.ndarray, np.ndarray]:
    """Per node id, the node a walk lands on by following single out-edges
    from it until a branching or ending node, or for k - 2 edges, and the
    number of edges taken. The cap keeps that number in a byte and the
    derivation to about 2 log2 k gathers: pointer doubling over whole
    arrays, as ``BossIndex._ancestors`` lifts parents, in int64 and
    stored at the graph's width."""
    ids = np.arange(boss.node_count + 1)
    moves = (np.diff(boss._first_edge) == 1) & (ids > boss.K[1])
    up = np.where(moves, boss.edge_targets()[boss._first_edge[:-1] - 1], ids)
    up_len, land, steps = moves.astype(np.uint8), ids, np.zeros(len(ids), dtype=np.uint8)
    d = boss.k - 2
    while d:
        if d & 1:
            land, steps = up[land], steps + up_len[land]
        d >>= 1
        if d:
            up, up_len = up[up], up_len + up_len[up]
    return land.astype(boss._first_edge.dtype), steps


class _GraphView:
    """The graph's half of every query's view: the whole-graph arrays as
    memoryviews, whose items index as Python ints without a copy. It holds
    no color and no reference to the graph, so any colors can be read with
    it and the two are dropped together. Built on the graph's first query
    and kept in ``BossIndex._query``. Only assembly fills its two maps:
    ``starting_preds`` (``_starting_preds``), whole on the first assembly
    query, and ``runs``, the unary run (``derive_run``) from each node of
    outdegree 1 where an assembly walk stood. Only the lockstep walk fills
    ``hops`` (``_hop_table``), whole on its first call: per node, where
    its hop lands, at the graph's width, and the hop's edges in a byte,
    so 5 B per node below 2**31 edges."""

    def __init__(self, boss: BossIndex):
        self.first_edge, self.codes = memoryview(boss._first_edge), memoryview(boss._codes)
        self.targets = memoryview(boss.edge_targets())  # 0 on closure edges
        self.starting_preds: dict[int, list[int]] | None = None
        self.runs: dict[int, tuple[bytes, int]] = {}
        self.hops: tuple[np.ndarray, np.ndarray] | None = None
        self.last_ending = int(boss.K[1])  # ending nodes are ids 2..K[1]
        self.edge_count = boss.edge_count
        self.step_limit = boss.edge_count + boss.k

    @staticmethod
    def of(boss: BossIndex) -> _GraphView:
        view = boss._query
        if view is None:
            view = boss._query = _GraphView(boss)
        return view

    @staticmethod
    def for_assembly(boss: BossIndex) -> _GraphView:
        """The graph's view with its starting-predecessor map."""
        view = _GraphView.of(boss)
        if view.starting_preds is None:
            view.starting_preds = _starting_preds(boss)
        return view

    def derive_run(self, v: int) -> tuple[bytes, int]:
        """The unary run from node v of outdegree 1, kept in ``runs``: the
        codes of the edges it takes, one per node it visits, and the node
        where it stops, which is a branching node, a node with starting
        predecessors, or 0 for an ending node (whose edge adds no code). A
        run longer than any walk's budget of edge_count + 1 visits is cut
        there, so a unary cycle ends."""
        first_edge, targets, codes = self.first_edge, self.targets, self.codes
        last_ending, preds = self.last_ending, self.starting_preds
        syms = bytearray()
        e = first_edge[v] - 1
        while len(syms) <= self.edge_count:
            t = targets[e]
            if t <= last_ending:
                t = 0
                break
            syms.append(codes[e])
            e = first_edge[t] - 1
            if first_edge[t + 1] - 1 - e != 1 or t in preds:
                break
        run = self.runs[v] = bytes(syms), t
        return run


# (code, target, color mask) of each successor that is not an ending node,
# and the ascending colors of each ending successor. An implicit
# successor's mask is the complement of its siblings' rows, a negative int
_BranchRecord = tuple[list[tuple[int, int, int]], list[list[int]]]


class _ColorView:
    """The colors' half of every query's view: each row of the color table
    as a bitmask, bit c - 1 for color c, as ``DynamicColorTable.masks``
    holds them during the build, decoded once (``decode_rows``). It holds:

    * ``words``, a (p + 1, W) uint64 matrix, row r's colors 1..64W, which
      the lockstep walk gathers from and ``start_colors`` unpacks. W is
      ⌈C/64⌉ but at most the payload entries per row, rounded down, so
      ``words`` takes at most one word per entry and the empty row;
    * ``masks``, the same rows as Python ints, which the one-node walks
      test with one shift: a list slot and, while W = 1, an int of at most
      36 B per row;
    * ``sparse``, each row holding a color past 64W (whose ``masks`` slot
      is None) as an int64 array of its colors: 8 B per entry and a header;
    * ``rank``, 8 B per node: node v's row is ``rank[v - 1]``, or -1 when
      v is not colorable. Every implicit successor reads row ``empty``,
      one past the stored rows, which holds no color.

    So the view grows with the payload, not with p·C. Built on the colors'
    first query and kept in ``CompressedColors._query`` until the colors
    are dropped. It fills two maps one node at a time: ``_lists``, a node's
    ascending colors (``colors``), for ``build_seqs`` and assembly, and
    ``branches``, a branching node's record (``derive_branch``) once an
    assembly walk stood there. A lookup of an uncolorable node raises
    ``NotColored`` each time: no failure is kept in either map."""

    def __init__(self, colors: CompressedColors):
        offsets, row_colors = decode_rows(colors)
        stored = colors.N.to_bits().view(bool)
        self.rank = np.where(stored, np.cumsum(stored) - 1, -1)
        self.empty = colors.p
        self.rank[colors.implicit - 1] = self.empty
        n_words = max(1, min(-(-colors.num_colors // 64), len(row_colors) // max(colors.p, 1)))
        rows, bit = np.repeat(np.arange(colors.p), np.diff(offsets)), row_colors - 1
        fits = bit < 64 * n_words
        self.words = np.zeros((colors.p + 1, n_words), dtype=np.uint64)
        # a row's colors strictly increase, so each (row, word) segment of
        # the fitting bits is contiguous and its sum is its OR
        cell = rows[fits] * n_words + (bit[fits] >> 6)
        first = np.flatnonzero(np.diff(cell, prepend=-1))
        word_bit = np.uint64(1) << (bit[fits] & 63).astype(np.uint64)
        self.words.ravel()[cell[first]] = np.add.reduceat(word_bit, first)
        self.masks = self.words[:, -1].tolist()
        for j in reversed(range(n_words - 1)):
            self.masks = [m << 64 | w for m, w in zip(self.masks, self.words[:, j].tolist())]
        self.sparse: dict[int, np.ndarray] = {}
        for r in _unique(rows[~fits]).tolist():  # the rows holding a color past the words
            self.sparse[r], self.masks[r] = row_colors[offsets[r] : offsets[r + 1]].copy(), None
        self._rank = memoryview(self.rank)
        self._lists: dict[int, list[int]] = {}
        self.branches: dict[int, _BranchRecord | None] = {}

    @staticmethod
    def of(colors: CompressedColors) -> _ColorView:
        view = colors._query
        if view is None:
            view = colors._query = _ColorView(colors)
        return view

    def mask(self, v: int) -> int:
        """Node v's row as a bitmask; a sparse row's is built on each call."""
        r = self._rank[v - 1]
        if r < 0:
            raise NotColored(f"node {v} is not in the colorable set")
        if (m := self.masks[r]) is None:
            bits = np.packbits(np.bincount(self.sparse[r] - 1), bitorder="little")
            m = int.from_bytes(bits.tobytes(), "little")
        return m

    def decode(self, v: int) -> list[int]:
        """Node v's colors, ascending, decoded on each call."""
        if (r := self._rank[v - 1]) in self.sparse:
            return self.sparse[r].tolist()
        m, got = self.mask(v), []
        while m:
            low = m & -m
            got.append(low.bit_length())
            m ^= low
        return got

    def start_colors(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The colors of nodes ``ids`` as (position in ids, color) pairs,
        by position and then color: the rows of ``words`` in one unpack,
        each sparse row from ``sparse``. Raises ``NotColored`` for the
        first node without a row."""
        r = self.rank[ids - 1]
        if (r < 0).any():
            raise NotColored(f"node {ids[r < 0][0]} is not in the colorable set")
        bits = np.unpackbits(self.words[r].astype("<u8").view(np.uint8), axis=1, bitorder="little")
        far = np.flatnonzero(np.isin(r, list(self.sparse))) if self.sparse else r[:0]
        bits[far] = 0
        owner, bit = np.divmod(np.flatnonzero(bits.view(bool)), bits.shape[1])
        col = bit + 1
        if len(far):
            rows = [self.sparse[x] for x in r[far].tolist()]
            owner = np.concatenate([owner, np.repeat(far, [len(c) for c in rows])])
            col = np.concatenate([col] + rows)
            order = np.argsort(owner, kind="stable")
            owner, col = owner[order], col[order]
        return owner, col.astype(np.int64, copy=False)

    def colors(self, v: int) -> list[int]:
        """Node v's colors, ascending, kept in ``_lists``."""
        got = self._lists.get(v)
        if got is None:
            got = self._lists[v] = self.decode(v)
        return got

    def derive_branch(self, graph: _GraphView, v: int) -> _BranchRecord | None:
        """Branching node v's record: (code, target, color mask) for each
        successor that is not an ending node, and the colors of the ending
        successors; None when two successors share a color. An implicit
        successor's mask is every color the other rows do not hold. Kept
        in ``branches`` unless a successor's row is sparse, since that
        row's mask, built per call, may be as wide as C. Every successor's
        colors are read, so an uncolorable one raises whether or not two
        others share a color."""
        first_edge, targets, codes = graph.first_edge, graph.targets, graph.codes
        solid: list[tuple[int, int, int]] = []
        ending: list[list[int]] = []
        seen, shared = 0, False
        for e in range(first_edge[v] - 1, first_edge[v + 1] - 1):
            t = targets[e]
            held = self.mask(t)
            shared = shared or bool(seen & held)
            seen |= held
            if t <= graph.last_ending:
                ending.append(self.colors(t))
            else:
                solid.append((codes[e], t, held))
        rank, empty = self._rank, self.empty
        solid = [(code, t, ~seen if rank[t - 1] == empty else held) for code, t, held in solid]
        record = None if shared else (solid, ending)
        if seen.bit_length() <= 64 * self.words.shape[1]:
            self.branches[v] = record
        return record


def _assemble_from(graph: _GraphView, palette: _ColorView, v: int, label: str, x: float) -> str:
    """Walk from starting node v, whose label is given, keeping a set of
    active reads (color -> starting node); extend through a branch only
    when a single successor carries at least an x fraction of them. The
    walk visits at most edge_count + 1 nodes; it crosses each unary run in
    one step and reads a branching node's successors from its record."""
    first_edge, runs, starting_preds = graph.first_edge, graph.runs, graph.starting_preds
    branches, colors = palette.branches, palette.colors
    active: dict[int, int] = dict.fromkeys(colors(v), v)
    held_active = palette.mask(v)  # the bits of active's colors
    finished: set[tuple[int, int]] = set()
    syms = bytearray()  # one code per edge taken
    cur, budget = v, graph.edge_count + 1  # the nodes left to visit
    while budget:
        for u in starting_preds.get(cur, ()):
            for c in colors(u):
                if (c, u) not in finished:
                    active[c] = u
                    held_active |= 1 << (c - 1)
        if first_edge[cur + 1] - first_edge[cur] == 1:
            codes, stop = runs.get(cur) or graph.derive_run(cur)
            if len(codes) >= budget:
                syms += codes[:budget]  # the budget ends inside the run
                break
            syms += codes
            budget -= len(codes)
            if not stop:
                break  # an ending node
            cur = stop
            continue
        budget -= 1
        record = branches[cur] if cur in branches else palette.derive_branch(graph, cur)
        if record is None or not active:
            break  # two successors share a color, or no read is active
        solid, ending = record
        n = len(active)
        candidates = [s for s in solid if (s[2] & held_active).bit_count() / n >= x]
        for held in ending:
            for c in held:
                if c in active:
                    finished.add((c, active.pop(c)))
                    held_active ^= 1 << (c - 1)
        if len(candidates) != 1:
            break
        code, cur, held = candidates[0]
        syms.append(code)
        if held_active & ~held:
            held_active &= held
            active = {c: s for c, s in active.items() if held >> (c - 1) & 1}
    return (label + syms.translate(_CODE_ASCII).decode()).lstrip(DUMMY)

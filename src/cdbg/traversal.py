"""Consumers of the colored index: read reconstruction and contig assembly.

Reconstruction spells each color of a starting node by following that
color: at a branch it takes the one successor whose row holds the color,
and it gives the color up as ambiguous when no successor or more than one
holds it. Every query (``build_seqs``, ``reconstruct_all``,
``contig_assm``, ``assemble_all``) reads the index through two views,
each derived on the first query that needs it and kept on its object for
every later query: the graph's ``_GraphView`` in ``BossIndex._query`` and
the colors' ``_ColorView`` in ``CompressedColors._query``. So the color
table is decoded once per loaded index, not once per call.

A query chooses the walk by the number of (starting node, color) pairs.
Below ``LOCKSTEP_MIN_WALKS`` pairs, each pair is walked one node at a time
over the views. From there on all pairs are walked in lockstep, one
whole-array step per edge, and the membership test at a branch is one
``searchsorted`` over sorted (rank, color) keys. A lockstep step costs
about the same however many walks it carries, so a few walks
(``build_seqs`` from one start) are faster one at a time and many walks
are faster in lockstep. Both give the same strings.

Contig assembly walks one starting node at a time: it keeps a set of
active reads (color -> starting node) and extends through a branch only
when a single successor carries at least an ``x`` fraction of the active
colors. It reads three caches that only assembly fills, so reconstruction
never derives them. The graph view holds two, which read the graph alone:
the starting predecessors of each node of indegree > 1
(``_starting_preds``), derived whole on the first assembly query, and the
unary run from each node of outdegree 1 where a walk stood, derived on
the first walk that stands there. A walk crosses such a run in one step
instead of one step per node. The color view holds the third: a record of
each branching node where a walk stood, with its successors' colors,
derived on the first walk that stands there. The walks of an
``assemble_all`` call share long paths, so most runs and records are
derived by one walk and read by many.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._arrays import _gather
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
    row = palette.row(v).tolist()
    steps = _walk_pairs(boss, _GraphView.of(boss), palette, [v] * len(row), row)
    label = boss.node_label(v)
    return [(label + s).strip(DUMMY) for s in steps if s is not None]


def reconstruct_all(
    boss: BossIndex,
    colors: CompressedColors,
    verify_against: ReadSet | None = None,
    threads: int = 1,
) -> ReconstructionReport:
    """What build_seqs gives from every starting node, walked all at once,
    with per-start counts. ``threads`` is ignored; it stays because the
    benchmark's pipeline passes ``threads=1`` (ROADMAP item 1 removes both)."""
    report = ReconstructionReport()
    starts = boss.starting_node_ids()
    n_colors, walks = _walk_all(boss, colors, starts, _labels(boss, starts))
    bounds = np.concatenate([[0], np.cumsum(n_colors)]).tolist()
    for v, lo, hi in zip(starts.tolist(), bounds[:-1], bounds[1:]):
        recovered = [s for s in walks[lo:hi] if s is not None]
        ambiguous = hi - lo - len(recovered)
        report.per_start[v] = StartReport(
            colors=hi - lo, recovered=len(recovered), ambiguous=ambiguous
        )
        report.recovered.extend(recovered)
        report.ambiguous_count += ambiguous
    if verify_against is not None:
        report.verified_fraction = verified_fraction(report.recovered, verify_against)
    return report


# The number of walks from which _walk_pairs steps them in lockstep.
# Measured on a 2-core 2.1 GHz Xeon (medians of 30-40 alternated pairs, one
# at a time against lockstep, each timing including one decode of the color
# table): all 96 walks of repeats-k25 took 5.9 against 7.5 ms; strided
# starts of decode-k25-10x took 4.9 against 6.1 ms at 98 walks, 6.2 against
# 6.2 ms at 164 and 11.5 against 5.5 ms at all 394; on build-k31-30x, 103
# walks took 8.5 against 7.1 ms. Both walks read the same decoded table,
# which every query on an index shares, so the crossover holds without it.
LOCKSTEP_MIN_WALKS = 128


def _walk_all(
    boss: BossIndex, colors: CompressedColors, starts: np.ndarray, labels: list[str]
) -> tuple[np.ndarray, list[str | None]]:
    """Spell every color of every node in ``starts``, whose labels are given.

    Returns the number of colors of each start and, per walk in start
    order and then color order, its string, or None when the walk is
    ambiguous: it reaches a branch where not exactly one successor holds
    its color, or takes more than edge_count + k steps. Raises
    ``NotColored`` when a start or an inspected successor is not
    colorable. The walks read the index's views, derived on its first
    query (see the module docstring).
    """
    palette = _ColorView.of(colors)
    offsets, row_colors, colorable, rank = palette.table
    _require_colored(colorable, starts)
    walk_cols, n_colors = _gather(offsets, rank[starts - 1] - 1)
    cur, col = np.repeat(starts, n_colors), row_colors[walk_cols]
    steps = _walk_pairs(boss, _GraphView.of(boss), palette, cur.tolist(), col.tolist())
    walk_labels = (label for label, n in zip(labels, n_colors.tolist()) for _ in range(n))
    walks = [
        None if s is None else (label + s).strip(DUMMY) for label, s in zip(walk_labels, steps)
    ]
    return n_colors, walks


def _walk_pairs(
    boss: BossIndex, graph: _GraphView, palette: _ColorView, cur: list[int], col: list[int]
) -> list[str | None]:
    """What ``_walk_color`` gives for each walk (start ``cur[i]``, color
    ``col[i]``). Fewer than ``LOCKSTEP_MIN_WALKS`` walks go one node at a
    time, more go in lockstep."""
    if len(col) < LOCKSTEP_MIN_WALKS:
        return [_walk_color(graph, palette, v, c) for v, c in zip(cur, col)]
    cur, col = np.array(cur, dtype=np.int64), np.array(col, dtype=np.int64)
    return _walk_lockstep(boss, palette.table, cur, col)


def _walk_color(graph: _GraphView, palette: _ColorView, v: int, c: int) -> str | None:
    """The symbols that color c's walk from starting node v appends to v's
    label, one node at a time; None when the walk is ambiguous."""
    first_edge, targets, codes = graph.first_edge, graph.targets, graph.codes
    colors_of, last_ending = palette.colors_of, graph.last_ending
    syms = bytearray()  # one code per step
    while v > last_ending:
        if len(syms) == graph.step_limit:
            return None  # a walk this long cycles
        e, end = first_edge[v] - 1, first_edge[v + 1] - 1
        if end - e > 1:
            hits = [f for f in range(e, end) if c in colors_of(targets[f])]
            if len(hits) != 1:
                return None
            e = hits[0]
        v = targets[e]
        syms.append(codes[e])
    return syms.translate(_CODE_ASCII).decode()


def _walk_lockstep(
    boss: BossIndex, table: tuple[np.ndarray, ...], cur: np.ndarray, col: np.ndarray
) -> list[str | None]:
    """What ``_walk_color`` gives for each walk (start ``cur``, color
    ``col``), all walks at once: one whole-array step per edge."""
    offsets, row_colors, colorable, rank = table
    n_walks = len(col)
    # membership of color c in the row of rank r is key (r - 1) * width + c;
    # rows ascend and ranks increase, so the keys are already sorted
    width = int(row_colors.max()) + 1 if len(row_colors) else 1
    keys = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets)) * width + row_colors

    # int64 once per call: mixed-width numpy steps on small arrays are slower
    targets, first_edge = boss.edge_targets().astype(np.int64), boss._first_edge.astype(np.int64)
    codes, last_ending = boss._codes, int(boss.K[1])  # ending nodes are ids 2..K[1]
    wid = np.arange(n_walks)
    ok = np.zeros(n_walks, dtype=bool)
    step_wid, step_sym = [wid[:0]], [codes[:0]]
    limit = boss.edge_count + boss.k
    for step in range(limit + 1):
        done = cur <= last_ending
        ok[wid[done]] = True
        wid, cur, col = wid[~done], cur[~done], col[~done]
        if not len(wid) or step == limit:
            break  # walks left at the limit cycle and stay ambiguous
        lo = first_edge[cur]
        single = first_edge[cur + 1] - lo == 1
        pos = np.where(single, lo, 0)
        nxt = np.where(single, targets[lo - 1], 0)
        if not single.all():
            branch = np.flatnonzero(~single)
            edges, counts = _gather(first_edge, cur[branch])
            owner = np.repeat(branch, counts)
            t = targets[edges - 1]
            _require_colored(colorable, t)
            q = (rank[t - 1] - 1) * width + col[owner]
            found = np.searchsorted(keys, q)
            hit = keys[np.minimum(found, len(keys) - 1)] == q
            edges, owner, t = edges[hit], owner[hit], t[hit]
            unique = np.bincount(owner, minlength=len(cur))[owner] == 1
            pos[owner[unique]] = edges[unique]
            nxt[owner[unique]] = t[unique]
        alive = nxt > 0
        wid, cur, col = wid[alive], nxt[alive], col[alive]
        step_wid.append(wid)
        step_sym.append(codes[pos[alive] - 1])

    # each walk's symbols, one per step, in step order
    walk_ids, syms = np.concatenate(step_wid), np.concatenate(step_sym)
    text = syms[np.argsort(walk_ids, kind="stable")].tobytes().translate(_CODE_ASCII).decode()
    ends = np.cumsum(np.bincount(walk_ids, minlength=n_walks)).tolist()
    return [
        text[a:b] if good else None
        for a, b, good in zip([0] + ends[:-1], ends, ok.tolist())
    ]


def _require_colored(colorable: np.ndarray, nodes: np.ndarray) -> None:
    bad = nodes[~colorable[nodes - 1]]
    if len(bad):
        raise NotColored(f"node {bad[0]} is not in the colorable set")


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
    """Contigs from every starting node, deduplicated up to reverse
    complement, longest first.

    The output is every per-start contig, as ``contig_assm`` gives it from
    each starting node: a contig contained in a longer one is kept. The
    walks share the index's views and its starting-predecessor map, as
    every ``contig_assm`` call does.
    """
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


class _GraphView:
    """The graph's half of every query's view, read one node at a time. It
    holds no color, so any colors can be read with it, and no reference to
    the graph, so the two are dropped together. Built on the graph's first
    query and kept in ``BossIndex._query``. Besides the whole-graph arrays,
    wrapped in memoryviews whose items index as Python ints without a copy,
    it keeps two maps that only assembly derives and reads:

    * ``starting_preds``, the starting predecessors of each node of
      indegree > 1 (``_starting_preds``), derived whole on the first
      assembly query;
    * ``runs``, keyed by a node of outdegree 1 at which an assembly walk
      stood, the unary run from there (``derive_run``), derived when a
      walk first stands there.
    """

    def __init__(self, boss: BossIndex):
        self.first_edge, self.codes = memoryview(boss._first_edge), memoryview(boss._codes)
        self.targets = memoryview(boss.edge_targets())  # 0 on closure edges
        self.starting_preds: dict[int, list[int]] | None = None
        self.runs: dict[int, tuple[bytes, int]] = {}
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


# (code, target, colors) of each successor that is not an ending node, and
# the colors of each ending successor
_BranchRecord = tuple[list[tuple[int, int, frozenset[int]]], list[frozenset[int]]]


class _ColorView:
    """The colors' half of every query's view. ``table`` holds the decoded
    rows (``decode_rows``, 8 B per color entry and per row), the colorable
    bitmap as bools and its running rank (9 B per node), where
    ``rank[v - 1]`` is the row number of node v; the same arrays are
    wrapped in memoryviews for one-node reads. Built on the colors' first
    query and kept in ``CompressedColors._query`` until the colors are
    dropped. It keeps two maps, each filled one node at a time:

    * ``_sets``, a node's color set, on its first use by any query;
    * ``branches``, keyed by a branching node at which an assembly walk
      stood, its record (``derive_branch``), derived when a walk first
      stands there; only assembly derives and reads it.

    A lookup of an uncolorable node raises ``NotColored`` each time: no
    failure is kept in either map."""

    def __init__(self, colors: CompressedColors):
        offsets, row_colors = decode_rows(colors)
        colorable = colors.N.to_bits().astype(bool)
        self.table = offsets, row_colors, colorable, np.cumsum(colorable)
        self._offsets, self._row_colors, self._colorable, self._rank = map(memoryview, self.table)
        self._sets: dict[int, frozenset[int]] = {}
        self.branches: dict[int, _BranchRecord | None] = {}

    @staticmethod
    def of(colors: CompressedColors) -> _ColorView:
        view = colors._query
        if view is None:
            view = colors._query = _ColorView(colors)
        return view

    def row(self, v: int) -> memoryview:
        """Node v's colors, ascending."""
        if not self._colorable[v - 1]:
            raise NotColored(f"node {v} is not in the colorable set")
        r = self._rank[v - 1]
        return self._row_colors[self._offsets[r - 1] : self._offsets[r]]

    def colors_of(self, v: int) -> frozenset[int]:
        got = self._sets.get(v)
        if got is None:
            got = self._sets[v] = frozenset(self.row(v))
        return got

    def derive_branch(self, graph: _GraphView, v: int) -> _BranchRecord | None:
        """Branching node v's record, kept in ``branches``: (code, target,
        color set) for each successor that is not an ending node, and the
        color sets of the ending successors; None when two successors share
        a color. Every successor's colors are read, so an uncolorable one
        raises whether or not two others share a color."""
        first_edge, targets, codes = graph.first_edge, graph.targets, graph.codes
        solid: list[tuple[int, int, frozenset[int]]] = []
        ending: list[frozenset[int]] = []
        seen: set[int] = set()
        shared = False
        for e in range(first_edge[v] - 1, first_edge[v + 1] - 1):
            t = targets[e]
            held = self.colors_of(t)
            shared = shared or not seen.isdisjoint(held)
            seen |= held
            if t <= graph.last_ending:
                ending.append(held)
            else:
                solid.append((codes[e], t, held))
        record = self.branches[v] = None if shared else (solid, ending)
        return record


def _assemble_from(graph: _GraphView, palette: _ColorView, v: int, label: str, x: float) -> str:
    """Walk from starting node v, whose label is given, keeping a set of
    active reads (color -> starting node); extend through a branch only
    when a single successor carries at least an x fraction of them. The
    walk visits at most edge_count + 1 nodes; it crosses each unary run in
    one step and reads a branching node's successors from its record."""
    first_edge, runs, starting_preds = graph.first_edge, graph.runs, graph.starting_preds
    branches, colors_of = palette.branches, palette.colors_of
    active: dict[int, int] = {c: v for c in colors_of(v)}
    finished: set[tuple[int, int]] = set()
    syms = bytearray()  # one code per edge taken
    cur, budget = v, graph.edge_count + 1  # the nodes left to visit
    while budget:
        for u in starting_preds.get(cur, ()):
            for c in colors_of(u):
                if (c, u) not in finished:
                    active[c] = u
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
        q_keys = set(active)
        candidates = [s for s in solid if len(s[2] & q_keys) / len(q_keys) >= x]
        for held in ending:
            for c in held:
                if c in active:
                    finished.add((c, active.pop(c)))
        if len(candidates) != 1:
            break
        code, cur, held = candidates[0]
        syms.append(code)
        if not active.keys() <= held:
            active = {c: s for c, s in active.items() if c in held}
    return (label + syms.translate(_CODE_ASCII).decode()).lstrip(DUMMY)

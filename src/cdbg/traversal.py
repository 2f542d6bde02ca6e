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
colors. It steps through the same views as reconstruction, and reads the
starting predecessors of the nodes with indegree > 1 from a map
(``_starting_preds``) that the graph view derives on the first assembly
query; reconstruction never derives it.
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
    ambiguous: it reaches a branch where not exactly one real successor
    holds its color, or takes more than edge_count + k steps. Raises
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
        if end - e > 1:  # closure edges are skipped at a branch
            hits = [f for f in range(e, end) if (t := targets[f]) and c in colors_of(t)]
            if len(hits) != 1:
                return None
            e = hits[0]
        v = targets[e]
        if not v:
            return None  # a closure edge
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
        nxt = np.where(single, targets[lo - 1], 0)  # 0 on a closure edge
        if not single.all():
            branch = np.flatnonzero(~single)
            edges, counts = _gather(first_edge, cur[branch])
            owner = np.repeat(branch, counts)
            t = targets[edges - 1]
            real = t > 0  # closure edges are skipped at a branch
            edges, owner, t = edges[real], owner[real], t[real]
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
    order: the real out-edges of the starting nodes, in source order."""
    targets, starts = boss.edge_targets(), boss.starting_node_ids()
    edges, counts = _gather(boss._first_edge, starts)
    into = targets[edges - 1]
    keep = (into > 0) & (np.bincount(targets, minlength=boss.node_count + 1)[into] > 1)
    preds: dict[int, list[int]] = {}
    for u, t in zip(np.repeat(starts, counts)[keep].tolist(), into[keep].tolist()):
        preds.setdefault(t, []).append(u)
    return preds


class _GraphView:
    """The graph's half of every query's view, read one node at a time: the
    whole-graph arrays wrapped in memoryviews, whose items index as Python
    ints without a copy of the arrays; each branching node's real (code,
    target) out-edges, built when a walk first reaches it; and the
    starting-predecessor map, derived on the first assembly query. Built
    on the graph's first query and kept in ``BossIndex._query``; it holds
    no reference to the graph, so the two are dropped together."""

    def __init__(self, boss: BossIndex):
        self.first_edge, self.codes = memoryview(boss._first_edge), memoryview(boss._codes)
        self.targets = memoryview(boss.edge_targets())  # 0 on closure edges
        self.branches: dict[int, list[tuple[int, int]]] = {}
        self.starting_preds: dict[int, list[int]] | None = None
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


class _ColorView:
    """The colors' half of every query's view. ``table`` holds the decoded
    rows (``decode_rows``, 8 B per color entry and per row), the colorable
    bitmap as bools and its running rank (9 B per node), where
    ``rank[v - 1]`` is the row number of node v; the same arrays are
    wrapped in memoryviews for one-node reads. A node's color set is built
    on its first use. Built on the colors' first query and kept in
    ``CompressedColors._query`` until the colors are dropped. A lookup of
    an uncolorable node raises ``NotColored`` each time: no failure is
    kept."""

    def __init__(self, colors: CompressedColors):
        offsets, row_colors = decode_rows(colors)
        colorable = colors.N.to_bits().astype(bool)
        self.table = offsets, row_colors, colorable, np.cumsum(colorable)
        self._offsets, self._row_colors, self._colorable, self._rank = map(memoryview, self.table)
        self._sets: dict[int, frozenset[int]] = {}

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


def _assemble_from(graph: _GraphView, palette: _ColorView, v: int, label: str, x: float) -> str:
    """Walk from starting node v, whose label is given, keeping a set of
    active reads (color -> starting node); extend through a branch only
    when a single successor carries at least an x fraction of them."""
    first_edge, targets, codes = graph.first_edge, graph.targets, graph.codes
    branches, last_ending, starting_preds = graph.branches, graph.last_ending, graph.starting_preds
    colors_of = palette.colors_of
    active: dict[int, int] = {c: v for c in colors_of(v)}
    finished: set[tuple[int, int]] = set()
    syms = bytearray()  # one code per step
    cur = v
    for _ in range(graph.edge_count + 1):
        for u in starting_preds.get(cur, ()):
            for c in colors_of(u):
                if (c, u) not in finished:
                    active[c] = u
        e, end = first_edge[cur] - 1, first_edge[cur + 1] - 1
        if end - e == 1:
            cur = targets[e]
            if cur <= last_ending:
                break  # an ending node or a closure edge
            syms.append(codes[e])
            continue
        succ = branches.get(cur)
        if succ is None:
            succ = branches[cur] = [(codes[f], t) for f in range(e, end) if (t := targets[f])]
        succ_colors = {t: colors_of(t) for _, t in succ}
        # stop when two successors share a color: no safe continuation
        seen: set[int] = set()
        shared = False
        for cset in succ_colors.values():
            if cset & seen:
                shared = True
            seen |= cset
        if shared:
            break
        q_keys = set(active)
        if not q_keys:
            break
        candidates = [
            (code, t)
            for code, t in succ
            if t > last_ending and len(succ_colors[t] & q_keys) / len(q_keys) >= x
        ]
        for _, t in succ:
            if t <= last_ending:
                for c in succ_colors[t]:
                    if c in active:
                        finished.add((c, active.pop(c)))
        if len(candidates) != 1:
            break
        code, cur = candidates[0]
        syms.append(code)
        active = {c: s for c, s in active.items() if c in succ_colors[cur]}
    return (label + syms.translate(_CODE_ASCII).decode()).lstrip(DUMMY)

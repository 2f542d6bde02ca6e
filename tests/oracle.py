"""Naive hash-map de Bruijn graph used as the differential-testing oracle.

Built from the same padded k-mer set as the succinct index: each string
gets k-1 leading dummies and one trailing dummy, and its ending node (the
last k-2 symbols followed by ``$``) gets one structural closure edge
without a target. Node types follow from the labels alone; everything is
held in plain dictionaries over label strings and queried by brute force.

The module also holds the one-node-at-a-time readers of the succinct
index (``outdegree``, ``is_critical``, ...) and the per-string, per-colour
and per-contig walks that the library's whole-array paths replaced; the
tests check those paths against them. The walks read a full table, one
row per colourable node (``compress_ref`` with every implicit successor
kept), while the library reads the index without the rows of implicit
successors. It also holds what only tests call: ``graph_caches_ref``, the
graph's derived arrays as the graph once derived them,
``label_to_node_ref`` and ``starting_preds_ref``, the label lookup and
assembly's starting-predecessor map as they once were, ``solid_mask``,
``edge_disambiguation_flags``, ``label_edge_disagreements`` (the check
of ROADMAP item 2), ``table_rows``, ``table_from_rows``, ``hop_ref``,
the lockstep's hop table one node at a time, and ``walk_each_pair``,
which puts ``build_seqs``'s walk in ``reconstruct_all``'s place.
"""

from __future__ import annotations

from collections import defaultdict

DUMMY = "$"


def colex_key(label: str) -> str:
    return label[::-1]


class NaiveDbg:
    def __init__(self, strings: list[str], k: int):
        self.k = k
        edges: set[tuple[str, str, bool]] = set()
        for s in strings:
            padded = DUMMY * (k - 1) + s + DUMMY
            for t in range(len(padded) - k + 1):
                window = padded[t : t + k]
                edges.add((window[: k - 1], window[k - 1], False))
            edges.add((padded[-(k - 1):], DUMMY, True))
        self.out: dict[str, list[tuple[str, str | None]]] = defaultdict(list)
        self.incoming: dict[str, list[str]] = defaultdict(list)
        labels: set[str] = set()
        for src, sym, closure in edges:
            labels.add(src)
            target = None if closure else src[1:] + sym
            self.out[src].append((sym, target))
            if target is not None:
                labels.add(target)
                self.incoming[target].append(src)
        for src in self.out:
            self.out[src].sort()
        for tgt in self.incoming:
            self.incoming[tgt].sort(key=colex_key)
        self.labels = sorted(labels, key=colex_key)
        self.id_of = {lab: i + 1 for i, lab in enumerate(self.labels)}

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.out.values())

    def label(self, v: int) -> str:
        return self.labels[v - 1]

    def outdegree(self, label: str) -> int:
        return len(self.out[label])

    def forward(self, label: str, sym: str) -> str | None:
        for s, tgt in self.out[label]:
            if s == sym:
                return tgt
        return None

    def forward_r(self, label: str, r: int) -> str | None:
        return self.out[label][r - 1][1]

    def indegree(self, label: str) -> int:
        return len(self.incoming.get(label, []))

    def backward(self, label: str) -> list[str]:
        return self.incoming.get(label, [])

    def is_starting(self, label: str) -> bool:
        return label[0] == DUMMY and DUMMY not in label[1:]

    def is_ending(self, label: str) -> bool:
        return label[-1] == DUMMY and DUMMY not in label[:-1]

    def is_solid(self, label: str) -> bool:
        return DUMMY not in label

    def is_critical(self, label: str) -> bool:
        return self.is_solid(label) and any(
            self.outdegree(u) > 1 for u in self.backward(label)
        )

    def colorable_labels(self) -> list[str]:
        return [
            lab
            for lab in self.labels
            if self.is_starting(lab) or self.is_ending(lab) or self.is_critical(lab)
        ]


# -- per-node readers of the succinct index ---------------------------------


def node_edge_range(boss, v: int) -> tuple[int, int]:
    """1-based inclusive range of edge positions owned by node v."""
    boss._check_node(v)
    return int(boss._first_edge[v]), int(boss._first_edge[v + 1] - 1)


def outdegree(boss, v: int) -> int:
    """Edges leaving v, closure edges included."""
    lo, hi = node_edge_range(boss, v)
    return hi - lo + 1


def edge_symbol(boss, pos: int) -> int:
    return int(boss.E.codes()[pos - 1])


def forward_r(boss, v: int, r: int) -> int | None:
    """Target of the r-th edge of v; None on a closure edge."""
    from cdbg.errors import BoundsError

    lo, hi = node_edge_range(boss, v)
    if not 1 <= r <= hi - lo + 1:
        raise BoundsError(f"edge rank {r} out of range [1, {hi - lo + 1}]")
    return boss.edge_target(lo + r - 1)


def indegree(boss, v: int) -> int:
    return len(boss.backward(v))


def is_ending(boss, v: int) -> bool:
    """Ending nodes are ids 2..K[1], the labels ending in ``$``."""
    boss._check_node(v)
    return bool(2 <= v <= boss.K[1])


def is_solid(boss, v: int) -> bool:
    return not is_ending(boss, v) and boss.node_label(v)[0] != DUMMY


def solid_mask(boss):
    """One bool per node, indexed by id - 1: true on labels without ``$``,
    read off every node's label at once."""
    import numpy as np

    return (boss.node_labels(np.arange(1, boss.node_count + 1)) != 1).all(axis=1)


def edge_disambiguation_flags(boss):
    """One 0/1 byte per edge, unpacked from the graph's flags."""
    return boss._flags.to_bits()


def label_edge_disagreements(boss) -> list[int]:
    """0-based positions of the flagged edges that disagree with the node
    labels. A flagged edge shares the target of the preceding unflagged
    edge of its symbol, closure edges aside, so its source must end in the
    same k-2 label symbols as that edge's source. Listed: each flagged,
    non-closure edge whose source does not, and each one with no such
    preceding edge. A graph whose edges agree with its labels lists none."""
    sources = boss.edge_sources().tolist()
    closure = range(boss.E.closure_start, boss.E.closure_start + boss.E.closure_len)
    flags = edge_disambiguation_flags(boss).tolist()
    unflagged: dict[int, int] = {}  # symbol -> the last unflagged edge's position
    out = []
    for pos, c in enumerate(boss.E.codes().tolist()):
        if pos in closure:
            continue
        if not flags[pos]:
            unflagged[c] = pos
        elif c not in unflagged or (
            boss.node_label(sources[pos])[1:] != boss.node_label(sources[unflagged[c]])[1:]
        ):
            out.append(pos)
    return out


def is_critical(boss, v: int) -> bool:
    """Solid node with at least one predecessor of outdegree > 1."""
    if not is_solid(boss, v):
        return False
    return any(outdegree(boss, u) > 1 for u in boss.backward(v))


def implicit_candidates_ref(boss) -> list[int]:
    """The implicit successors, one node at a time: each node t that is
    the one non-ending successor of a branching node u, solid, not a
    starting node, and the successor of no other branching node."""
    out = []
    for u in range(1, boss.node_count + 1):
        succ = [t for _, _, t in boss.successors(u)]
        inner = [t for t in succ if not is_ending(boss, t)]
        if len(succ) < 2 or len(inner) != 1:
            continue
        t = inner[0]
        branching = [w for w in boss.backward(t) if outdegree(boss, w) > 1]
        if is_solid(boss, t) and not boss.is_starting(t) and branching == [u]:
            out.append(t)
    return sorted(out)


def graph_caches_ref(boss) -> dict:
    """The arrays the graph derives at build and at load, derived again the
    way the graph once did, checks included, from the codes, ``B``, the
    flags and ``E``'s closure run alone: each edge's source, the canonical
    edges by ``flatnonzero``, an indegree ``bincount``, the ancestors
    lifted from a gather through every node id and the branch edges found
    through every edge's source. Keyed by the graph's attribute names;
    ``explicit_colorable`` is its words."""
    import numpy as np

    from cdbg.bitvectors import BitVector
    from cdbg.errors import CorruptIndex

    m, k, E = boss.edge_count, boss.k, boss.E
    codes, minus = boss._codes, boss._flags.to_bits()
    width = np.int32 if m < 2**31 - 1 else np.int64
    first = np.flatnonzero(boss._b_bits().view(bool)) + 1
    first_edge = np.concatenate([[0], first, [m + 1]]).astype(width)
    n = len(first_edge) - 2
    ends = E.closure_len + 1
    if not 2 <= ends <= n:
        raise CorruptIndex(f"{ends - 1} closure edges, not 1 to {n - 1}: one per ending node")
    if first_edge[ends + 1] - first_edge[2] != ends - 1:
        raise CorruptIndex("an ending node does not own exactly one closure edge")
    if first_edge[2] - 1 != E.closure_start:
        raise CorruptIndex("the closure run does not start at the first ending node")

    closure = slice(E.closure_start, E.closure_start + E.closure_len)
    counted = ~minus.view(bool)
    counted[closure] = False
    order = np.argsort(codes, kind="stable")
    ranks = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counted[order], out=ranks[1:])
    targets = np.empty(m, dtype=np.int64)
    targets[order] = ranks[1:] + 1
    targets[closure] = 0
    sym_ends = np.cumsum(np.bincount(codes, minlength=6))
    K = np.concatenate([[0], ranks[sym_ends[1:]] + 1])

    if K[1] != ends:
        raise CorruptIndex("the $ edges do not enter every ending node")
    if len(targets) and targets.max() > n:
        raise CorruptIndex("edge target rank exceeds node count")
    indeg = np.bincount(targets, minlength=n + 1)
    if indeg[1] != 0:
        raise CorruptIndex("all-dummy root acquired incoming edges")
    if n > 1 and indeg[2:].min() < 1:
        raise CorruptIndex("non-root node without incoming edge")
    canonical = np.flatnonzero((targets > 0) & (minus == 0))
    outdeg = np.diff(first_edge)
    sources = np.repeat(np.arange(1, n + 1, dtype=width), outdeg[1:])
    parent = np.zeros(n + 1, dtype=width)
    parent[targets[canonical]] = sources[canonical]
    if len(canonical) != n - 1 or not parent[2:].all():
        raise CorruptIndex("a node lacks a canonical incoming edge")

    up, anc, d = parent.astype(np.int64), np.arange(n + 1), k - 2
    while d:
        if d & 1:
            anc = up[anc]
        d >>= 1
        if d:
            up = up[up]
    dollar = np.flatnonzero(anc[2:] < 2) + 2
    if len(dollar) and (dollar.min() <= ends or (indeg[dollar] != 1).any()):
        raise CorruptIndex("the labels with a leading $ do not form a tree below the root")
    starting = np.flatnonzero(anc == 1).astype(width)
    bits = np.zeros(n + 1, dtype=np.uint8)
    bits[starting] = 1
    bits[2 : ends + 1] = 1
    solid = anc >= 2
    solid[: ends + 1] = False
    targets = targets.astype(width)
    succ = targets[outdeg[sources] > 1]
    second = first_edge[np.flatnonzero(outdeg == 2)]
    t = targets[second[codes[second - 1] == 1]]
    t = t[solid[t] & (bits[t] == 0)]
    implicit = np.sort(t[np.bincount(succ, minlength=n + 1)[t] == 1])
    bits[succ[solid[succ]]] = 1
    bits[implicit] = 0
    return {
        "_first_edge": first_edge,
        "_targets": targets,
        "_parent": parent,
        "K": K,
        "_starting": starting,
        "solid_count": int(solid.sum()),
        "implicit_candidates": implicit,
        "explicit_colorable": BitVector(bits[1:])._words,
    }


def label_to_node_ref(boss, label: str) -> int | None:
    """``BossIndex.label_to_node`` as the graph once answered it: a binary
    search whose every probe spells a whole label through ``node_label``."""
    from bisect import bisect_left

    from cdbg.errors import BadLabel
    from cdbg.sequence import SYMBOL_CODES

    if len(label) != boss.k - 1:
        raise BadLabel(f"label length {len(label)} != k-1 = {boss.k - 1}")
    if any(ch not in SYMBOL_CODES for ch in label):
        raise BadLabel(f"label {label!r} contains symbols outside the alphabet")
    n = boss.node_count  # binary search over the colex-sorted labels
    i = bisect_left(range(1, n + 1), label[::-1], key=lambda v: boss.node_label(v)[::-1])
    return i + 1 if i < n and boss.node_label(i + 1) == label else None


def starting_preds_ref(boss) -> dict[int, list[tuple[int, bool]]]:
    """Per node of indegree > 1, (u, whether u has two or more out-edges)
    for each starting predecessor u, in the BOSS order of u's edges: the
    map assembly once derived whole, from an indegree ``bincount``."""
    import numpy as np

    from cdbg._arrays import _gather

    targets, starts = boss.edge_targets(), boss.starting_node_ids()
    edges, counts = _gather(boss._first_edge, starts)
    into = targets[edges - 1]
    keep = np.bincount(targets, minlength=boss.node_count + 1)[into] > 1
    preds: dict[int, list[tuple[int, bool]]] = {}
    branching = (np.repeat(counts, counts) > 1)[keep].tolist()
    for u, t, b in zip(np.repeat(starts, counts)[keep].tolist(), into[keep].tolist(), branching):
        preds.setdefault(t, []).append((u, b))
    return preds


def kept_ref(boss, colorable, rows: list[list[int]]) -> list[bool]:
    """Per implicit successor, whether its row shares a colour with the row
    of a sibling, given every colourable node's row in rank order."""
    def row(v):
        return set(rows[colorable.rank1(v) - 1])

    kept = []
    for t in implicit_candidates_ref(boss):
        (u,) = [w for w in boss.backward(t) if outdegree(boss, w) > 1]
        kept.append(any(row(t) & row(s) for _, _, s in boss.successors(u) if s != t))
    return kept


def edge_targets_ref(boss) -> list[int]:
    """Target node of every edge, 0 on closure edges, from the edge codes,
    the disambiguation flags, B and K alone: the closure edges are those
    leaving the ending nodes 2..K[1], and the target of a real edge of
    symbol c is K[c-1] (plus 1 for ``$``, whose targets skip the root) plus
    the number of unflagged real edges of symbol c up to and including it."""
    K = boss.K.tolist()
    B = boss.B
    seen = [0] * 6
    targets = []
    for pos, (c, flagged) in enumerate(
        zip(boss.E.codes().tolist(), edge_disambiguation_flags(boss).tolist()), start=1
    ):
        if 2 <= B.rank1(pos) <= K[1]:
            targets.append(0)
            continue
        seen[c] += not flagged
        targets.append(K[c - 1] + (c == 1) + seen[c])
    return targets


def walk_path(boss, read: str) -> list[int]:
    """Node ids of the $·read·$ path in the succinct index."""
    from cdbg.sequence import DUMMY, SYMBOL_CODES

    k = boss.k
    v = boss.label_to_node(DUMMY + read[: k - 2])
    path = [v]
    for ch in read[k - 2 :] + DUMMY:
        v = boss.forward(v, SYMBOL_CODES[ch])
        path.append(v)
    return path


def is_unambiguous(boss, is_colored, read: str) -> bool:
    """No pair of colored path nodes shares a predecessor that is itself on
    the path (the definitional ambiguity test)."""
    path = walk_path(boss, read)
    on_path = set(path)
    colored_on_path = {u for u in on_path if is_colored(u)}
    for v in on_path:
        if outdegree(boss, v) > 1:
            hits = sum(
                1 for _, _, t in boss.successors(v) if t in colored_on_path
            )
            if hits >= 2:
                return False
    return True


def walk_color(boss, colors, v: int, color: int) -> str | None:
    """Spell the color's string from starting node v one graph step at a
    time; None when ambiguous (the per-color reconstruction reference, on a
    full table)."""
    from cdbg.colormatrix import get_colors
    from cdbg.sequence import CODE_SYMBOLS, DUMMY

    syms = list(boss.node_label(v))
    cur = v
    steps = 0
    while not is_ending(boss, cur):
        steps += 1
        if steps > boss.edge_count + boss.k:
            return None  # color trail cycles; only possible for unsafe paths
        lo, hi = node_edge_range(boss, cur)
        if hi == lo:
            pos = lo
            target = boss.edge_target(pos)
            if target is None:
                return None  # closure edge; unreachable from a read walk
        else:
            target = None
            pos = None
            matches = 0
            for p in range(lo, hi + 1):
                t = boss.edge_target(p)
                if t is None:
                    continue
                if color in get_colors(colors, t):
                    matches += 1
                    target, pos = t, p
            if matches != 1:
                return None
        syms.append(CODE_SYMBOLS[edge_symbol(boss, pos)])
        cur = target
    return "".join(syms).strip(DUMMY)


def walk_each_pair(view, cur, col) -> list[str | None]:
    """What ``traversal._walk_lockstep`` gives, from ``traversal._walk_color``
    one (start ``cur[i]``, color ``col[i]``) pair at a time: in its place,
    ``reconstruct_all`` takes the walk that ``build_seqs`` takes."""
    from cdbg.traversal import _walk_color

    return [_walk_color(view, v, c) for v, c in zip(cur.tolist(), col.tolist())]


def hop_ref(view, v: int) -> tuple[int, int, int, list[int]]:
    """What ``traversal._hop_table`` holds for node v, one edge at a time:
    the node where the hop from v lands, its edges, the OR of the ending
    rows it crosses as a mask (bit c - 1 for color c) and the nodes it
    crosses. A hop takes a node's one out-edge, or crosses a node with two
    whose first enters an ending node with a stored row of colors up to
    64 and whose second enters an implicit successor. It stops at any
    other node, at the root or an ending node, or after k - 2 edges."""
    boss = view.graph()
    rank, empty = view._rank, view.empty
    land, taken, held, crossed = v, 0, 0, []
    while taken < boss.k - 2 and land > boss.K[1]:
        out = [t for _, _, t in boss.successors(land)]
        if len(out) == 2 and is_ending(boss, out[0]) and rank[out[1] - 1] == empty:
            if not 0 <= rank[out[0] - 1] < empty or view.mask(out[0]).bit_length() > 64:
                break
            held |= view.mask(out[0])
            crossed.append(land)
            land = out[1]
        elif len(out) == 1:
            land = out[0]
        else:
            break
        taken += 1
    return land, taken, held, crossed


def contig_assm_ref(boss, colors, v: int, x: float) -> str:
    """Assemble one contig from starting node v one graph step at a time,
    with one ``get_colors`` per color set (the assembly reference, on a
    full table). At a node of indegree > 1 the colors of each starting
    predecessor u become active; a u with two or more out-edges activates
    only those that the entered node also holds, since its strings that
    hold the others leave u by another edge."""
    from cdbg.colormatrix import get_colors
    from cdbg.errors import BadStart, BadThreshold
    from cdbg.sequence import CODE_SYMBOLS, DUMMY

    if not 0.0 < x <= 1.0:
        raise BadThreshold(f"threshold {x} outside (0, 1]")
    if not boss.is_starting(v):
        raise BadStart(f"node {v} is not a starting node")
    active: dict[int, int] = {c: v for c in get_colors(colors, v)}
    finished: set[tuple[int, int]] = set()
    syms = list(boss.node_label(v))
    cur = v
    steps = 0
    while steps <= boss.edge_count:
        steps += 1
        if indegree(boss, cur) > 1:
            for u in boss.backward(cur):
                if boss.is_starting(u):
                    here = set(get_colors(colors, cur)) if outdegree(boss, u) > 1 else None
                    for c in get_colors(colors, u):
                        if (c, u) not in finished and (here is None or c in here):
                            active[c] = u
        succ = boss.successors(cur)
        if len(succ) == 1:
            pos, sym, target = succ[0]
            if is_ending(boss, target):
                break
            syms.append(CODE_SYMBOLS[sym])
            cur = target
            continue
        if not succ:
            break  # closure-only node; unreachable from a starting walk
        succ_colors = {t: set(get_colors(colors, t)) for _, _, t in succ}
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
            (pos, sym, t)
            for pos, sym, t in succ
            if not is_ending(boss, t)
            and len(succ_colors[t] & q_keys) / len(q_keys) >= x
        ]
        for _, _, t in succ:
            if is_ending(boss, t):
                for c in succ_colors[t]:
                    if c in active:
                        finished.add((c, active.pop(c)))
        if len(candidates) != 1:
            break
        pos, sym, target = candidates[0]
        syms.append(CODE_SYMBOLS[sym])
        active = {c: s for c, s in active.items() if c in succ_colors[target]}
        cur = target
    return "".join(syms).lstrip(DUMMY)


def assemble_all_ref(boss, colors, x: float) -> list[str]:
    """``contig_assm_ref`` from every starting node, deduplicated up to
    reverse complement, longest first."""
    from cdbg.sequence import reverse_complement

    seen: set[str] = set()
    contigs: list[str] = []
    for v in boss.starting_node_ids().tolist():
        s = contig_assm_ref(boss, colors, v, x)
        canon = min(s, reverse_complement(s))
        if s and canon not in seen:
            seen.add(canon)
            contigs.append(s)
    contigs.sort(key=lambda s: (-len(s), s))
    return contigs


def scan_read_ref(boss, colorable, read: str):
    """Walk the path of $·read·$ one node at a time and return the sorted W
    and I rank lists (the per-string reference for ``coloring.scan_all``,
    whose U is I ∪ W). I keeps the starting and ending ranks, although W
    holds both."""
    from cdbg.errors import CorruptIndex
    from cdbg.sequence import DUMMY, SYMBOL_CODES

    k = boss.k
    if len(read) < k:
        raise CorruptIndex(f"read shorter than order k={k}")
    v = boss.label_to_node(DUMMY + read[: k - 2])
    if v is None:
        raise CorruptIndex("starting node missing for read prefix")

    nbits = colorable
    w_ranks: set[int] = set()
    i_ranks: set[int] = set()

    def inspect_successors(u: int) -> None:
        for _, _, t in boss.successors(u):
            if not nbits.get(t - 1):
                raise CorruptIndex(f"uncolorable successor {t} of branching node {u}")
            i_ranks.add(int(nbits.rank1(t)))

    def visit(v: int) -> None:
        # the rules hold at every path node, the ending node included
        if outdegree(boss, v) > 1:
            inspect_successors(v)
        if indegree(boss, v) > 1:
            for u in boss.backward(v):
                if outdegree(boss, u) > 1:
                    inspect_successors(u)
        if nbits.get(v - 1):
            w_ranks.add(int(nbits.rank1(v)))

    i_ranks.add(int(nbits.rank1(v)))
    for ch in read[k - 2 :] + DUMMY:
        visit(v)
        v = boss.forward(v, SYMBOL_CODES[ch])
        if v is None:
            raise CorruptIndex("read path breaks off the graph")
    visit(v)
    if not nbits.get(v - 1):
        raise CorruptIndex("path did not end on a colorable ending node")
    end_rank = int(nbits.rank1(v))
    w_ranks.add(end_rank)
    i_ranks.add(end_rank)
    return sorted(w_ranks), sorted(i_ranks)


def color_rows_ref(boss, colorable, strings: list[str]) -> tuple[list[list[int]], list[int]]:
    """Greedy colouring over sorted colour lists, one string at a time in the
    given order: each string takes the smallest colour absent from its I and
    W rows (``scan_read_ref``), inserted into every W row. Returns the rows
    in colorable-rank order and each string's colour."""
    from bisect import insort

    rows: list[list[int]] = [[] for _ in range(colorable.count)]
    read_colors = []
    for s in strings:
        w, i = scan_read_ref(boss, colorable, s)
        occupied = set()
        for r in i + w:
            occupied.update(rows[r - 1])
        color = 1
        while color in occupied:
            color += 1
        for r in w:
            insort(rows[r - 1], color)
        read_colors.append(color)
    return rows, read_colors


def table_rows(table) -> list[list[int]]:
    """Each row of a ``DynamicColorTable``, its colors in increasing order,
    derived from the masks."""
    return [[i + 1 for i in range(m.bit_length()) if m >> i & 1] for m in table.masks]


def table_from_rows(rows: list[list[int]]):
    """A ``DynamicColorTable`` holding the given colors at each colorable
    rank, in order, with no implicit successor: every row is kept."""
    from cdbg.coloring import DynamicColorTable

    table = DynamicColorTable(len(rows))
    table.masks = [sum(1 << (c - 1) for c in set(row)) for row in rows]
    return table


def compress_ref(rows: list[list[int]], colorable, candidates=(), kept=None):
    """The colour section of the given non-empty rows of the colourable
    nodes, delta-encoded one entry at a time, less the rows of the implicit
    successors ``candidates`` (node ids) that ``kept`` does not mark. By
    default every one is kept: the full table, one row per colourable
    node."""
    import numpy as np

    from cdbg.bitvectors import BitVector, MonotoneSequence
    from cdbg.colormatrix import CompressedColors

    kept = [True] * len(candidates) if kept is None else list(kept)
    implicit = [int(t) for t, keep in zip(candidates, kept) if not keep]
    bits = colorable.to_bits().copy()
    bits[np.array(implicit, dtype=np.int64) - 1] = 0
    deltas, f_bits = [], []
    for v, row in zip(np.flatnonzero(colorable.to_bits()) + 1, rows):
        if bits[v - 1]:
            f_bits += [1] + [0] * (len(row) - 1)
            deltas += [row[0]] + [b - a for a, b in zip(row, row[1:])]
    return CompressedColors(
        N=BitVector(bits),
        F=BitVector(np.array(f_bits, dtype=np.uint8)),
        payload=MonotoneSequence(np.cumsum(deltas)),
        p=int(bits.sum()),
        num_colors=max(row[-1] for row in rows),
        kept=BitVector(np.array(kept, dtype=bool)),
        implicit=np.array(implicit, dtype=np.int64),
    )


def full_colors(boss, table):
    """The full colour table of a ``color_all`` table, every implicit
    successor kept: what the walk references read."""
    return compress_ref(table_rows(table), boss.colorable, boss.implicit_candidates)


def decode_table(cc) -> list[list[int]]:
    """All rows of a colour section, in colorable-rank order, as lists."""
    from cdbg.colormatrix import decode_rows

    offsets, colors = decode_rows(cc)
    bounds, flat = offsets.tolist(), colors.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

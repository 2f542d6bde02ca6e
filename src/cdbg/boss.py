"""BOSS representation of the de Bruijn graph over reads plus reverse complements.

Construction pads every string s with k-1 dummies ``$`` in front and two
behind and takes all k-windows as edges. The first ``$`` behind s ends the
label of its ending node ``s[-(k-2):] + "$"``; the second is that node's
closure edge, a ``$`` edge with no target. So every node keeps an
outgoing edge, and the all-dummy root (node 1) is the only node without
incoming edges: target arithmetic for ``$`` skips it, and for solid
symbols the textbook BOSS arithmetic applies unchanged. An edge whose
target equals the previous same-symbol edge's target carries a
disambiguation flag and is left out of the target ranking.

Each window is a key of k base-5 digits (codes 1..5 less one): its source
(k-1)-label read right to left, then the edge symbol, so keys sort in the
colex (reverse lexicographic) order of labels with the symbol as tie-break.
A key's first uint64 word holds 27 digits (5**27 < 2**63), each later word
13. Up to k=27 a key is one word, sorted and deduplicated at once. Longer
keys fold left to right: the key so far becomes its rank among its
distinct values, shifted left 31 bits with the next word ORed in (5**13 <
2**31), and is sorted again; so fewer than 2**33 windows, and at most four
words for k <= 63. Dividing the sorted distinct keys by powers of 5 gives
the node boundaries (the key without its last digit changes), the last
label symbols, the closure edges and the label suffixes the flags compare.

Colex order puts the labels that end in ``$`` first, so the ending nodes
are exactly ids ``2..K[1]``, each owns one edge, and the closure edges are
the edge positions ``first_edge[2] .. first_edge[K[1] + 1] - 1``.

Stored, each field only where the loader cannot compute it: the edge
count, ``E`` (the edge symbols), ``B`` (a bitmap marking each node's first
edge) and the disambiguation flags, one bit per edge. k is the container
header's. The closure edges' ``$`` symbols fill a run of ``K[1] - 1``
edges that starts at the root's outdegree, so the run is its start and
length. Every other ``$`` edge enters an ending node (and, ``$`` being the
least symbol, is its node's first edge): their positions are one
bitvector over the edges outside the run. The remaining symbols are 2-bit
codes, as many as the unmarked edges. A node's edges carry strictly
increasing symbols, so a node starts at every edge whose symbol is not
greater than the previous edge's, and ``B`` is stored only at the others,
the rising edges. The loader decodes the symbols, reads ``B`` off them
and keeps neither the ``$`` positions nor the stored bits. Neither the
node count (the set bits of ``B``) nor ``K`` is stored: every label but
the root's ends in the symbol of its canonical incoming edge, so ``K``
counts those edges by symbol.

In RAM each structure is held once. ``E`` is one byte per edge and the
flags are one plain ``BitVector``, whichever encoding stores them. ``B``
is unpacked once, at build and at load, into the first-edge array, the one
node-boundary array; ``B`` itself and each edge's source are derived from
it when asked for. Also derived at build and at load, at the narrowest
width that holds an edge position: each edge's target and each node's
parent (the source of its canonical incoming edge). A node's last label
symbol is its bucket in ``K``, and its parent's label ends with its first
k-2 symbols, so a label is read by stepping from parent to parent.
A label starts with ``$`` exactly when its chain of parents reaches the
root within k-2 steps: the starting nodes are those whose (k-2)-th parent
is the root, and the solid nodes are the non-ending nodes whose chain
does not reach it. From these the colourable nodes (starting, ending and
critical nodes) are derived too, held as the implicit successors (see
``implicit_candidates``) and the bitmap of the others.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right

import numpy as np

from ._arrays import _gather, _unique
from ._binio import Fields, Pieces, Reader
from .bitvectors import BitVector, SymbolSequence
from .errors import BadLabel, BadOrder, BoundsError, CorruptIndex, EmptyIndex, IntegrityError
from .sequence import CODE_SYMBOLS, DUMMY, ReadSet, SYMBOL_CODES, encode
from .stages import stage

logger = logging.getLogger(__name__)

_HEAD_DIGITS = 27  # 5**27 < 2**63: the digits of the first key word
_TAIL_DIGITS = 13  # 5**13 < 2**31: the digits of each later word
_TAIL_BITS = np.uint64(31)

MAX_K = 63


def _word_spans(k: int) -> list[tuple[int, int]]:
    """(first digit, digit count) of each word of a k-digit key."""
    tails = range(_HEAD_DIGITS, k, _TAIL_DIGITS)
    return [(0, min(k, _HEAD_DIGITS))] + [(j, min(_TAIL_DIGITS, k - j)) for j in tails]


def _runs(digits: np.ndarray, n: int) -> np.ndarray:
    """``x[i] = sum(digits[i + t] * 5**t for t < n)`` for every i with
    i + n <= len(digits), by doubling the run length."""
    run, have = np.zeros(len(digits) + 1, dtype=np.uint64), 0
    block, width = digits.astype(np.uint64), 1  # run and block: have and width digits
    while n:
        if n & 1:
            run = run[: len(block) - have] + block[have:] * np.uint64(5**have)
            have += width
        n >>= 1
        if n:
            block = block[: len(block) - width] + block[width:] * np.uint64(5**width)
            width *= 2
    return run


def _sorted_windows(strings: list[str], k: int) -> list[np.ndarray]:
    """The distinct k-windows of the padded strings in colex order, as the
    words of their base-5 keys (see the module docstring)."""
    pad = DUMMY * (k - 1)
    digits = encode(pad + f"{DUMMY * 2}{pad}".join(strings) + DUMMY * 2) - 1
    t_count = len(digits) - k + 1
    valid = np.ones(len(digits), dtype=bool)  # windows inside one padded string
    ends = np.cumsum([len(s) + k + 1 for s in strings])
    valid[(ends[:, None] - np.arange(1, k)).ravel()] = False
    valid = valid[:t_count]

    # the label digits of the window at i are digits[i + k - 2] down to
    # digits[i], so a word's label digits are one run read backwards
    words = []
    for first, count in _word_spans(k):
        n = min(count, k - 1 - first)
        word = _runs(digits, n)[k - 1 - first - n :][:t_count]
        if first + count == k:  # the last word ends with the edge symbol
            word = word * np.uint64(5) + digits[k - 1 :]
        words.append(word[valid])

    # fold: the key so far becomes its rank among its distinct values, and
    # the next word fills the 31 bits below it
    key, levels = words[0], []
    for i in range(1, len(words)):
        order = np.argsort(key)
        key = key[order]
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        levels.append(key[new])
        words[i:] = [w[order] for w in words[i:]]
        key = (np.cumsum(new) - 1).astype(np.uint64) << _TAIL_BITS | words[i]
    key = _unique(key)
    tails = []
    for distinct in reversed(levels):
        tails.append(key & np.uint64(2**31 - 1))
        key = distinct[key >> _TAIL_BITS]
    return [key] + tails[::-1]


def _same_prefix(words: list[np.ndarray], k: int, keep: int) -> np.ndarray:
    """Mask over rows 1.. of k-digit keys, split in words: true where the
    first ``keep`` digits equal those of the row before."""
    same = np.ones(len(words[0]) - 1, dtype=bool)
    for w, (first, count) in zip(words, _word_spans(k)):
        if first < keep:
            w = w // np.uint64(5 ** max(first + count - keep, 0))
            same &= w[1:] == w[:-1]
    return same


class BossIndex(Fields):
    """Succinct de Bruijn graph of order k with node taxonomy queries.

    Node ids are 1-based ranks in BOSS (colex label) order. Edge positions
    are 1-based indices into ``E``. Attributes set at build and at load:

    * ``E``, the edge symbols (``SymbolSequence``);
    * ``K``, ``K[i]`` = number of node labels ending with a symbol < i+1
      (len 6), derived; ``K[5]`` is the node count;
    * ``implicit_candidates``, sorted ids of the implicit successors: each
      is the one solid successor of a branching node u whose other
      successors are all ending nodes, not a starting node, and the
      successor of no other branching node. A walk at u sends there every
      color that its sibling, the ending node u's $ edge enters, lacks, so
      its row is stored only where it shares a color with the sibling's
      (``coloring._shares_with_sibling`` pairs them). Derived; read-only;
    * ``explicit_colorable``, bitmap over node ids - 1 of the colourable
      nodes that are not ``implicit_candidates``: every index of this graph
      stores their rows. Derived; the only node bitmap held.

    The graph keeps no query state: traversal's view of an index
    (``traversal._IndexView``) is kept with its colors.
    """

    def __init__(self):
        raise TypeError("use BossIndex.build or container loading")

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, reads: ReadSet, k: int) -> "BossIndex":
        """The graph of the reads and their reverse complements. Logs the
        stages ``boss_sort`` (the stored structures) and ``boss_derive``."""
        if not 3 <= k <= MAX_K:
            raise BadOrder(f"order k={k} outside supported range [3, {MAX_K}]")
        kept = [r for r in reads.reads if len(r) >= k]
        if len(kept) < len(reads.reads):
            logger.warning("skipped %d reads shorter than k=%d", len(reads.reads) - len(kept), k)
        if not kept:
            raise EmptyIndex("no read of length >= k to index")
        with stage("boss_sort"):
            words = _sorted_windows(ReadSet(reads=tuple(kept)).strings_with_rc(), k)
            m = len(words[0])
            sym = (words[-1] % np.uint64(5)).astype(np.uint8) + 1
            b_bits = np.ones(m, dtype=np.uint8)  # a node starts where the label changes
            b_bits[1:] = ~_same_prefix(words, k, k - 1)
            last = (words[0] // np.uint64(5 ** (min(k, _HEAD_DIGITS) - 1))).astype(np.uint8) + 1

            # disambiguation flags: same symbol and same target as previous edge;
            # closure edges (`$` out of a label ending in `$`) have no target
            closure = (last == 1) & (sym == 1)
            minus = np.zeros(m, dtype=np.uint8)
            for c in range(1, 6):
                idx = np.flatnonzero((sym == c) & ~closure)
                if len(idx) > 1:
                    minus[idx[1:]] = _same_prefix([w[idx] for w in words], k, k - 2)

            boss = cls.__new__(cls)
            boss.k = k
            boss.E = SymbolSequence(sym, int(np.argmax(closure)), int(closure.sum()))
            boss._flags = BitVector(minus)
            boss.edge_count = m
        with stage("boss_derive"):
            boss._first_edge = _first_edges(b_bits)
            boss._build_caches(minus)
        return boss

    def _build_caches(self, minus: np.ndarray) -> None:
        """The node count, ``K`` and the navigation arrays every query
        reads, built once at build and at load from the first-edge array
        (the only node-boundary array) and the unpacked flags. The flags
        are not kept; where the caller holds no other reference to them,
        as the loader does, they are freed before the parents are lifted.
        Derived: each edge's target, each node's parent (the source of its
        canonical, real and unflagged, incoming edge), the
        starting nodes (those whose (k-2)-th parent is the root), the
        implicit successors among the solid targets of the edges of
        branching nodes, and the bitmap of the other colourable nodes: the
        starting and ending nodes and the other solid targets. The solid
        nodes are counted here too, so that no later query lifts the
        parents again. No indegree is counted: the canonical edges enter
        nodes 2, 3, ... in turn and only flagged edges repeat a target
        (``_derive_targets``), so the checks read the flagged edges and
        the count of the others."""
        width = self._first_edge.dtype.type
        n = self.node_count = len(self._first_edge) - 2
        self._codes = self.E.codes()
        ends = self.E.closure_len + 1  # the ending nodes are ids 2..K[1]
        if not 2 <= ends <= n:
            raise CorruptIndex(f"{ends - 1} closure edges, not 1 to {n - 1}: one per ending node")
        if self._first_edge[ends + 1] - self._first_edge[2] != ends - 1:
            raise CorruptIndex("an ending node does not own exactly one closure edge")
        if self._first_edge[2] - 1 != self.E.closure_start:
            raise CorruptIndex("the closure run does not start at the first ending node")
        targets, self.K, canonical = self._derive_targets(minus, width)
        if self.K[1] != ends:
            raise CorruptIndex("the $ edges do not enter every ending node")
        if len(canonical) > n - 1:  # the last one's target is len(canonical) + 1
            raise CorruptIndex("edge target rank exceeds node count")
        self._targets = targets
        targets.flags.writeable = False
        at = np.flatnonzero(minus.view(bool)).astype(width)  # the flagged edges, 0-based
        del minus
        if (targets[at] == 1).any():
            raise CorruptIndex("all-dummy root acquired incoming edges")
        if len(canonical) < n - 1:
            raise CorruptIndex("non-root node without incoming edge")
        # nodes 2..n have one canonical incoming edge each: a check of that could never fail
        self._parent = np.zeros(n + 1, dtype=width)
        sources = self.edge_sources()
        self._parent[2:] = sources[canonical]
        sources = sources[at]  # of the flagged edges: a closure edge's is an ending node
        flagged = targets[at]
        flagged = flagged[flagged > 0]  # the targets of the flagged real edges
        del canonical, at
        # a label starts with `$` when its parent chain reaches the root within
        # k-2 steps; such labels form a tree below the root: none also ends in
        # `$` (ids 2..K[1]), and no flagged edge enters one
        anc = self._ancestors(self.k - 2)
        if (anc[2 : ends + 1] < 2).any() or (anc[flagged] < 2).any():
            raise CorruptIndex("the labels with a leading $ do not form a tree below the root")
        # nor leaves one: `$` sorts first, so a flagged edge's source follows
        # a node with the same last k-2 label symbols and a smaller first one
        if (anc[sources] < 2).any():
            raise CorruptIndex("a flagged edge leaves a node whose label starts with $")
        self._starting = np.flatnonzero(anc == 1).astype(width)
        self._starting.flags.writeable = False
        # the labels without `$`: above the ending nodes and not below the
        # root within k-2 steps
        solid = anc >= 2
        solid[: ends + 1] = False
        self.solid_count = int(np.count_nonzero(solid))
        bits = np.zeros(n + 1, dtype=np.uint8)
        bits[self._starting] = 1
        bits[2 : ends + 1] = 1
        outdeg = np.diff(self._first_edge)
        branching = np.flatnonzero(outdeg > 1)
        edges, counts = _gather(self._first_edge, branching)
        succ = targets[edges - 1]
        # the other successor of a read-end branch (``_read_end_edges``) is
        # implicit when it is solid, not starting and the successor of no
        # other branching node
        t = targets[self._read_end_edges(branching[counts == 2])]
        t = t[solid[t] & (bits[t] == 0)]
        self.implicit_candidates = np.sort(t[np.bincount(succ, minlength=n + 1)[t] == 1])
        self.implicit_candidates.flags.writeable = False
        bits[succ[solid[succ]]] = 1
        bits[self.implicit_candidates] = 0
        self.explicit_colorable = BitVector(bits[1:])

    def _read_end_edges(self, two: np.ndarray) -> np.ndarray:
        """0-based positions of the second edges of the given nodes with
        two edges whose first edge is a $ edge. A node's edges carry
        increasing symbols and only $ edges enter ending nodes, so these
        are the branching nodes with one successor besides an ending
        node."""
        second = self._first_edge[two]
        return second[self._codes[second - 1] == 1]

    def _derive_targets(self, minus: np.ndarray, width: type) -> tuple[np.ndarray, ...]:
        """Target node of every edge at ``width``, 0 on closure edges,
        ``K``, and the 0-based positions of the canonical (unflagged real)
        edges by target. One stable sort of the codes lines the edges up by
        symbol, each symbol's in edge order; along it, the target rank of an
        edge is 1 plus the number of canonical edges up to and including
        it, since the labels of each symbol follow those of the smaller
        ones and the root (whose label ends in ``$``) comes first. So the
        canonical edges enter nodes 2, 3, ... in turn and a flagged edge
        the node of the one before it, or the root: only flagged edges
        repeat a target, and no indegree count is needed. ``K[c]`` is 1
        plus the number of canonical edges of symbol at most c."""
        E = self.E
        closure = slice(E.closure_start, E.closure_start + E.closure_len)
        counted = ~minus.view(bool)
        counted[closure] = False
        order = np.argsort(self._codes, kind="stable")
        counted = counted[order]
        ranks = np.zeros(self.edge_count + 1, dtype=width)  # [j]: counted among the first j
        # add.accumulate: cumsum makes a method-name string that CPython's type cache then keeps
        np.add.accumulate(counted, out=ranks[1:])
        targets = np.empty(self.edge_count, dtype=width)
        targets[order] = ranks[1:]
        targets += 1
        targets[closure] = 0
        ends = np.add.accumulate(np.bincount(self._codes, minlength=6))  # [c]: symbols <= c
        return targets, np.concatenate([[0], ranks[ends[1:]] + 1]), order[counted]

    def _ancestors(self, d: int) -> np.ndarray:
        """The d-th parent of every node, by id, 0 past the root: binary
        lifting over the parent array, widened to int64 once because int64
        gathers are faster here than int32 ones. Lifting takes about 2 log2 d
        gathers; d plain gathers made loading a k=31 index about 20% slower.
        The lowest set bit of d takes the lifted parents as they are."""
        up, anc = self._parent.astype(np.int64), None
        while d:
            if d & 1:
                anc = up if anc is None else up[anc]
            d >>= 1
            if d:
                up = up[up]
        return anc

    # -- basic accessors ---------------------------------------------------

    @property
    def B(self) -> BitVector:
        """Bitmap marking each node's first edge, built from the first-edge
        array on each access."""
        return BitVector(self._b_bits())

    def _b_bits(self) -> np.ndarray:
        """``B`` unpacked, one 0/1 byte per edge."""
        bits = np.zeros(self.edge_count, dtype=np.uint8)
        bits[self._first_edge[1:-1] - 1] = 1
        return bits

    @property
    def colorable(self) -> BitVector:
        """Bitmap over node ids - 1 of the p nodes that receive colours:
        starting, ending and critical nodes. Built on each access from
        ``explicit_colorable`` and ``implicit_candidates``."""
        bits = self.explicit_colorable.to_bits()
        bits[self.implicit_candidates - 1] = 1
        return BitVector(bits)

    def _check_node(self, v: int) -> None:
        if not 1 <= v <= self.node_count:
            raise BoundsError(f"node id {v} out of range [1, {self.node_count}]")

    # -- navigation --------------------------------------------------------

    def edge_target(self, pos: int) -> int | None:
        """Target node of the edge at 1-based position pos; None on closure."""
        return int(self._targets[pos - 1]) or None

    def edge_targets(self) -> np.ndarray:
        """Target node of every edge, indexed by position - 1; 0 on closure
        edges. The array is the graph's own and read-only."""
        return self._targets

    def edge_sources(self) -> np.ndarray:
        """Source node of every edge, indexed by position - 1; built on each
        call from the outdegrees."""
        outdeg = np.diff(self._first_edge[1:])
        return np.repeat(np.arange(1, self.node_count + 1, dtype=outdeg.dtype), outdeg)

    def forward(self, v: int, a: int | str) -> int | None:
        if isinstance(a, str):
            if a not in SYMBOL_CODES:
                raise BoundsError(f"symbol {a!r} outside alphabet")
            a = SYMBOL_CODES[a]
        if not 1 <= a <= 5:
            raise BoundsError(f"symbol code {a} outside [1, 5]")
        self._check_node(v)
        for pos in range(self._first_edge[v], self._first_edge[v + 1]):
            if self._codes[pos - 1] == a:
                return self.edge_target(pos)
        return None

    def successors(self, v: int) -> list[tuple[int, int, int]]:
        """(edge position, symbol, target) per real outgoing edge of v."""
        self._check_node(v)
        out = []
        for pos in range(self._first_edge[v], self._first_edge[v + 1]):
            t = self.edge_target(pos)
            if t is not None:
                out.append((pos, int(self._codes[pos - 1]), t))
        return out

    def backward(self, v: int) -> list[int]:
        """All predecessor node ids, in BOSS order.

        The predecessors share their last k-2 label symbols, so they are at
        most 5 consecutive nodes from the parent, the first of them; the
        edges into v are those of them whose target is v.
        """
        self._check_node(v)
        u = int(self._parent[v])
        if not u:
            return []
        bounds = self._first_edge[u : u + 6].tolist()
        hits = np.flatnonzero(self._targets[bounds[0] - 1 : bounds[-1] - 1] == v).tolist()
        return [u + bisect_right(bounds, bounds[0] + h) - 1 for h in hits]

    # -- labels ------------------------------------------------------------

    def node_label(self, v: int) -> str:
        self._check_node(v)
        K, parent = self.K.tolist(), memoryview(self._parent)
        syms: list[str] = []
        for _ in range(self.k - 1):
            if v == 1:
                break
            syms.append(CODE_SYMBOLS[bisect_left(K, v)])
            v = parent[v]
        syms.reverse()
        return DUMMY * (self.k - 1 - len(syms)) + "".join(syms)

    def node_labels(self, ids: np.ndarray) -> np.ndarray:
        """Label codes of many nodes, one row of k-1 codes per id.

        Whole-array form of ``node_label``: k-2 parent gathers over the
        requested ids only give each label's chain of nodes, and then every
        node of every chain gives its last label symbol at once, its bucket
        in ``K``. Label symbols left of the root are ``$``.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 1 or ids.max() > self.node_count):
            raise BoundsError(f"node id out of range [1, {self.node_count}]")
        chain = np.empty((self.k - 1, len(ids)), dtype=np.int64)
        chain[-1] = ids
        for j in range(self.k - 2, 0, -1):
            chain[j - 1] = self._parent[chain[j]]
        # a node's bucket is 1 plus the bounds K[1..4] below it; the root's
        # is `$`, and so is 0, which the chain holds past the root
        codes = np.ones(chain.shape, dtype=np.uint8)
        for bound in self.K[1:5].tolist():
            codes += chain > bound
        return np.ascontiguousarray(codes.T)

    def label_to_node(self, label: str) -> int | None:
        """The node whose label is ``label``, or None: a binary search over
        the colex-sorted labels. A probe compares the labels from their last
        symbols back, stepping from parent to parent as ``node_label`` does
        (the root and every step past it read ``$``), and stops at the first
        symbol that differs, so only a match reads all k-1 symbols."""
        if len(label) != self.k - 1:
            raise BadLabel(f"label length {len(label)} != k-1 = {self.k - 1}")
        if any(ch not in SYMBOL_CODES for ch in label):
            raise BadLabel(f"label {label!r} contains symbols outside the alphabet")
        K, parent = self.K.tolist(), memoryview(self._parent)
        want = [SYMBOL_CODES[ch] for ch in reversed(label)]

        def differ(v: int) -> int:  # the sign of node v's label against label, colex
            for c in want:
                # v's last symbol is its bucket in K; 0, past the root, reads `$`
                if d := (bisect_left(K, v) or 1) - c:
                    return d
                v = parent[v]
            return 0

        lo, hi = 1, self.node_count + 1  # the first node whose label is not below
        while lo < hi:
            mid = (lo + hi) // 2
            if differ(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        return lo if lo <= self.node_count and not differ(lo) else None

    # -- taxonomy ----------------------------------------------------------

    def is_starting(self, v: int) -> bool:
        self._check_node(v)
        starts = memoryview(self._starting)
        i = bisect_left(starts, v)
        return i < len(starts) and starts[i] == v

    def starting_node_ids(self) -> np.ndarray:
        """Sorted ids of the starting nodes; the graph's own array."""
        return self._starting

    # -- serialization -----------------------------------------------------

    def pieces(self) -> Pieces:
        """The stored fields; ``B`` only at the rising edges."""
        return {
            "edge_count": lambda w: w.u64(self.edge_count),
            **self.E.pieces(),
            "B": BitVector(self._b_bits()[_rising(self._codes)]).serialize,
            "flags": self._flags.serialize,
        }

    @classmethod
    def deserialize(cls, r: Reader, k: int) -> "BossIndex":
        """The graph section of an index of order k."""
        if not 3 <= k <= MAX_K:
            raise IntegrityError(f"order k={k} outside [3, {MAX_K}]")
        boss = cls.__new__(cls)
        boss.k = k
        m = boss.edge_count = r.u64()
        boss.E = SymbolSequence.deserialize(r, m)
        rising = _rising(boss.E.codes())
        b = BitVector.deserialize(r, len(rising))
        boss._flags = BitVector.deserialize(r, m)
        b_bits = np.ones(m, dtype=np.uint8)
        b_bits[rising] = b.to_bits()
        del rising
        boss._first_edge = _first_edges(b_bits)
        del b_bits  # neither is alive while the parents are lifted
        try:
            boss._build_caches(boss._flags.to_bits())
        except CorruptIndex as exc:
            raise IntegrityError(f"graph section: {exc}") from exc
        return boss


def _first_edges(b_bits: np.ndarray) -> np.ndarray:
    """The first-edge array of the unpacked ``B``: 0, each node's first
    edge position, and one past the last edge, at the narrowest width that
    holds an edge position."""
    m = len(b_bits)
    width = np.int32 if m < 2**31 - 1 else np.int64
    return np.concatenate([[0], np.flatnonzero(b_bits.view(bool)) + 1, [m + 1]], dtype=width)


def _rising(codes: np.ndarray) -> np.ndarray:
    """Positions of the edges whose symbol exceeds the previous edge's. A
    node's edges carry strictly increasing symbols, so a node starts at
    every other edge, and only there does ``B`` need a stored bit."""
    return np.flatnonzero(codes[1:] > codes[:-1]) + 1


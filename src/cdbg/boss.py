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

from ._arrays import _unique
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
    are 1-based indices into ``E``.

    ``_query`` is traversal's slot for its view of the graph
    (``traversal._GraphView``), empty after build and after load.
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
            boss._E = SymbolSequence(sym, int(np.argmax(closure)), int(closure.sum()))
            boss._flags = BitVector(minus)
            boss.edge_count = m
        with stage("boss_derive"):
            boss._build_caches(b_bits, minus)
        return boss

    def _build_caches(self, b_bits: np.ndarray, minus: np.ndarray) -> None:
        """The node count, ``K`` and the navigation arrays every query
        reads, built once at build and at load from the unpacked ``B`` and
        flags, which are not kept: each node's first edge (the only
        node-boundary array), each edge's target, each node's parent (the
        source of its canonical, real and unflagged, incoming edge), the
        starting nodes (those whose (k-2)-th parent is the root), the
        implicit successors among the solid targets of the edges of
        branching nodes, and the bitmap of the other colourable nodes: the
        starting and ending nodes and the other solid targets. The solid
        nodes are counted here too, so that no later query lifts the
        parents again."""
        m = self.edge_count
        width = np.int32 if m < 2**31 - 1 else np.int64
        first = np.flatnonzero(b_bits.view(bool)) + 1
        self._first_edge = np.concatenate([[0], first, [m + 1]]).astype(width)
        n = self.node_count = len(self._first_edge) - 2
        self._codes = self._E.codes()
        ends = self._E.closure_len + 1  # the ending nodes are ids 2..K[1]
        if not 2 <= ends <= n:
            raise CorruptIndex(f"{ends - 1} closure edges, not 1 to {n - 1}: one per ending node")
        if self._first_edge[ends + 1] - self._first_edge[2] != ends - 1:
            raise CorruptIndex("an ending node does not own exactly one closure edge")
        if self._first_edge[2] - 1 != self._E.closure_start:
            raise CorruptIndex("the closure run does not start at the first ending node")
        targets, self._kcum = self._derive_targets(minus)
        if self._kcum[1] != ends:
            raise CorruptIndex("the $ edges do not enter every ending node")
        if len(targets) and targets.max() > n:
            raise CorruptIndex("edge target rank exceeds node count")
        self._targets = targets.astype(width)
        self._targets.flags.writeable = False
        indeg = np.bincount(targets, minlength=n + 1)
        if indeg[1] != 0:
            raise CorruptIndex("all-dummy root acquired incoming edges")
        if n > 1 and indeg[2:].min() < 1:
            raise CorruptIndex("non-root node without incoming edge")
        canonical = np.flatnonzero((targets > 0) & (minus == 0))
        sources = self.edge_sources()
        self._parent = np.zeros(n + 1, dtype=width)
        self._parent[targets[canonical]] = sources[canonical]
        if len(canonical) != n - 1 or not self._parent[2:].all():
            raise CorruptIndex("a node lacks a canonical incoming edge")
        # a label starts with `$` when its parent chain reaches the root
        # within k-2 steps; such labels form a tree below the root
        anc = self._ancestors(self.k - 2)
        dollar = np.flatnonzero(anc[2:] < 2) + 2
        if len(dollar) and (dollar.min() <= ends or (indeg[dollar] != 1).any()):
            raise CorruptIndex("the labels with a leading $ do not form a tree below the root")
        self._starting = np.flatnonzero(anc == 1).astype(width)
        self._starting.flags.writeable = False
        bits = np.zeros(n + 1, dtype=np.uint8)
        bits[self._starting] = 1
        bits[2 : ends + 1] = 1
        solid = self._solid(anc)
        self.solid_count = int(solid.sum())
        succ = targets[_branch_edges(self, sources)]
        # the other successor of a read-end branch (``_read_end_edges``) is
        # implicit when it is solid, not starting and the successor of no
        # other branching node
        t = self._targets[self._read_end_edges()]
        t = t[solid[t] & (bits[t] == 0)]
        self._implicit = np.sort(t[np.bincount(succ, minlength=n + 1)[t] == 1])
        self._implicit.flags.writeable = False
        bits[succ[solid[succ]]] = 1
        bits[self._implicit] = 0
        self._explicit = BitVector(bits[1:])
        self._query = None  # see the class docstring

    def _read_end_edges(self) -> np.ndarray:
        """0-based positions of the second edges of the nodes with two
        edges, the first a $ edge. A node's edges carry increasing symbols
        and only $ edges enter ending nodes, so these nodes are the
        branching nodes with one successor besides an ending node."""
        second = self._first_edge[np.flatnonzero(np.diff(self._first_edge) == 2)]
        return second[self._codes[second - 1] == 1]

    def _derive_targets(self, minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Target node of every edge, 0 on closure edges, and ``K``. One
        stable sort of the codes lines the edges up by symbol, each symbol's
        in edge order; along it, the target rank of an edge is 1 plus the
        number of unflagged real edges up to and including it, since the
        labels of each symbol follow those of the smaller ones and the root
        (whose label ends in ``$``) comes first. ``K[c]`` is 1 plus the
        number of unflagged real edges of symbol at most c."""
        E = self._E
        closure = slice(E.closure_start, E.closure_start + E.closure_len)
        counted = ~minus.view(bool)
        counted[closure] = False
        order = np.argsort(self._codes, kind="stable")
        ranks = np.zeros(self.edge_count + 1, dtype=np.int64)  # [j]: counted among the first j
        np.cumsum(counted[order], out=ranks[1:])
        targets = np.empty(self.edge_count, dtype=np.int64)
        targets[order] = ranks[1:] + 1
        targets[closure] = 0
        ends = np.cumsum(np.bincount(self._codes, minlength=6))  # [c]: the edges of symbol <= c
        return targets, np.concatenate([[0], ranks[ends[1:]] + 1])

    def _ancestors(self, d: int) -> np.ndarray:
        """The d-th parent of every node, by id, 0 past the root: binary
        lifting over the parent array, widened to int64 once because int64
        gathers are faster here than int32 ones. Lifting takes about 2 log2 d
        gathers; d plain gathers made loading a k=31 index about 20% slower."""
        up = self._parent.astype(np.int64)
        anc = np.arange(self.node_count + 1)
        while d:
            if d & 1:
                anc = up[anc]
            d >>= 1
            if d:
                up = up[up]
        return anc

    def _solid(self, anc: np.ndarray) -> np.ndarray:
        """Mask over ids 0..n of the labels without ``$``, from the
        (k-2)-th parents: above the ending nodes and not below the root
        within k-2 steps."""
        solid = anc >= 2
        solid[: self._kcum[1] + 1] = False
        return solid

    # -- basic accessors ---------------------------------------------------

    @property
    def E(self) -> SymbolSequence:
        return self._E

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
        if not len(self._implicit):
            return self._explicit
        bits = self._explicit.to_bits()
        bits[self._implicit - 1] = 1
        return BitVector(bits)

    @property
    def explicit_colorable(self) -> BitVector:
        """Bitmap over node ids - 1 of the colourable nodes that are not
        ``implicit_candidates``: every index of this graph stores their
        rows. Derived at build and at load; the only node bitmap held."""
        return self._explicit

    @property
    def implicit_candidates(self) -> np.ndarray:
        """Sorted ids of the implicit successors: each is the one solid
        successor of a branching node u whose other successors are all
        ending nodes, not a starting node, and the successor of no other
        branching node. A walk at u sends there every color that no ending
        successor holds, so its row is stored only where it shares a color
        with a sibling's. Derived at build and at load; the graph's own,
        read-only array."""
        return self._implicit

    def implicit_siblings(self) -> np.ndarray:
        """The sibling of each of ``implicit_candidates``, in their order:
        the ending node that the $ edge of its branching node enters.
        Derived on each call."""
        implicit = np.zeros(self.node_count + 1, dtype=bool)
        implicit[self._implicit] = True
        second = self._read_end_edges()
        second = second[implicit[self._targets[second]]]
        return self._targets[second[np.argsort(self._targets[second])] - 1]

    @property
    def K(self) -> np.ndarray:
        """K[i] = number of node labels ending with a symbol < i+1 (len 6),
        derived at build and at load; ``K[5]`` is the node count."""
        return self._kcum

    @property
    def edge_disambiguation_flags(self) -> np.ndarray:
        """One 0/1 byte per edge, unpacked from the flags on each access."""
        return self._flags.to_bits()

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
        K, parent = self._kcum.tolist(), memoryview(self._parent)
        syms: list[str] = []
        cur = v
        while cur != 1 and len(syms) < self.k - 1:
            syms.append(CODE_SYMBOLS[bisect_left(K, cur)])
            cur = parent[cur]
        pad = DUMMY * (self.k - 1 - len(syms))
        return pad + "".join(reversed(syms))

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
        for bound in self._kcum[1:5].tolist():
            codes += chain > bound
        return np.ascontiguousarray(codes.T)

    def label_to_node(self, label: str) -> int | None:
        if len(label) != self.k - 1:
            raise BadLabel(f"label length {len(label)} != k-1 = {self.k - 1}")
        if any(ch not in SYMBOL_CODES for ch in label):
            raise BadLabel(f"label {label!r} contains symbols outside the alphabet")
        n = self.node_count  # binary search over the colex-sorted labels
        i = bisect_left(range(1, n + 1), label[::-1], key=lambda v: self.node_label(v)[::-1])
        return i + 1 if i < n and self.node_label(i + 1) == label else None

    # -- taxonomy ----------------------------------------------------------

    def is_starting(self, v: int) -> bool:
        self._check_node(v)
        i = int(np.searchsorted(self._starting, v))
        return i < len(self._starting) and int(self._starting[i]) == v

    def starting_node_ids(self) -> np.ndarray:
        """Sorted ids of the starting nodes; the graph's own array."""
        return self._starting

    def solid_mask(self) -> np.ndarray:
        """One bool per node, indexed by id - 1: true on labels without
        ``$``. Computed from the (k-2)-th parents on each call; their
        count is ``solid_count``, kept from build or load."""
        return self._solid(self._ancestors(self.k - 2))[1:]

    # -- serialization -----------------------------------------------------

    def _rising_bits(self) -> BitVector:
        """``B`` at the rising edges, the only bits that are stored."""
        return BitVector(self._b_bits()[_rising(self._codes)])

    def pieces(self) -> Pieces:
        return {
            "edge_count": lambda w: w.u64(self.edge_count),
            **self._E.pieces(),
            "B": self._rising_bits().serialize,
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
        boss._E = SymbolSequence.deserialize(r, m)
        rising = _rising(boss._E.codes())
        b = BitVector.deserialize(r, len(rising))
        boss._flags = BitVector.deserialize(r, m)
        b_bits = np.ones(m, dtype=np.uint8)
        b_bits[rising] = b.to_bits()
        try:
            boss._build_caches(b_bits, boss._flags.to_bits())
        except CorruptIndex as exc:
            raise IntegrityError(f"graph section: {exc}") from exc
        return boss


def _rising(codes: np.ndarray) -> np.ndarray:
    """Positions of the edges whose symbol exceeds the previous edge's. A
    node's edges carry strictly increasing symbols, so a node starts at
    every other edge, and only there does ``B`` need a stored bit."""
    return np.flatnonzero(codes[1:] > codes[:-1]) + 1


def _branch_edges(boss: BossIndex, sources: np.ndarray) -> np.ndarray:
    """Mask over edges, given each edge's source: the edges leaving a node
    of outdegree > 1. None of them is a closure edge, which is its ending
    node's only edge."""
    return np.diff(boss._first_edge)[sources] > 1

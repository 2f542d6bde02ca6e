from dataclasses import replace

import numpy as np
import pytest

from cdbg.bitvectors import BitVector
from cdbg.boss import BossIndex
from cdbg.coloring import (
    DynamicColorTable,
    assign_color,
    color_all,
    mark_colorable,
    scan_all,
    scan_read,
)
from cdbg.colormatrix import compress
from cdbg.errors import CorruptIndex, IncompleteColoring
from cdbg._binio import Writer
from cdbg.sequence import ReadSet
from cdbg.synthetic import SyntheticConfig, generate_reads
from cdbg.traversal import reconstruct_all

from conftest import mixed_read_set, random_read_set, wide_read_set
from oracle import (
    NaiveDbg,
    color_rows_ref,
    compress_ref,
    edge_targets_ref,
    implicit_candidates_ref,
    is_unambiguous,
    kept_ref,
    outdegree,
    scan_read_ref,
)


def labels_of_ranks(boss, colorable, ranks):
    ones = colorable.ones_positions()
    return {boss.node_label(int(ones[r - 1]) + 1) for r in ranks}


def ref_rows(boss, colorable, s):
    """The oracle's W and I ∪ W of one string: the two rank lists the
    greedy step reads."""
    w, i = scan_read_ref(boss, colorable, s)
    return w, sorted(set(i) | set(w))


def scan_rows(scan, n):
    """Each string's W and U from ``scan_all``'s flat lists and bounds."""
    w, w_bounds, u, u_bounds = scan
    assert len(w_bounds) == len(u_bounds) == n + 1
    return [
        (w[w_bounds[i] : w_bounds[i + 1]], u[u_bounds[i] : u_bounds[i + 1]]) for i in range(n)
    ]


@pytest.fixture(scope="module")
def e1():
    boss = BossIndex.build(ReadSet.from_reads(["tacgt"]), k=4)
    colorable = mark_colorable(boss)
    return boss, colorable


class TestMarkColorable:
    def test_worked_example(self, e1):
        boss, colorable = e1
        assert colorable.count == 5
        labels = {
            boss.node_label(int(pos) + 1) for pos in colorable.ones_positions()
        }
        assert labels == {"$ta", "$ac", "gta", "gt$", "ta$"}

    def test_matches_definition_on_oracle(self, e1):
        boss, colorable = e1
        want = set(NaiveDbg(["tacgt", "acgta"], 4).colorable_labels())
        got = {boss.node_label(int(pos) + 1) for pos in colorable.ones_positions()}
        assert got == want

    def test_straight_line_read_marks_only_endpoints(self):
        boss = BossIndex.build(ReadSet.from_reads(["aacctg"]), k=4)
        colorable = mark_colorable(boss)
        labels = {
            boss.node_label(int(pos) + 1) for pos in colorable.ones_positions()
        }
        # two strands, each contributing its starting and ending node
        assert labels == {"$aa", "tg$", "$ca", "tt$"}
        assert colorable.count == 4


class TestScanRead:
    def test_first_strand(self, e1):
        boss, colorable = e1
        w, i = scan_read_ref(boss, colorable, "tacgt")
        assert scan_read(boss, colorable, "tacgt") == ref_rows(boss, colorable, "tacgt")
        assert labels_of_ranks(boss, colorable, w) == {"$ta", "gt$"}
        assert labels_of_ranks(boss, colorable, i) >= {"$ta", "gta", "gt$"}

    def test_second_strand(self, e1):
        boss, colorable = e1
        w, i = scan_read_ref(boss, colorable, "acgta")
        assert labels_of_ranks(boss, colorable, w) == {"$ac", "gta", "ta$"}
        assert labels_of_ranks(boss, colorable, i) >= {"$ac", "gta", "gt$", "ta$"}

    def test_straight_line_w_equals_i(self):
        boss = BossIndex.build(ReadSet.from_reads(["aacctg"]), k=4)
        colorable = mark_colorable(boss)
        w, i = scan_read_ref(boss, colorable, "aacctg")
        assert labels_of_ranks(boss, colorable, w) == {"$aa", "tg$"}
        assert labels_of_ranks(boss, colorable, i) == {"$aa", "tg$"}


class TestAssignColor:
    def test_first_read_gets_color_one(self):
        table = DynamicColorTable(3)
        assert assign_color([1, 3], [1, 2, 3], table) == 1
        assert table.rows == [[1], [], [1]]

    def test_occupied_colors_skipped(self):
        table = DynamicColorTable.from_rows([[1, 2], [4]])
        assert assign_color([2], [1, 2], table) == 3
        assert table.rows[1] == [3, 4]

    def test_e1_order(self, e1):
        boss, colorable = e1
        table = DynamicColorTable(colorable.count)
        assert assign_color(*ref_rows(boss, colorable, "tacgt"), table) == 1
        assert assign_color(*ref_rows(boss, colorable, "acgta"), table) == 2


class TestColorAll:
    def test_e1_table(self, e1):
        boss, colorable = e1
        table = color_all(boss, colorable, ReadSet.from_reads(["tacgt"]))
        by_label = {
            boss.node_label(int(pos) + 1): row
            for pos, row in zip(colorable.ones_positions(), table.rows)
        }
        assert by_label == {
            "$ta": [1],
            "$ac": [2],
            "gta": [2],
            "gt$": [1],
            "ta$": [2],
        }
        assert table.read_colors == [1, 2]

    def test_determinism_across_threads(self, e1):
        boss, colorable = e1
        reads = ReadSet.from_reads(["tacgt"])
        tables = [color_all(boss, colorable, reads, threads=t) for t in (1, 3, 8)]
        assert tables[0] == tables[1] == tables[2]

    def test_disjoint_reads_share_color_one(self):
        reads = ReadSet.from_reads(["aaccaa", "gagaga"])
        boss = BossIndex.build(reads, k=4)
        colorable = mark_colorable(boss)
        # precondition: solid paths are disjoint across all four strands
        strings = reads.strings_with_rc()
        kmer_sets = [
            {s[i : i + 3] for i in range(len(s) - 2)} for s in strings
        ]
        for a in range(len(kmer_sets)):
            for b in range(a + 1, len(kmer_sets)):
                assert not (kmer_sets[a] & kmer_sets[b])
        table = color_all(boss, colorable, reads)
        assert set(table.read_colors) == {1}

    def test_economy_bound(self, e1):
        boss, colorable = e1
        table = color_all(boss, colorable, ReadSet.from_reads(["tacgt"]))
        assert table.num_colors <= 2  # |R'| strings

    def test_table_shape(self, e1):
        boss, colorable = e1
        table = color_all(boss, colorable, ReadSet.from_reads(["tacgt"]))
        assert table.p == colorable.count
        for row in table.rows:
            assert row == sorted(set(row))

    def test_both_strands_colored(self):
        reads = ReadSet.from_reads(["ccgtaat"])
        boss = BossIndex.build(reads, k=4)
        colorable = mark_colorable(boss)
        table = color_all(boss, colorable, reads)
        assert len(table.read_colors) == 2


def path_is_safe(boss, cc_get, read, color):
    """Every branching node on the read's path has exactly one successor
    bearing the read's color."""
    from cdbg.sequence import DUMMY, SYMBOL_CODES

    k = boss.k
    v = boss.label_to_node(DUMMY + read[: k - 2])
    for ch in read[k - 2 :] + DUMMY:
        if outdegree(boss, v) > 1:
            hits = 0
            for _, _, t in boss.successors(v):
                if color in cc_get(t):
                    hits += 1
            if hits != 1:
                return False
        v = boss.forward(v, SYMBOL_CODES[ch])
    return True


def table_color_lookup(colorable, table):
    def lookup(v):
        if not colorable.get(v - 1):
            return []
        return table.rows[colorable.rank1(v) - 1]

    return lookup


def test_safety_on_random_sets():
    rng = np.random.default_rng(123)
    for trial in range(12):
        k = [5, 9, 15][trial % 3]
        n = int(rng.integers(4, 16))
        raw = [
            "".join(rng.choice(list("acgt"), size=int(rng.integers(20, 45))))
            for _ in range(n)
        ]
        reads = ReadSet.from_reads(raw)
        boss = BossIndex.build(reads, k=k)
        colorable = mark_colorable(boss)
        table = color_all(boss, colorable, reads)
        lookup = table_color_lookup(colorable, table)
        strings = [s for s in reads.strings_with_rc() if len(s) >= k]
        for s, color in zip(strings, table.read_colors):
            # safety is only promised for unambiguous reads
            if is_unambiguous(boss, lambda v: colorable.get(v - 1), s):
                assert path_is_safe(boss, lookup, s, color), s


def repeats_a_k_minus_2_mer(strings, k) -> bool:
    return any(
        len({s[i : i + k - 2] for i in range(len(s) - k + 3)}) < len(s) - k + 3 for s in strings
    )


def shared_color_branches(boss, table) -> tuple[int, list[str]]:
    """The number of starting and solid branching nodes, and the labels of
    those with two real successors whose colour rows intersect."""
    bits = boss.colorable.to_bits().astype(bool)
    rank = np.cumsum(bits)
    targets = boss.edge_targets()
    real = targets != 0
    successors = {}
    for u, t in zip(boss.edge_sources()[real].tolist(), targets[real].tolist()):
        successors.setdefault(u, []).append(t)
    solid, starting = boss.solid_mask(), set(boss.starting_node_ids().tolist())
    checked, shared = 0, []
    for u, ts in successors.items():
        if len(ts) < 2 or not (solid[u - 1] or u in starting):
            continue
        checked += 1
        entries = [c for t in ts if bits[t - 1] for c in table.rows[rank[t - 1] - 1]]
        if len(entries) > len(set(entries)):
            shared.append(boss.node_label(u))
    return checked, shared


def guarantee_sets(ks):
    for k in ks:
        for seed in range(20 if k < 10 else 10):
            yield k, mixed_read_set(seed, k)
            if k < 10:
                rng = np.random.default_rng(seed)
                yield k, ReadSet.from_reads(random_read_set(rng, int(rng.integers(3, 9)), k, k + 12))


@pytest.mark.parametrize("ks", [range(4, 10), (15, 31, 63)], ids=["k4-9", "k15-63"])
def test_no_branch_passes_a_colour_to_two_successors(ks):
    # what the reconstruction walks and assembly's stop rule rely on: when
    # no string of R' holds a (k-2)-mer twice, a colour leaves a branching
    # node by one real successor only
    checked = 0
    for k, reads in guarantee_sets(ks):
        if repeats_a_k_minus_2_mer([s for s in reads.strings_with_rc() if len(s) >= k], k):
            continue
        boss = BossIndex.build(reads, k)
        n, shared = shared_color_branches(boss, color_all(boss, boss.colorable, reads))
        assert shared == [], (k, reads.reads)
        checked += n
    assert checked >= 100


def test_a_repeated_k_minus_2_mer_passes_a_colour_to_two_successors():
    # "aatt" occurs twice in the read, so its colour leaves "aatta" (and the
    # reverse complement's leaves "ttaat") by two successors
    reads = ReadSet.from_reads(["ccgtaattcaggaattaatc"])
    boss = BossIndex.build(reads, 6)
    table = color_all(boss, boss.colorable, reads)
    assert sorted(shared_color_branches(boss, table)[1]) == ["aatta", "ttaat"]
    report = reconstruct_all(boss, compress(table, boss.colorable))
    assert report.recovered == []
    assert report.ambiguous_count == 2


def serialized(colors) -> bytes:
    w = Writer()
    colors.serialize(w)
    return w.getvalue()


def assert_coloring_matches_references(reads, boss, colorable, strings) -> DynamicColorTable:
    """``color_all`` equals the sequential ``scan_read_ref`` + ``assign_color``
    pass and the sorted-list reference, with the implicit successors and
    the ones that keep their rows derived one node at a time, and its
    compressed colour section serializes to the bytes of the reference
    rows, less the dropped ones, delta-encoded entry by entry."""
    got = color_all(boss, colorable, reads)
    want = DynamicColorTable(colorable.count)
    for s in strings:
        want.read_colors.append(assign_color(*ref_rows(boss, colorable, s), want))
    rows, read_colors = color_rows_ref(boss, colorable, strings)
    want.candidates = np.array(implicit_candidates_ref(boss), dtype=np.int64)
    want.kept = np.array(kept_ref(boss, colorable, rows), dtype=bool)
    assert got == want
    assert (got.rows, got.read_colors) == (rows, read_colors)
    v7 = compress_ref(rows, colorable, want.candidates, want.kept)
    assert serialized(compress(got, colorable)) == serialized(v7)
    return got


def test_palindrome_without_branches_matches_references():
    # "acgt" is its own reverse complement: one string and no branching
    # node, so no successor is inspected and the inspected keys are empty
    reads = ReadSet.from_reads(["acgt"])
    boss = BossIndex.build(reads, k=3)
    colorable = mark_colorable(boss)
    table = assert_coloring_matches_references(reads, boss, colorable, reads.strings_with_rc())
    assert table.rows == [[1], [1]]


@pytest.fixture(scope="module")
def wide():
    reads = wide_read_set()
    boss = BossIndex.build(reads, 9)
    return reads, boss, mark_colorable(boss), reads.strings_with_rc()


class TestWideRows:
    def test_color_all_matches_references(self, wide):
        table = assert_coloring_matches_references(*wide)
        assert table.num_colors == 80
        assert max(len(row) for row in table.rows) == 80

    @pytest.mark.parametrize("which", ["widest", "last"])
    def test_empty_row_raises(self, wide, which):
        reads, boss, colorable, _ = wide
        rows = color_all(boss, colorable, reads).rows
        r = max(range(len(rows)), key=lambda i: len(rows[i])) if which == "widest" else len(rows) - 1
        rows[r] = []
        with pytest.raises(IncompleteColoring, match=f"colorable rank {r + 1} received no color"):
            compress(DynamicColorTable.from_rows(rows), colorable)


@pytest.mark.parametrize("seed, k", [(seed, k) for seed in (1, 2) for k in (9, 15)])
def test_reads_with_substitutions_match_references(seed, k):
    # the read sets of test_traversal.py's error_indexes: error tips and
    # bubbles give many branching nodes and nodes of indegree > 1
    cfg = SyntheticConfig(genome_len=300, read_len=40, coverage=6, seed=seed, error_rate=0.02)
    raw, clean = generate_reads(cfg)[1], generate_reads(replace(cfg, error_rate=0.0))[1]
    assert sum(r != c for r, c in zip(raw, clean)) >= len(raw) // 2  # reads with an error
    reads = ReadSet.from_reads(raw)
    boss = BossIndex.build(reads, k)
    strings = [s for s in reads.strings_with_rc() if len(s) >= k]
    assert_coloring_matches_references(reads, boss, mark_colorable(boss), strings)


@pytest.fixture(scope="module", params=[(seed, k) for k in (3, 4, 9, 31, 63) for seed in (1, 2)])
def mixed(request):
    seed, k = request.param
    reads = mixed_read_set(seed, k)
    boss = BossIndex.build(reads, k)
    strings = [s for s in reads.strings_with_rc() if len(s) >= k]
    return reads, boss, mark_colorable(boss), strings


class TestArrayScanMatchesReference:
    def test_mark_colorable_matches_oracle(self, mixed):
        _, boss, colorable, strings = mixed
        got = {boss.node_label(int(pos) + 1) for pos in colorable.ones_positions()}
        assert got == set(NaiveDbg(strings, boss.k).colorable_labels())
        assert colorable.count == len(got)

    def test_scan_all_matches_scan_read(self, mixed):
        _, boss, colorable, strings = mixed
        want = [ref_rows(boss, colorable, s) for s in strings]
        assert scan_rows(scan_all(boss, colorable, strings), len(strings)) == want

    def test_color_all_matches_sequential_reference(self, mixed):
        assert_coloring_matches_references(*mixed)

    def test_raises_where_scan_read_raises(self, mixed):
        # clearing critical-node bits makes some inspected successors
        # uncolorable, and clearing ending-node bits some path ends; only
        # strings whose path inspects or ends on such a node may fail
        _, boss, colorable, strings = mixed
        bits = colorable.to_bits().copy()
        bits[np.flatnonzero(bits & boss.solid_mask())[::2]] = 0
        bits[np.arange(1, boss.K[1])[::3]] = 0  # ending nodes are ids 2..K[1]
        damaged = BitVector(bits)
        for s in strings:
            try:
                want = ref_rows(boss, damaged, s)
            except CorruptIndex:
                with pytest.raises(CorruptIndex):
                    scan_all(boss, damaged, [s])
            else:
                assert scan_rows(scan_all(boss, damaged, [s]), 1) == [want]


@pytest.mark.parametrize(
    "foreign",
    [
        "gggggg",  # no starting node for its prefix
        "taccgt",  # leaves the graph after the starting node
        "tacg",  # on the graph, but "cg" is no ending node
    ],
)
def test_color_all_rejects_read_not_in_graph(e1, foreign):
    boss, colorable = e1
    with pytest.raises(CorruptIndex):
        color_all(boss, colorable, ReadSet.from_reads([foreign]))


def test_scan_on_a_graph_past_int32_keys():
    # 51,067 nodes: node * (n + 1) + target no longer fits in int32, and the
    # navigation arrays are stored narrow, so the scan must widen them
    _, reads = generate_reads(SyntheticConfig(genome_len=9000, read_len=100, coverage=10, seed=0))
    rs = ReadSet.from_reads(reads)
    boss = BossIndex.build(rs, k=25)
    assert boss.node_count > 46_341
    assert boss.edge_targets().tolist() == edge_targets_ref(boss)
    colorable = mark_colorable(boss)
    strings = rs.strings_with_rc()
    picked = np.random.default_rng(5).choice(len(strings), size=50, replace=False)
    sample = [strings[i] for i in sorted(picked)]
    got = scan_rows(scan_all(boss, colorable, sample), len(sample))
    for i, s in enumerate(sample):
        assert got[i] == ref_rows(boss, colorable, s), i

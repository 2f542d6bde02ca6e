import dataclasses
import gc
import sys
import weakref

import numpy as np
import pytest

from cdbg import traversal
from cdbg.bitvectors import BitVector, MonotoneSequence
from cdbg.boss import BossIndex
from cdbg.coloring import DynamicColorTable, color_all, mark_colorable
from cdbg.colormatrix import CompressedColors, compress, get_colors
from cdbg.container import IndexMeta, deserialize_index, read_index, serialize_index, write_index
from cdbg.errors import BadStart, BadThreshold, NotColored
from cdbg.sequence import ReadSet, reverse_complement
from cdbg.synthetic import SyntheticConfig, generate_reads
from cdbg.traversal import (
    StartReport,
    assemble_all,
    build_seqs,
    contig_assm,
    reconstruct_all,
)

from conftest import mixed_read_set, random_read_set, wide_read_set
from oracle import (
    assemble_all_ref,
    compress_ref,
    contig_assm_ref,
    decode_table,
    full_colors,
    is_unambiguous,
    walk_color,
)


def index_for(raw_reads, k):
    """The reads, their graph and colors, and the full table of those
    colors, with every row, that the references read."""
    reads = ReadSet.from_reads(raw_reads)
    boss = BossIndex.build(reads, k=k)
    colorable = mark_colorable(boss)
    table = color_all(boss, colorable, reads)
    return reads, boss, compress(table, colorable), full_colors(boss, table)


class TestBuildSeqs:
    def test_worked_example(self):
        _, boss, colors, _ = index_for(["tacgt"], 4)
        assert build_seqs(boss, colors, boss.label_to_node("$ta")) == ["tacgt"]
        assert build_seqs(boss, colors, boss.label_to_node("$ac")) == ["acgta"]

    def test_bad_start(self):
        _, boss, colors, _ = index_for(["tacgt"], 4)
        with pytest.raises(BadStart):
            build_seqs(boss, colors, boss.label_to_node("acg"))

    def test_repeated_context_read_aborts(self):
        # single read X·b·X·c with X = "ac": both successors of the repeated
        # node carry the read's only color, so the walk must abort
        _, boss, colors, _ = index_for(["acgact"], 3)
        start = boss.label_to_node("$a")
        assert build_seqs(boss, colors, start) == []

    def test_no_dummy_in_output(self):
        _, boss, colors, _ = index_for(["tacgt", "ccgtaat"], 4)
        for v in boss.starting_node_ids():
            for s in build_seqs(boss, colors, int(v)):
                assert "$" not in s


class TestReconstructAll:
    def test_worked_example(self):
        reads, boss, colors, _ = index_for(["tacgt"], 4)
        report = reconstruct_all(boss, colors, verify_against=reads)
        assert set(report.recovered) == {"tacgt", "acgta"}
        assert report.ambiguous_count == 0
        assert report.verified_fraction == 1.0

    def test_ambiguous_read_counted_not_emitted(self):
        reads, boss, colors, _ = index_for(["acgact"], 3)
        report = reconstruct_all(boss, colors, verify_against=reads)
        assert report.ambiguous_count >= 1
        for s in report.recovered:
            assert s in reads.reads or reverse_complement(s) in reads.reads

    def test_soundness_random(self):
        rng = np.random.default_rng(77)
        raw = [
            "".join(rng.choice(list("acgt"), size=int(rng.integers(25, 50))))
            for _ in range(12)
        ]
        reads, boss, colors, _ = index_for(raw, 9)
        report = reconstruct_all(boss, colors, verify_against=reads)
        originals = set(reads.strings_with_rc())
        for s in report.recovered:
            assert s in originals
        # completeness: every unambiguous strand is recovered
        got, colorable = set(report.recovered), boss.colorable
        for s in originals:
            if is_unambiguous(boss, lambda v: colorable.get(v - 1) == 1, s):
                assert s in got

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_strings_ending_on_a_shared_suffix_are_recovered(self, k):
        # reads end on one shared (k-2)-suffix after different symbols, so
        # its ending node has indegree > 1, and other reads pass through it,
        # so branching nodes lead into that ending node: a string that ends
        # there must not take the colour of one that branched off before it
        for seed in range(25):
            rng = np.random.default_rng(seed)

            def rand(n) -> str:
                return "".join(rng.choice(list("acgt"), size=int(n)))

            tail = rand(k - 2)
            raw = [rand(rng.integers(1, 8)) + tail for _ in range(3)]
            raw += [rand(rng.integers(1, 8)) + tail + rand(rng.integers(1, 8)) for _ in range(3)]
            raw += [rand(rng.integers(k, k + 10)) for _ in range(2)]
            reads, boss, colors, _ = index_for(raw, k)
            got, colorable = set(reconstruct_all(boss, colors).recovered), boss.colorable
            for s in reads.strings_with_rc():
                mers = [s[i : i + k - 1] for i in range(len(s) - k + 2)]
                if (
                    len(s) >= k
                    and len(set(mers)) == len(mers)
                    and is_unambiguous(boss, lambda v: colorable.get(v - 1) == 1, s)
                ):
                    assert s in got, (seed, s)

    def test_threads_do_not_change_result(self):
        raw = ["tacgtacc", "ccgtaatg", "tttacagg"]
        reads, boss, colors, _ = index_for(raw, 5)
        r1 = reconstruct_all(boss, colors)
        r8 = reconstruct_all(boss, colors, threads=8)
        assert sorted(r1.recovered) == sorted(r8.recovered)
        assert r1.ambiguous_count == r8.ambiguous_count


def reference_walks(boss, full):
    """Per-color reference walk from every starting node, on the full
    table: {start: walks}."""
    return {
        v: [walk_color(boss, full, v, c) for c in get_colors(full, v)]
        for v in boss.starting_node_ids().tolist()
    }


def assert_matches_reference(boss, colors, full=None):
    """Reconstruction from colors matches the reference walks on full,
    by default colors themselves, a table with every row."""
    walks = reference_walks(boss, colors if full is None else full)
    report = reconstruct_all(boss, colors)
    want = [s for ws in walks.values() for s in ws if s is not None]
    assert report.recovered == want
    assert report.per_start == {
        v: StartReport(
            colors=len(ws),
            recovered=sum(s is not None for s in ws),
            ambiguous=sum(s is None for s in ws),
        )
        for v, ws in walks.items()
    }
    assert report.ambiguous_count == sum(st.ambiguous for st in report.per_start.values())
    for v, ws in walks.items():
        assert build_seqs(boss, colors, v) == [s for s in ws if s is not None]
    return report


MIXED = [(seed, k) for k in (3, 4, 9, 31, 63) for seed in (1, 2)]


@pytest.fixture(scope="module")
def mixed_indexes():
    out = {}
    for seed, k in MIXED:
        out[seed, k] = index_for(list(mixed_read_set(seed, k).reads), k)[1:]
    return out


def without_critical_colors(boss, colors):
    """The index with the N bits of critical (solid colorable) nodes cleared."""
    bits = colors.N.to_bits().copy()
    bits[np.flatnonzero(bits & boss.solid_mask())] = 0
    return CompressedColors(
        N=BitVector(bits), F=colors.F, payload=colors.payload,
        p=colors.p, num_colors=colors.num_colors,
    )


@pytest.fixture(params=["one_at_a_time", "lockstep"])
def walk(request, monkeypatch):
    """Every reconstruction walk of the test takes the named walk."""
    crossover = sys.maxsize if request.param == "one_at_a_time" else 0
    monkeypatch.setattr(traversal, "LOCKSTEP_MIN_WALKS", crossover)
    return request.param


class TestWalksMatchReference:
    def test_reconstruct_and_build_seqs(self, mixed_indexes, walk):
        ambiguous = 0
        for boss, colors, full in mixed_indexes.values():
            ambiguous += assert_matches_reference(boss, colors, full).ambiguous_count
        assert ambiguous > 0  # the repeated segment makes some walks ambiguous

    def test_cleared_successor_bit_raises_not_colored(self, mixed_indexes, walk):
        # clearing the bits of critical nodes makes branch successors
        # uncolorable; the reference and the walk must both raise, from
        # every start and from all starts at once
        raised = 0
        for boss, colors, full in mixed_indexes.values():
            damaged = without_critical_colors(boss, full)
            for v in boss.starting_node_ids().tolist():
                try:
                    want = [walk_color(boss, damaged, v, c) for c in get_colors(damaged, v)]
                except NotColored:
                    raised += 1
                    with pytest.raises(NotColored):
                        build_seqs(boss, damaged, v)
                else:
                    assert build_seqs(boss, damaged, v) == [s for s in want if s is not None]
            try:
                reference_walks(boss, damaged)
            except NotColored:
                with pytest.raises(NotColored):
                    reconstruct_all(boss, damaged)
            else:
                assert_matches_reference(boss, damaged)
        assert raised > 0

    def test_start_without_a_row_raises_not_colored(self, mixed_indexes, walk):
        # a starting node whose N bit is cleared has no row: both queries
        # raise for it before any walk
        for boss, colors, full in mixed_indexes.values():
            starts = boss.starting_node_ids().tolist()
            v = starts[len(starts) // 2]
            bits = colors.N.to_bits().copy()
            bits[v - 1] = 0
            damaged = CompressedColors(
                N=BitVector(bits), F=colors.F, payload=colors.payload,
                p=colors.p, num_colors=colors.num_colors,
            )
            with pytest.raises(NotColored, match=f"node {v} "):
                reconstruct_all(boss, damaged)
            with pytest.raises(NotColored, match=f"node {v} "):
                build_seqs(boss, damaged, v)


@pytest.mark.parametrize("seed, k", [(5, 4), (10, 6)])
def test_an_implicit_successor_sharing_a_color_keeps_its_row(walk, seed, k):
    # a string of each set repeats a (k-2)-mer, so the row of one implicit
    # successor shares a color with a sibling's row and is kept. Dropped,
    # the walks would send that color to the sibling, where the full table
    # finds it ambiguous, and assembly would pass another branch
    _, boss, colors, full = index_for(list(mixed_read_set(seed, k).reads), k)
    assert colors.kept.count == 1
    assert_matches_reference(boss, colors, full)
    assert assemble_all(boss, colors, 0.5) == assemble_all_ref(boss, full, 0.5)


def shared_segment_reads(n: int, k: int) -> list[str]:
    """n distinct reads through one segment of k + 15 symbols: half end
    with it, half go on into a second segment. The node that ends the first
    segment branches into an ending node and one solid node, its implicit
    successor, and every string through it needs a color of its own."""
    rng = np.random.default_rng(n)

    def rand(m: int) -> str:
        return "".join(rng.choice(list("acgt"), size=m))

    first, second = rand(k + 15), rand(10)
    return [rand(12) + first + (second + rand(5) if i % 2 else "") for i in range(n)]


def test_walks_past_implicit_successors_with_sparse_siblings(walk):
    # 70 strings through the shared segment take colors 1..70, so the
    # ending sibling of the implicit successor holds colors past the view's
    # one word a row, kept as a sparse row: a color it does not hold goes
    # to the implicit successor in both walks
    _, boss, colors, full = index_for(shared_segment_reads(70, 25), 25)
    assert colors.num_colors > 64
    view = traversal._ColorView.of(colors)
    sparse_siblings = [
        t for t in colors.implicit.tolist()
        for u in boss.backward(t)
        for _, _, s in boss.successors(u)
        if s != t and view.rank[s - 1] in view.sparse
    ]
    assert sparse_siblings
    report = assert_matches_reference(boss, colors, full)
    assert report.ambiguous_count == 0
    assert assemble_all(boss, colors, 0.5) == assemble_all_ref(boss, full, 0.5)


def test_build_seqs_matches_reconstruct_all_above_the_crossover():
    # reconstruct_all walks this index in lockstep and build_seqs walks one
    # start's colors one at a time; each start's strings must agree
    raw = random_read_set(np.random.default_rng(5), 120, 15, 40)
    _, boss, colors, _ = index_for(raw, 7)  # k small enough for repeats
    report = reconstruct_all(boss, colors)
    per_start = report.per_start.values()
    assert sum(st.colors for st in per_start) >= traversal.LOCKSTEP_MIN_WALKS
    assert max(st.colors for st in per_start) < traversal.LOCKSTEP_MIN_WALKS
    assert report.ambiguous_count > 0
    got = []
    for v in report.per_start:
        got.extend(build_seqs(boss, colors, v))
    assert got == report.recovered


def test_reconstruction_leaves_the_starting_predecessors_underived(monkeypatch, tmp_path):
    # building, compressing and loading leave both query slots empty, so
    # that set-up time and the RAM of a loaded index hold no query state;
    # reconstruction fills them but derives no starting predecessors, and
    # a failed derivation is not kept
    _, boss, colors, _ = index_for(list(mixed_read_set(1, 9).reads), 9)
    path = tmp_path / "index.cdbg"
    write_index(path, boss, colors, IndexMeta())
    loaded, loaded_colors, _ = read_index(path)
    for b, c in [(boss, colors), (loaded, loaded_colors)]:
        assert b._query is None and c._query is None

    def fail(boss):
        raise AssertionError("starting predecessors derived")

    monkeypatch.setattr(traversal, "_starting_preds", fail)
    start = int(boss.starting_node_ids()[0])
    assert build_seqs(boss, colors, start)
    assert reconstruct_all(boss, colors).recovered
    assert boss._query is not None and colors._query is not None
    assert boss._query.starting_preds is None
    for _ in range(2):
        with pytest.raises(AssertionError, match="starting predecessors"):
            contig_assm(boss, colors, start, 0.5)
    with pytest.raises(AssertionError, match="starting predecessors"):
        assemble_all(boss, colors, 0.5)


def test_each_index_derives_its_query_state_once(monkeypatch):
    # many queries of each kind on one index decode its color table once
    # and derive its starting predecessors once; other colors on the same
    # graph decode their own table and reuse the graph's map. Only the
    # lockstep walk derives the hop table, once per graph: building,
    # loading, build_seqs below the crossover and assembly derive none
    calls = {"decode_rows": 0, "_starting_preds": 0, "_hop_table": 0}
    for name in calls:

        def counted(*args, _name=name, _orig=getattr(traversal, name)):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(traversal, name, counted)
    _, boss, colors, _ = index_for(list(mixed_read_set(2, 9).reads), 9)
    starts = boss.starting_node_ids().tolist()
    assert max(len(get_colors(colors, v)) for v in starts) < traversal.LOCKSTEP_MIN_WALKS
    for v in starts:
        build_seqs(boss, colors, v)
        contig_assm(boss, colors, v, 0.5)
    reconstruct_all(boss, colors)
    assemble_all(boss, colors, 0.5)
    for v in starts[::3]:
        build_seqs(boss, colors, v)
        contig_assm(boss, colors, v, 1.0)
    assert calls == {"decode_rows": 1, "_starting_preds": 1, "_hop_table": 0}
    monkeypatch.setattr(traversal, "LOCKSTEP_MIN_WALKS", 0)
    recovered = reconstruct_all(boss, colors).recovered
    for v in starts[::3]:
        build_seqs(boss, colors, v)
    assert calls == {"decode_rows": 1, "_starting_preds": 1, "_hop_table": 1}
    copy = dataclasses.replace(colors)
    assert copy._query is None
    assert assemble_all(boss, copy, 0.5) == assemble_all(boss, colors, 0.5)
    assert reconstruct_all(boss, copy).recovered == recovered
    assert calls == {"decode_rows": 2, "_starting_preds": 1, "_hop_table": 1}
    loaded, loaded_colors = reload(boss, colors)
    assert calls == {"decode_rows": 2, "_starting_preds": 1, "_hop_table": 1}
    for _ in range(2):
        assert reconstruct_all(loaded, loaded_colors).recovered == recovered
    assert calls == {"decode_rows": 3, "_starting_preds": 1, "_hop_table": 2}


def test_each_assembly_cache_is_derived_once_by_its_owner(monkeypatch):
    # the graph's view derives each unary run once, for every colors read
    # with it; each colors' view derives its own branch records; and
    # reconstruction derives no run
    calls = {"derive_run": 0, "derive_branch": 0}
    for cls, name in [(traversal._GraphView, "derive_run"), (traversal._ColorView, "derive_branch")]:

        def counted(*args, _name=name, _orig=getattr(cls, name)):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(cls, name, counted)
    _, boss, colors, _ = index_for(list(mixed_read_set(2, 9).reads), 9)
    for v in boss.starting_node_ids().tolist():
        build_seqs(boss, colors, v)
    reconstruct_all(boss, colors)
    assert calls == {"derive_run": 0, "derive_branch": 0}
    contigs = assemble_all(boss, colors, 0.5)
    first = dict(calls)
    assert first["derive_run"] == len(boss._query.runs) > 0
    assert first["derive_branch"] == len(colors._query.branches) > 0
    assert assemble_all(boss, colors, 0.5) == contigs
    assert calls == first
    copy = dataclasses.replace(colors)
    assert assemble_all(boss, copy, 0.5) == contigs
    assert calls == {"derive_run": first["derive_run"], "derive_branch": 2 * first["derive_branch"]}


def reload(boss, colors):
    """A new graph and new colors with empty query slots, by a round trip
    through the container format."""
    loaded, loaded_colors, _ = deserialize_index(serialize_index(boss, colors, IndexMeta()))
    return loaded, loaded_colors


def test_damaged_colors_after_intact_ones_raise_where_the_reference_does(mixed_indexes):
    # the graph's view, filled by queries with intact colors, lends nothing
    # to queries with damaged ones, and a NotColored raise is not kept: the
    # same call raises again, and the intact colors still answer
    raised = 0
    for boss, colors, full in mixed_indexes.values():
        boss, colors = reload(boss, colors)
        starts = boss.starting_node_ids().tolist()
        walks = reference_walks(boss, full)
        reconstruct_all(boss, colors)
        assemble_all(boss, colors, 0.5)
        damaged = without_critical_colors(boss, full)
        for v in starts:
            try:
                want = [walk_color(boss, damaged, v, c) for c in get_colors(damaged, v)]
            except NotColored:
                raised += 1
                for _ in range(2):
                    with pytest.raises(NotColored):
                        build_seqs(boss, damaged, v)
            else:
                assert build_seqs(boss, damaged, v) == [s for s in want if s is not None]
            try:
                want_contig = contig_assm_ref(boss, damaged, v, 0.5)
            except NotColored:
                for _ in range(2):
                    with pytest.raises(NotColored):
                        contig_assm(boss, damaged, v, 0.5)
            else:
                assert contig_assm(boss, damaged, v, 0.5) == want_contig
            assert build_seqs(boss, colors, v) == [s for s in walks[v] if s is not None]
    assert raised > 0


def test_a_graph_answers_with_the_colors_of_another_load(tmp_path):
    _, boss, colors, full = index_for(list(mixed_read_set(1, 31).reads), 31)
    walks = reference_walks(boss, full)
    contigs = {v: contig_assm_ref(boss, full, v, 0.5) for v in walks}
    path = tmp_path / "index.cdbg"
    write_index(path, boss, colors, IndexMeta())
    (g1, c1, _), (g2, c2, _) = read_index(path), read_index(path)
    assert assemble_all(g1, c1, 0.5) == assemble_all_ref(boss, full, 0.5)
    for g, c in [(g1, c2), (g2, c1), (g1, c1), (g2, c2)]:
        for v, ws in walks.items():
            assert build_seqs(g, c, v) == [s for s in ws if s is not None]
            assert contig_assm(g, c, v, 0.5) == contigs[v]


@pytest.fixture(scope="module")
def wide_indexes():
    """An index whose rows need more than one 64-bit word of bitmask."""
    _, boss, colors, full = index_for(list(wide_read_set().reads), 9)
    assert colors.num_colors > 64
    # colors tripled: up to 240, past the view's two words a row (one per
    # payload entry), so the rows holding them are kept as sets
    rows = [[3 * c for c in row] for row in decode_table(full)]
    cands, kept = boss.implicit_candidates, colors.kept.to_bits()
    tripled = compress_ref(rows, boss.colorable, cands, kept)
    assert traversal._ColorView(tripled).sparse
    tripled_full = compress_ref(rows, boss.colorable, cands)
    return {"wide": (boss, colors, full), "sparse": (boss, tripled, tripled_full)}


@pytest.mark.parametrize("indexes", ["mixed_indexes", "error_indexes", "wide_indexes"])
def test_queries_in_any_order_match_the_reference(request, indexes):
    # per-start queries in shuffled order, with whole-index queries between
    # them, on freshly loaded indexes whose first query is any of the four
    rng = np.random.default_rng(11)
    for boss, colors, full in request.getfixturevalue(indexes).values():
        walks = reference_walks(boss, full)
        recovered = [s for ws in walks.values() for s in ws if s is not None]
        contigs = assemble_all_ref(boss, full, 0.5)
        boss, colors = reload(boss, colors)
        for i, v in enumerate(rng.permutation(list(walks)).tolist()):
            if i % 7 == 3:
                assert reconstruct_all(boss, colors).recovered == recovered
            if i % 7 == 5:
                assert assemble_all(boss, colors, 0.5) == contigs
            assert build_seqs(boss, colors, v) == [s for s in walks[v] if s is not None]
            assert contig_assm(boss, colors, v, 0.5) == contig_assm_ref(boss, full, v, 0.5)


def test_a_queried_index_is_freed_with_its_last_reference():
    # the views are held by the index alone and hold no reference back to
    # it, so no cache and no reference cycle keeps a dropped index alive
    _, boss, colors, _ = index_for(list(mixed_read_set(2, 4).reads), 4)
    start = int(boss.starting_node_ids()[0])
    build_seqs(boss, colors, start)
    assemble_all(boss, colors, 0.5)
    refs = [weakref.ref(x) for x in (boss, colors, boss._query, colors._query)]
    gc.disable()  # freed by reference counts alone, without the cycle collector
    try:
        del boss, colors
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


class TestAssemblyMatchesReference:
    @pytest.mark.parametrize("x", [0.2, 0.5, 1.0])
    def test_contig_assm_and_assemble_all(self, mixed_indexes, x):
        for boss, colors, full in mixed_indexes.values():
            for v in boss.starting_node_ids().tolist():
                assert contig_assm(boss, colors, v, x) == contig_assm_ref(boss, full, v, x)
            assert assemble_all(boss, colors, x) == assemble_all_ref(boss, full, x)

    def test_cleared_critical_bits_raise_not_colored(self, mixed_indexes):
        raised = 0
        for boss, colors, full in mixed_indexes.values():
            damaged = without_critical_colors(boss, full)
            for v in boss.starting_node_ids().tolist():
                try:
                    want = contig_assm_ref(boss, damaged, v, 0.5)
                except NotColored:
                    raised += 1
                    with pytest.raises(NotColored):
                        contig_assm(boss, damaged, v, 0.5)
                else:
                    assert contig_assm(boss, damaged, v, 0.5) == want
            try:
                want_all = assemble_all_ref(boss, damaged, 0.5)
            except NotColored:
                with pytest.raises(NotColored):
                    assemble_all(boss, damaged, 0.5)
            else:
                assert assemble_all(boss, damaged, 0.5) == want_all
        assert raised > 0


@pytest.fixture(scope="module")
def error_indexes():
    """Indexes of reads with substitution errors, whose tips and bubbles
    give many branching nodes and nodes of indegree > 1."""
    out = {}
    for seed in (1, 2):
        cfg = SyntheticConfig(genome_len=300, read_len=40, coverage=6, seed=seed, error_rate=0.02)
        raw = generate_reads(cfg)[1]
        for k in (9, 15):
            out[seed, k] = index_for(raw, k)[1:]
    return out


@pytest.mark.parametrize("x", [0.5, 1.0])
def test_assembly_on_error_reads_matches_reference(error_indexes, x):
    for boss, colors, full in error_indexes.values():
        for v in boss.starting_node_ids().tolist():
            assert contig_assm(boss, colors, v, x) == contig_assm_ref(boss, full, v, x)
        assert assemble_all(boss, colors, x) == assemble_all_ref(boss, full, x)


def test_reconstruction_on_error_reads_matches_reference(error_indexes):
    for boss, colors, full in error_indexes.values():
        assert_matches_reference(boss, colors, full)


def repeat_read_set(rng, k: int) -> list[str]:
    """Reads off both strands, at about 10x, of a random 300-400 bp genome
    with one segment of k + 10 symbols copied at 3 places: long unary runs
    that many assembly walks share, between branches inside the genome."""
    genome = rng.integers(0, 4, size=int(rng.integers(300, 401)))
    segment = rng.integers(0, 4, size=k + 10)
    spacing = len(genome) // 3
    for i in range(3):
        genome[i * spacing : i * spacing + len(segment)] = segment
    text = "".join("acgt"[c] for c in genome)
    read_len = 100
    reads = []
    for pos in rng.integers(0, len(text) - read_len + 1, size=10 * len(text) // read_len):
        r = text[pos : pos + read_len]
        reads.append(reverse_complement(r) if rng.integers(2) else r)
    return reads


@pytest.mark.parametrize("k", [9, 15])
def test_assembly_on_a_repeat_genome_matches_reference(k):
    _, boss, colors, full = index_for(repeat_read_set(np.random.default_rng(k), k), k)
    for x in (0.5, 1.0):
        assert assemble_all(boss, colors, x) == assemble_all_ref(boss, full, x)


def test_walks_meet_no_closure_edge(mixed_indexes, error_indexes):
    # the walks stand only on nodes above K[1] and take any edge of a
    # branching node unfiltered: that holds because the closure edges are
    # exactly the single edges of the ending nodes 2..K[1], and every edge
    # of a node of outdegree > 1 has a target, on built and loaded graphs
    indexes = [mixed_indexes[seed, k] for seed, k in MIXED if k in (3, 63)]
    indexes += list(error_indexes.values())
    for boss in (b for index in indexes for b in (index[0], reload(*index[:2])[0])):
        ends, first_edge, targets = int(boss.K[1]), boss._first_edge, boss.edge_targets()
        outdeg = np.diff(first_edge[1:])
        assert (outdeg[1:ends] == 1).all()
        assert (np.flatnonzero(targets == 0) + 1).tolist() == first_edge[2 : ends + 1].tolist()
        assert (targets[np.repeat(outdeg > 1, outdeg)] > 0).all()


def test_queries_make_no_per_node_lookups(mixed_indexes, monkeypatch):
    """Assembly and reconstruction run on views built from whole arrays:
    none of the per-element index lookups is called, and no query derives
    the edge targets again (only building or loading the graph does)."""
    calls = {}
    for cls, name in [
        (MonotoneSequence, "access"),
        (BitVector, "select1"),
        (BossIndex, "edge_target"),
        (BossIndex, "successors"),
        (BossIndex, "backward"),
        (BossIndex, "_derive_targets"),
    ]:
        key = f"{cls.__name__}.{name}"
        calls[key] = 0

        def counted(*args, _key=key, _orig=getattr(cls, name), **kwargs):
            calls[_key] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    boss, colors, _ = mixed_indexes[1, 9]
    start = int(boss.starting_node_ids()[0])
    assert assemble_all(boss, colors, 0.5)
    assert reconstruct_all(boss, colors).recovered
    assert build_seqs(boss, colors, start)
    assert contig_assm(boss, colors, start, 0.5)
    assert len(boss.node_labels(np.arange(1, boss.node_count + 1))) == boss.node_count
    assert calls == dict.fromkeys(calls, 0)
    BossIndex.build(mixed_read_set(1, 9), k=9)
    assert calls["BossIndex._derive_targets"] == 1


def test_cycling_color_trail_is_ambiguous(walk):
    # drop the read's color from its ending node: at the self-looping node
    # "aa" only the loop keeps the color, so the walk cycles until the
    # edge_count + k step guard gives it up
    boss, colors = without_the_end_color("aaaaa", 3, "a$")
    start = boss.label_to_node("$a")
    assert [walk_color(boss, colors, start, c) for c in get_colors(colors, start)] == [None]
    report = assert_matches_reference(boss, colors)
    assert report.per_start[start].ambiguous == 1


def without_the_end_color(read, k, end):
    """The index of one read with the read's color dropped from its ending
    node ``end``, so the read's walk cycles."""
    reads = ReadSet.from_reads([read])
    boss = BossIndex.build(reads, k=k)
    colorable = mark_colorable(boss)
    rows = color_all(boss, colorable, reads).rows
    rows[colorable.rank1(boss.label_to_node(end)) - 1] = [99]
    return boss, compress(DynamicColorTable.from_rows(rows), colorable)


# reads whose unary runs, between branches, are longer than k - 2 edges
BUDGET_CUTS = [
    ("acgtacgtacgt", 4, "gt$", 12),
    ("acgtacgtacgtacgt", 5, "cgt$", 14),
    ("aacgtaacgtaacgtaacgt", 6, "acgt$", 28),
]


@pytest.mark.parametrize("read, k, end, length", BUDGET_CUTS)
def test_assembly_cut_by_its_budget_matches_reference(read, k, end, length):
    # drop the read's color from its ending node: the walk then cycles
    # until its edge_count + 1 visits are spent, at times inside a unary run
    boss, colors = without_the_end_color(read, k, end)
    starts = boss.starting_node_ids().tolist()
    contigs = [contig_assm(boss, colors, v, 0.5) for v in starts]
    assert contigs == [contig_assm_ref(boss, colors, v, 0.5) for v in starts]
    assert max(map(len, contigs)) == length
    assert assemble_all(boss, colors, 0.5) == assemble_all_ref(boss, colors, 0.5)


@pytest.mark.parametrize("read, k, end", [case[:3] for case in BUDGET_CUTS])
def test_walks_cycling_through_long_unary_runs_match_reference(walk, read, k, end):
    # the read's walk cycles through unary runs longer than a hop's k - 2
    # edges until the edge_count + k step guard gives it up
    boss, colors = without_the_end_color(read, k, end)
    assert assert_matches_reference(boss, colors).ambiguous_count > 0


@pytest.mark.parametrize(
    "k, read",
    [
        (3, "gaactagttc"),
        (9, random_read_set(np.random.default_rng(9), 1, 100, 100)[0]),
        (63, random_read_set(np.random.default_rng(63), 1, 400, 400)[0]),
    ],
    ids=["k3", "k9", "k63"],
)
def test_a_chain_of_capped_hops_spells_a_branch_free_read(walk, k, read):
    # no solid node branches, so each strand's walk is one unary run, which
    # the lockstep crosses in hops of at most k - 2 edges after each step;
    # at k=63 the run is longer than a hop's byte of length could count
    reads, boss, colors, full = index_for([read], k)
    outdeg = np.diff(boss._first_edge[1:])
    assert (outdeg[boss.solid_mask()] == 1).all()
    report = assert_matches_reference(boss, colors, full)
    assert sorted(report.recovered) == sorted(reads.strings_with_rc())


class TestContigAssm:
    def test_single_read_absorbs_reverse_strand(self):
        # the reverse strand starts at $ac, a predecessor of acg, so its
        # color joins the walk and the contig spans both strands
        _, boss, colors, _ = index_for(["tacgt"], 4)
        assert contig_assm(boss, colors, boss.label_to_node("$ta"), 0.5) == "tacgta"

    def test_single_read_full_threshold_stops_at_branch(self):
        _, boss, colors, _ = index_for(["tacgt"], 4)
        assert contig_assm(boss, colors, boss.label_to_node("$ta"), 1.0) == "tacgt"

    def test_two_read_overlap_union(self):
        _, boss, colors, _ = index_for(["tacgta", "cgtaac"], 4)
        v = boss.label_to_node("$ta")
        assert contig_assm(boss, colors, v, 0.5) == "tacgtaac"

    def test_full_threshold_stops_at_color_split(self):
        _, boss, colors, _ = index_for(["tacgta", "cgtaac"], 4)
        v = boss.label_to_node("$ta")
        assert contig_assm(boss, colors, v, 1.0) == "tacgta"

    def test_bad_threshold(self):
        _, boss, colors, _ = index_for(["tacgt"], 4)
        v = boss.label_to_node("$ta")
        for x in (0.0, -0.5, 1.5):
            with pytest.raises(BadThreshold):
                contig_assm(boss, colors, v, x)

    def test_bad_start(self):
        _, boss, colors, _ = index_for(["tacgt"], 4)
        with pytest.raises(BadStart):
            contig_assm(boss, colors, boss.label_to_node("tac"), 0.5)


class TestAssembleAll:
    def test_rc_duplicate_contigs_collapse(self):
        _, boss, colors, _ = index_for(["ccgtaat"], 4)
        contigs = assemble_all(boss, colors, 0.5)
        assert contigs == ["ccgtaat"]

    def test_overlap_union_present(self):
        _, boss, colors, _ = index_for(["tacgta", "cgtaac"], 4)
        contigs = assemble_all(boss, colors, 0.5)
        assert any(c == "tacgtaac" or reverse_complement(c) == "tacgtaac" for c in contigs)
        # longest-first ordering
        assert [len(c) for c in contigs] == sorted([len(c) for c in contigs], reverse=True)

    def test_longest_contig_dominates_reads(self):
        genome = "tacgtaaccggtattggcatcaa"
        reads = [genome[i : i + 12] for i in range(0, 12, 4)]
        _, boss, colors, _ = index_for(reads, 5)
        contigs = assemble_all(boss, colors, 0.5)
        assert max(len(c) for c in contigs) >= max(len(r) for r in reads)

    def test_four_read_chain_recovers_genome(self):
        genome = "tacgtaaccggtattggcatcaa"  # 23 bp, repeat-free at k=5
        reads = [genome[0:11], genome[4:15], genome[8:19], genome[12:23]]
        _, boss, colors, _ = index_for(reads, 5)
        contigs = assemble_all(boss, colors, 0.5)
        assert genome in contigs or reverse_complement(genome) in contigs

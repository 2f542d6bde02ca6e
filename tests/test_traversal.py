import dataclasses
import gc
import logging
import weakref

import numpy as np
import pytest

from cdbg import traversal
from cdbg.bitvectors import BitVector, MonotoneSequence
from cdbg.boss import BossIndex
from cdbg.coloring import color_all, mark_colorable
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

from conftest import error_read_set, mixed_read_set, random_read_set, wide_read_set
from fuzz_assembly import run_cases as fuzz_assembly_cases
from fuzz_walks import build_case, random_case
from fuzz_walks import run_cases as fuzz_walk_cases
from oracle import (
    assemble_all_ref,
    assemble_by_runs_ref,
    compress_ref,
    contig_assm_ref,
    decode_table,
    full_colors,
    hop_ref,
    indegree,
    is_unambiguous,
    kept_ref,
    run_view_ref,
    solid_mask,
    starting_preds_ref,
    table_from_rows,
    table_rows,
    walk_color,
    walk_each_pair,
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
    bits[np.flatnonzero(bits & solid_mask(boss))] = 0
    return CompressedColors(
        N=BitVector(bits), F=colors.F, payload=colors.payload,
        p=colors.p, num_colors=colors.num_colors,
    )


@pytest.fixture(params=["one_at_a_time", "lockstep"])
def walk(request, monkeypatch):
    """``reconstruct_all`` of the test takes the named walk: its own
    lockstep walk, or the one-node walk of ``build_seqs`` for each pair."""
    if request.param == "one_at_a_time":
        monkeypatch.setattr(traversal, "_walk_lockstep", walk_each_pair)
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
    # an assembly run crosses a read-end branch only where the implicit
    # successor has no row: at the kept one the walk stays a branch step
    for x in (0.5, 1.0):
        for v in boss.starting_node_ids().tolist():
            assert contig_assm(boss, colors, v, x) == contig_assm_ref(boss, full, v, x)
        assert assemble_all(boss, colors, x) == assemble_all_ref(boss, full, x)


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


def test_walks_past_implicit_successors_with_siblings_past_the_words(walk):
    # 140 strings through the shared segment take colors 1..140, so the
    # ending sibling of the implicit successor holds colors past the view's
    # two words a row (⌈entries / p⌉), read from its decoded row: a color
    # it does not hold goes to the implicit successor in both walks
    _, boss, colors, full = index_for(shared_segment_reads(140, 25), 25)
    assert colors.num_colors > 128
    view = traversal._IndexView.of(boss, colors)
    assert view.words.shape[1] == 2
    siblings_past_the_words = [
        t for t in colors.implicit.tolist()
        for u in boss.backward(t)
        for _, _, s in boss.successors(u)
        if s != t and view.row_masks()[view.rank[s - 1]] is None
    ]
    assert siblings_past_the_words
    report = assert_matches_reference(boss, colors, full)
    assert report.ambiguous_count == 0
    assert assemble_all(boss, colors, 0.5) == assemble_all_ref(boss, full, 0.5)


def test_per_start_reports_are_made_only_when_read(monkeypatch):
    # reconstruct_all keeps one tally row per start; the StartReports are
    # made from it when per_start is read, and equal the walks' counts
    _, boss, colors, full = index_for(list(mixed_read_set(1, 9).reads), 9)
    made = []
    monkeypatch.setattr(traversal, "StartReport", lambda *a: made.append(a) or StartReport(*a))
    report = reconstruct_all(boss, colors)
    assert made == []
    walks = reference_walks(boss, full)
    assert report.per_start == {
        v: StartReport(len(ws), sum(s is not None for s in ws), sum(s is None for s in ws))
        for v, ws in walks.items()
    }
    assert len(made) == len(walks) == len(boss.starting_node_ids())


def test_build_seqs_matches_reconstruct_all_start_by_start():
    # reconstruct_all walks this index in lockstep and build_seqs walks one
    # start's colors one at a time; each start's strings must agree
    raw = random_read_set(np.random.default_rng(5), 120, 15, 40)
    _, boss, colors, _ = index_for(raw, 7)  # k small enough for repeats
    report = reconstruct_all(boss, colors)
    assert report.ambiguous_count > 0
    got = []
    for v in report.per_start:
        got.extend(build_seqs(boss, colors, v))
    assert got == report.recovered


def test_build_seqs_matches_reconstruct_all_on_branch_dense_walks():
    # the benchmark's regime: 100 bp reads at 30x over 1 kb with k=31, so
    # nearly every branch on a walk is a read end whose solid successor is
    # implicit and takes the colors its ending sibling lacks
    _, raw = generate_reads(SyntheticConfig(genome_len=1000, read_len=100, coverage=30, seed=0))
    reads, boss, colors, _ = index_for(raw, 31)
    assert len(colors.implicit) > len(reads.reads)
    report = reconstruct_all(boss, colors)
    assert report.ambiguous_count == 0
    got = []
    for v in report.per_start:
        got.extend(build_seqs(boss, colors, v))
    assert got == report.recovered


def test_an_uncolorable_successor_after_two_hits_raises(walk):
    # every row but the ending nodes' holds color 1, so the walk of "$g"
    # passes "ga" to "ac", where the successors "ca" and "cc" hold it and
    # the last one, "cg", is not colorable. Both walks read every out-edge
    # of a branch before they choose, so they raise rather than give the
    # color up as ambiguous at the second hit
    boss = BossIndex.build(ReadSet.from_reads(["gacaa", "gacca", "gacga"]), k=3)
    ac, cg = boss.label_to_node("ac"), boss.label_to_node("cg")
    assert [t for _, _, t in boss.successors(ac)] == [boss.label_to_node(x) for x in ("ca", "cc", "cg")]
    bits = boss.colorable.to_bits().copy()
    bits[cg - 1] = 0
    rows = [[2] if v <= boss.K[1] else [1] for v in (np.flatnonzero(bits) + 1).tolist()]
    colors = compress(table_from_rows(rows), BitVector(bits))
    with pytest.raises(NotColored, match=f"node {cg} "):
        build_seqs(boss, colors, boss.label_to_node("$g"))
    with pytest.raises(NotColored, match=f"node {cg} "):
        reconstruct_all(boss, colors)


def row_masks_ref(colors, n_words: int) -> list[int | None]:
    """The rows as bitmasks, bit c - 1 for color c, as the view derived
    them when it built them with its words: None for a row holding a color
    past n_words words, and 0 for the empty row appended."""
    rows = decode_table(colors)
    return [sum(1 << c - 1 for c in row) if row[-1] <= 64 * n_words else None for row in rows] + [0]


def test_reconstruction_leaves_the_starting_predecessors_underived(monkeypatch, tmp_path):
    # building, compressing and loading leave the colors' query slot empty
    # and the graph without one, so that set-up time and the RAM of a
    # loaded index hold no query state; reconstruction fills the slot but
    # derives neither the starting predecessors nor the row masks, and a
    # failed derivation is not kept. The first one-node walk or assembly
    # builds the masks, once
    _, boss, colors, _ = index_for(list(mixed_read_set(1, 9).reads), 9)
    path = tmp_path / "index.cdbg"
    write_index(path, boss, colors, IndexMeta())
    loaded, loaded_colors, _ = read_index(path)
    for b, c in [(boss, colors), (loaded, loaded_colors)]:
        assert "_query" not in vars(b) and c._query is None

    def fail(boss):
        raise AssertionError("starting predecessors derived")

    monkeypatch.setattr(traversal, "_starting_preds", fail)
    start = int(boss.starting_node_ids()[0])
    assert reconstruct_all(boss, colors).recovered
    assert "_query" not in vars(boss) and colors._query is not None
    view = colors._query
    assert view.starting_preds is None and view.hops is not None and view.masks is None
    assert view.segments == [] and view.segment_at == {} and view.branches == {}
    assert build_seqs(boss, colors, start)
    masks = view.masks
    assert masks == row_masks_ref(colors, view.words.shape[1])
    for _ in range(2):
        with pytest.raises(AssertionError, match="starting predecessors"):
            contig_assm(boss, colors, start, 0.5)
    with pytest.raises(AssertionError, match="starting predecessors"):
        assemble_all(boss, colors, 0.5)
    assert colors._query is view and view.masks is masks and view.segments == []
    monkeypatch.undo()
    assert reconstruct_all(loaded, loaded_colors).recovered
    view = loaded_colors._query
    assert view.masks is None
    assert contig_assm(loaded, loaded_colors, start, 0.5)
    masks = view.masks
    assert masks == row_masks_ref(loaded_colors, view.words.shape[1])
    assemble_all(loaded, loaded_colors, 0.5)
    build_seqs(loaded, loaded_colors, start)
    assert loaded_colors._query is view and view.masks is masks


def test_each_index_derives_its_query_state_once(monkeypatch):
    # many queries of each kind on one index decode its color table once
    # and derive its starting predecessors (a byte per node) once; other
    # colors on the same graph have a view of their own, so they decode
    # their own table and derive their own segments, hop table and
    # starting predecessors. Only reconstruct_all derives the hop table,
    # once per view: building, loading, build_seqs and assembly derive
    # none. Only assembly derives segments, each once per view
    calls = {"decode_rows": 0, "_starting_preds": 0, "_hop_table": 0}
    for name in calls:

        def counted(*args, _name=name, _orig=getattr(traversal, name)):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(traversal, name, counted)
    _, boss, colors, _ = index_for(list(mixed_read_set(2, 9).reads), 9)
    starts = boss.starting_node_ids().tolist()
    for v in starts:
        build_seqs(boss, colors, v)
        contig_assm(boss, colors, v, 0.5)
    assemble_all(boss, colors, 0.5)
    assert calls == {"decode_rows": 1, "_starting_preds": 1, "_hop_table": 0}
    segments = [list(segment) for segment in colors._query.segments]
    assert segments
    recovered = reconstruct_all(boss, colors).recovered
    for v in starts[::3]:
        build_seqs(boss, colors, v)
        contig_assm(boss, colors, v, 1.0)
    assert reconstruct_all(boss, colors).recovered == recovered
    assert calls == {"decode_rows": 1, "_starting_preds": 1, "_hop_table": 1}
    assert colors._query.segments == segments
    copy = dataclasses.replace(colors)
    assert copy._query is None
    assert assemble_all(boss, copy, 0.5) == assemble_all(boss, colors, 0.5)
    assert reconstruct_all(boss, copy).recovered == recovered
    assert calls == {"decode_rows": 2, "_starting_preds": 2, "_hop_table": 2}
    assert copy._query.segments == segments and colors._query.segments == segments
    loaded, loaded_colors = reload(boss, colors)
    assert calls == {"decode_rows": 2, "_starting_preds": 2, "_hop_table": 2}
    for _ in range(2):
        assert reconstruct_all(loaded, loaded_colors).recovered == recovered
    assert calls == {"decode_rows": 3, "_starting_preds": 2, "_hop_table": 3}
    assert loaded_colors._query.segments == []


def test_the_hop_table_derivation_logs_one_stage_per_view(caplog):
    # the first reconstruct_all on a loaded index logs the hop table's
    # derivation as one stage line; a second on the same index logs none
    _, boss, colors, _ = index_for(list(mixed_read_set(1, 9).reads), 9)
    loaded, loaded_colors = reload(boss, colors)
    caplog.set_level(logging.INFO, logger="cdbg.stages")
    reconstruct_all(loaded, loaded_colors)
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["stage hops"]
    caplog.clear()
    reconstruct_all(loaded, loaded_colors)
    assert caplog.records == []


@pytest.mark.parametrize("seed", [1, 2])
def test_random_read_sets_walk_alike_in_lockstep_and_one_node_at_a_time(seed):
    # tests/fuzz_walks.py: 60 random read sets, k from 3 to 63, with
    # repeats and substitutions, whose raw walks the lockstep and the
    # one-node walk spell alike; some of them ambiguous
    counts = fuzz_walk_cases(seed, 60)
    assert counts["cases"] == 60 and counts["recovered"] > 0 and counts["ambiguous"] > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_random_read_sets_assemble_as_the_full_table(seed):
    # tests/fuzz_assembly.py at x = 0.5 on 20 random read sets: assembly
    # on the built index gives the contigs of the full table. Seed 1 case
    # 18 (k = 6) has starting nodes with two out-edges, whose colors that
    # leave by the other edge stay inactive
    counts = fuzz_assembly_cases(seed, 20, xs=(0.5,))
    assert counts["assemblies"] == 20


@pytest.mark.parametrize("seed", [1, 2])
def test_random_read_sets_recover_every_string_that_repeats_no_k2mer(seed):
    # tests/fuzz_assembly.py without assembly on 60 random read sets: every
    # string of R' that repeats no (k - 2)-mer is recovered and no string
    # outside R' is. Most strings that repeat one are lost (ROADMAP item 7)
    counts = fuzz_assembly_cases(seed, 60, xs=())
    assert counts["cases"] == 60 and counts["unrepeated"] > 0
    assert 0 < counts["repeating_lost"] <= counts["repeating"]


def test_each_assembly_cache_is_derived_once_by_its_owner(monkeypatch):
    # each index's view derives its segments and branch records once each,
    # however many walks read them, and a walk that enters a segment in the
    # middle reads it from there; a copy of the colors has a view of its
    # own and derives them again, and reconstruction derives none
    calls = {"derive_segment": 0, "derive_branch": 0}
    for name in calls:

        def counted(*args, _name=name, _orig=getattr(traversal._IndexView, name)):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(traversal._IndexView, name, counted)
    _, boss, colors, _ = index_for(list(mixed_read_set(2, 9).reads), 9)
    for v in boss.starting_node_ids().tolist():
        build_seqs(boss, colors, v)
    reconstruct_all(boss, colors)
    assert calls == {"derive_segment": 0, "derive_branch": 0}
    contigs = assemble_all(boss, colors, 0.5)
    first, view = dict(calls), colors._query
    assert first["derive_segment"] == len(view.segments) > 0
    assert first["derive_branch"] == len(view.branches) > 0
    starts = [segment for segment, at, _ in view.segment_at.values() if not at]
    assert len(starts) == len({id(s) for s in starts}) == len(view.segments)
    assert any(at for _, at, _ in view.segment_at.values())  # a merge node inside a segment
    events = [u for segment in view.segments for _, u, _ in segment[2]]
    assert 0 in events and any(events)  # a segment crosses a branch and activates
    assert assemble_all(boss, colors, 0.5) == contigs
    assert calls == first
    copy = dataclasses.replace(colors)
    assert assemble_all(boss, copy, 0.5) == contigs
    assert calls == {name: 2 * n for name, n in first.items()}
    assert copy._query.segments == view.segments


def contig_or_none(boss, colors, v: int, x: float) -> str | None:
    """``contig_assm`` from v, or None where it raises ``NotColored``."""
    try:
        return contig_assm(boss, colors, v, x)
    except NotColored:
        return None


def contigs_by_runs(boss, colors, x: float) -> dict[int, str | None]:
    """Each start's contig by the walk that assembly took before its
    segments (``oracle.assemble_by_runs_ref``), on a view of its own;
    None where that walk raises ``NotColored``."""
    view, out = run_view_ref(boss, colors), {}
    for v in boss.starting_node_ids().tolist():
        try:
            out[v] = assemble_by_runs_ref(view, v, boss.node_label(v), x)
        except NotColored:
            out[v] = None
    return out


def contigs_in_order(boss, colors, x: float, starts: list[int]) -> dict[int, str | None]:
    """``contig_or_none`` from each of ``starts`` in turn, on a fresh view."""
    colors._query = None
    return {v: contig_or_none(boss, colors, v, x) for v in starts}


def assembled(contigs: dict[int, str]) -> list[str]:
    """What ``assemble_all`` makes of these per-start contigs."""
    seen, out = set(), []
    for v in sorted(contigs):
        canon = min(contigs[v], reverse_complement(contigs[v]))
        if canon not in seen:
            seen.add(canon)
            out.append(contigs[v])
    return sorted(out, key=lambda s: (-len(s), s))


def assert_entries_hold(view) -> None:
    """Every entry of ``segment_at`` lies in a kept segment, at a position
    inside it, with its first event the first one there."""
    kept = {id(segment) for segment in view.segments}
    for segment, at, i in view.segment_at.values():
        codes, _, events = segment
        assert id(segment) in kept and 0 <= at <= len(codes)
        assert [pos for pos, _, _ in events[:i]] == [pos for pos, _, _ in events if pos < at]


@pytest.mark.parametrize("seed", [1, 2])
def test_segment_walks_match_the_run_walks_in_any_start_order(seed):
    # on random read sets (tests/fuzz_walks.py: k from 3 to 63, repeats and
    # substitutions), contig_assm from every start, in two shuffled orders
    # on a fresh view each, gives what the walk that stopped at every
    # starting predecessor gives, and assemble_all then its contigs: which
    # walk derived a segment first changes no contig
    rng = np.random.default_rng(seed)
    checks = 0
    for _ in range(20):
        k, raw = random_case(rng)
        _, boss, _, colors = build_case(k, raw)
        starts = boss.starting_node_ids().tolist()
        for x in (0.3, 0.5, 1.0):
            want = contigs_by_runs(boss, colors, x)
            for _ in range(2):
                rng.shuffle(starts)
                assert contigs_in_order(boss, colors, x, starts) == want
                assert_entries_hold(colors._query)
                checks += 1
            assert assemble_all(boss, colors, x) == assembled(want)
    assert checks == 120


def test_a_unary_cycle_is_one_segment_that_the_budget_cuts():
    # the last read of BUDGET_CUTS without its end color: its walk enters
    # a cycle of unary nodes and read-end branches at a merge node, where
    # the segment that passed it stops when it meets it again; the walk
    # reads round the cycle until its budget ends, as the run walk does
    read, k, end, length = BUDGET_CUTS[-1]
    boss, colors, _ = without_the_end_color(read, k, end, 64)
    want = contigs_by_runs(boss, colors, 0.5)
    assert max(map(len, want.values())) == length
    assert contigs_in_order(boss, colors, 0.5, sorted(want)) == want
    view = colors._query
    assert any(s[1] > 0 and view.segment_at[s[1]][0] is s for s in view.segments)


def test_a_walk_entering_a_segment_after_a_branch_step_reads_it_from_there():
    # the walk from $ggt passes tgtc and then gtca, a merge node whose
    # other predecessor agtc branches; the walk from $agt steps from agtc
    # into gtca and reads the first walk's segment from there. In the other
    # order the branch step's successor starts a segment, where the first
    # walk's segment then stops
    tail = "ttgcaccat"
    _, boss, colors, full = index_for(["agtca" + tail, "cagtcgacctttg", "ggtgtca" + tail], 5)
    merge, branch = boss.label_to_node("gtca"), boss.label_to_node("agtc")
    first, second = boss.label_to_node("$ggt"), boss.label_to_node("$agt")
    for x in (0.5, 1.0):
        want = contigs_by_runs(boss, colors, x)
        assert want[second] == contig_assm_ref(boss, full, second, x) == "agtca" + tail
        colors._query = None
        assert contig_assm(boss, colors, first, x) == want[first]
        view = colors._query
        entry = view.segment_at[merge]
        assert entry[1] > 0 and branch not in view.branches
        assert contig_assm(boss, colors, second, x) == want[second]
        assert branch in view.branches and view.segment_at[merge] is entry
        order = [second, first]
        assert contigs_in_order(boss, colors, x, order) == {v: want[v] for v in order}
        assert colors._query.segment_at[merge][1] == 0


def test_an_activation_without_a_row_raises_only_where_a_walk_reaches_it(mixed_indexes):
    # with the critical nodes' rows cleared, a branching start's child has
    # no row. The derivation raises nothing and keeps each segment whole,
    # the activation kept as an event; a walk raises NotColored where it
    # reaches that event, as the run walk raises, again on the same view,
    # and a walk that stops before it does not raise, though its segment
    # holds the event: a derivation that raised there would raise for it
    events = raised = 0
    for boss, _, full in mixed_indexes.values():
        damaged = without_critical_colors(boss, full)
        starts = boss.starting_node_ids().tolist()
        want = contigs_by_runs(boss, damaged, 0.5)
        rng = np.random.default_rng(len(starts))
        for _ in range(2):
            rng.shuffle(starts)
            assert contigs_in_order(boss, damaged, 0.5, starts) == want
            assert {v: contig_or_none(boss, damaged, v, 0.5) for v in starts} == want
            assert_entries_hold(damaged._query)
        events += sum(held is None for s in damaged._query.segments for _, _, held in s[2])
        raised += sum(s is None for s in want.values())
    assert events > 0 and 0 < raised


def reload(boss, colors):
    """A new graph and new colors with empty query slots, by a round trip
    through the container format."""
    loaded, loaded_colors, _ = deserialize_index(serialize_index(boss, colors, IndexMeta()))
    return loaded, loaded_colors


def starting_preds_by_node(boss, colors) -> dict[int, list[tuple[int, bool]]]:
    """Per node with starting predecessors, the (u, branching) pairs that
    an assembly walk entering it activates, read node by node from the
    view as ``_assemble_from`` reads them, after one walk derived them."""
    contig_assm(boss, colors, int(boss.starting_node_ids()[0]), 1.0)
    kinds, parent = colors._query.starting_preds, colors._query.parent
    assert len(kinds) == boss.node_count + 1
    return {t: [(parent[t], kinds[t] == 3)] for t in range(1, boss.node_count + 1) if kinds[t] > 1}


@pytest.mark.parametrize("reads,k", [
    *[("mixed", k) for k in (3, 4, 9, 27, 28, 63)], ("wide", 9), ("errors", 25),
])
def test_starting_predecessors_per_node_match_the_whole_map(reads, k):
    # node by node, the view's starting predecessors are the (u,
    # branching) pairs of the map that assembly once derived whole from an
    # indegree count (oracle.starting_preds_ref), built and loaded; and
    # the byte is nonzero exactly at the nodes of indegree > 1
    read_set = {"wide": wide_read_set, "errors": error_read_set}.get(reads, lambda: mixed_read_set(1, k))()
    _, boss, colors, _ = index_for(list(read_set.reads), k)
    for graph, graph_colors in [(boss, colors), reload(boss, colors)]:
        want = starting_preds_ref(graph)
        assert starting_preds_by_node(graph, graph_colors) == want
        assert want or reads == "wide"
        kinds = graph_colors._query.starting_preds
        merges = [v for v in range(1, graph.node_count + 1) if indegree(graph, v) > 1]
        assert [v for v in range(1, graph.node_count + 1) if kinds[v]] == merges


def test_damaged_colors_after_intact_ones_raise_where_the_reference_does(mixed_indexes):
    # the view of the intact colors, filled by their queries, lends nothing
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
    """An index whose rows need more than one 64-bit word of bitmask: the
    wide reads and every other one extended by 6 symbols, so that the 40
    reads extended end at read-end branches, with colors up to 120."""
    reads = list(wide_read_set().reads)
    rng = np.random.default_rng(0)
    reads += [r + "".join(rng.choice(list("acgt"), size=6)) for r in reads[::2]]
    _, boss, colors, full = index_for(reads, 9)
    assert colors.num_colors > 64
    # colors tripled: up to 360, past the view's three words a row (at
    # most ⌈entries / p⌉), so the rows holding them are read from the
    # decoded rows
    rows = [[3 * c for c in row] for row in decode_table(full)]
    cands, kept = boss.implicit_candidates, colors.kept.to_bits()
    tripled = compress_ref(rows, boss.colorable, cands, kept)
    view = traversal._IndexView(boss, tripled)
    assert view.words.shape[1] == 3
    assert sum(m is None for m in view.row_masks()) == 196
    tripled_full = compress_ref(rows, boss.colorable, cands)
    return {"wide": (boss, colors, full), "tripled": (boss, tripled, tripled_full)}


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


def test_colors_past_the_words_are_looked_up_in_their_own_rows():
    # random rows of 1-3 colors from 100..300 on a graph with error
    # branches: the view keeps ⌈entries/p⌉ = 2 words a row, so colors
    # 129..300 are looked up by a binary search of the row, whose
    # neighbours often hold the color. Every start walked in lockstep with
    # each of those colors, held by the start or not, and with 301 matches
    # the reference
    cfg = SyntheticConfig(genome_len=300, read_len=40, coverage=6, seed=1, error_rate=0.02)
    boss = BossIndex.build(ReadSet.from_reads(generate_reads(cfg)[1]), k=9)
    rng = np.random.default_rng(0)
    rows = [sorted(rng.choice(np.arange(100, 301), int(rng.integers(1, 4)), replace=False).tolist())
            for _ in range(boss.colorable.count)]
    colors = compress_ref(rows, boss.colorable, boss.implicit_candidates)
    view = traversal._IndexView(boss, colors)
    assert view.words.shape[1] == 2
    view.hops = traversal._hop_table(view)
    starts = boss.starting_node_ids()
    far = np.arange(129, 302)
    cur, col = np.repeat(starts, len(far)), np.tile(far, len(starts))
    labels = dict(zip(starts.tolist(), traversal._labels(boss, starts)))
    got = [
        None if s is None else (labels[v] + s).strip("$")
        for v, s in zip(cur.tolist(), traversal._walk_lockstep(view, cur, col))
    ]
    want = [walk_color(boss, colors, v, c) for v, c in zip(cur.tolist(), col.tolist())]
    assert got == want
    assert sum(s is not None for s in got) > 0


@pytest.mark.parametrize("indexes", ["mixed_indexes", "error_indexes", "wide_indexes"])
def test_the_hop_table_matches_the_one_edge_reference(request, indexes):
    # every node's landing node, edges and mask, and the crossed nodes, as
    # oracle.hop_ref walks them one edge at a time, at k = 3 to 63. The
    # mask is the narrowest unsigned word of min(C, 64) bits. The tripled
    # index's ending rows hold colors past 64, so some of its read-end
    # branches stay branch steps while others are crossed
    kept = {}
    for name, (boss, colors, _) in request.getfixturevalue(indexes).items():
        view = traversal._IndexView(boss, colors)
        (hop_to, hop_len, crossed), masks = traversal._hop_table(view)
        assert masks.dtype == np.min_scalar_type((1 << min(colors.num_colors, 64)) - 1)
        refs = [hop_ref(view, v) for v in range(1, boss.node_count + 1)]
        assert hop_to[1:].tolist() == [land for land, _, _, _ in refs]
        assert hop_len[1:].tolist() == [taken for _, taken, _, _ in refs]
        assert [int(m) for m in masks[1:]] == [held for _, _, held, _ in refs]
        assert crossed.tolist() == [v for v, ref in enumerate(refs, 1) if ref[3][:1] == [v]]
        assert {u for ref in refs for u in ref[3]} <= set(crossed.tolist())
        read_ends = []
        for u in range(int(boss.K[1]) + 1, boss.node_count + 1):
            out = [t for _, _, t in boss.successors(u)]
            if len(out) == 2 and out[0] <= boss.K[1] and view.rank[out[1] - 1] == view.empty:
                read_ends.append(u)
        kept[name] = (len(crossed), len(set(read_ends) - set(crossed.tolist())))
    assert sum(n for n, _ in kept.values()) > 0, kept
    if indexes == "wide_indexes":
        assert kept["tripled"][1] > 0, kept


@pytest.mark.parametrize("indexes", ["mixed_indexes", "error_indexes", "wide_indexes"])
def test_start_colors_are_the_decoded_start_rows(request, indexes):
    # one gather over the view's decoded rows gives every start's row,
    # rows holding colors past the words included
    for boss, colors, _ in request.getfixturevalue(indexes).values():
        ids = boss.starting_node_ids()
        owner, col = traversal._IndexView(boss, colors).start_colors(ids)
        rows = decode_table(colors)
        want = [(i, c) for i, v in enumerate(ids.tolist()) for c in rows[colors.N.rank1(v) - 1]]
        assert list(zip(owner.tolist(), col.tolist())) == want


@pytest.mark.parametrize("indexes", ["mixed_indexes", "error_indexes", "wide_indexes"])
def test_the_view_ranks_rows_at_the_narrowest_signed_width(request, indexes):
    # node v's row is the rank of v in N less one, -1 for a node without a
    # row and p for an implicit successor, held in the narrowest signed
    # integer that holds -1 and p; the row masks wait for their first read
    for boss, colors, _ in request.getfixturevalue(indexes).values():
        view = traversal._IndexView(boss, colors)
        stored = colors.N.to_bits().view(bool)
        want = np.where(stored, np.cumsum(stored) - 1, -1)
        want[colors.implicit - 1] = colors.p
        width = next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max >= colors.p)
        assert view.rank.dtype == width and np.array_equal(view.rank, want)
        assert view.masks is None
        masks = view.row_masks()
        assert masks == row_masks_ref(colors, view.words.shape[1]) and view.row_masks() is masks


@pytest.mark.parametrize("indexes", ["mixed_indexes", "error_indexes", "wide_indexes"])
def test_the_view_words_take_at_most_two_per_entry(request, indexes):
    # W = min(⌈C/64⌉, ⌈entries/p⌉) words a row, so (p + 1)·W is at most
    # entries + entries/p + p + 1
    for boss, colors, _ in request.getfixturevalue(indexes).values():
        view = traversal._IndexView(boss, colors)
        assert view.words.size <= 2 * len(colors.payload) + colors.p + 1


def test_a_queried_index_is_freed_with_its_last_reference():
    # the view is held by the colors alone and holds no strong reference
    # back to the graph or the colors, so no cache and no reference cycle
    # keeps a dropped index alive
    _, boss, colors, _ = index_for(list(mixed_read_set(2, 4).reads), 4)
    start = int(boss.starting_node_ids()[0])
    build_seqs(boss, colors, start)
    reconstruct_all(boss, colors)
    assemble_all(boss, colors, 0.5)
    refs = [weakref.ref(x) for x in (boss, colors, colors._query)]
    gc.disable()  # freed by reference counts alone, without the cycle collector
    try:
        del boss, colors
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_colors_queried_with_another_graph_let_the_first_one_go():
    # colors queried with one load's graph and then with an equal load's
    # answer alike through both; the second query builds a view for the
    # second graph, and the view keeps neither graph: each is freed once
    # dropped while the colors live on
    _, boss, colors, _ = index_for(list(mixed_read_set(2, 4).reads), 4)
    g1, c = reload(boss, colors)
    g2, _ = reload(boss, colors)
    start = int(g1.starting_node_ids()[0])
    recovered = reconstruct_all(g1, c).recovered
    contigs = assemble_all(g1, c, 0.5)
    seqs = build_seqs(g1, c, start)
    assert reconstruct_all(g2, c).recovered == recovered
    assert assemble_all(g2, c, 0.5) == contigs
    assert build_seqs(g2, c, start) == seqs
    assert c._query.graph() is g2
    refs = [weakref.ref(g) for g in (g1, g2)]
    gc.disable()  # freed by reference counts alone, without the cycle collector
    try:
        del g1
        assert refs[0]() is None
        del g2
        assert refs[1]() is None and c._query is not None
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
        # each index with the N bits of its critical nodes cleared, in the
        # full table that both walks read; and, once per read-end branch
        # whose implicit successor has no row, with the row of its ending
        # sibling removed from the table as built and from the full table.
        # A run is derived ahead of the walk, but raises only where the
        # walk arrives: not for a sibling past where it stops, always for
        # one before. On the staggered reads one run crosses two read ends
        outcomes = {f"{kind} {how}": 0 for kind in ("critical", "read_end") for how in ("raised", "answered")}
        staggered = index_for(staggered_reads(), 9)[1:]
        for boss, colors, full in [*mixed_indexes.values(), staggered]:
            critical = without_critical_colors(boss, full)
            damages = [("critical", critical, critical, 0.5)]
            for e in read_end_siblings(boss, colors):
                damaged = without_the_row(boss, colors, full, e)
                damages += [("read_end", *damaged, x) for x in (0.5, 1.0)]
            for kind, damaged, damaged_full, x in damages:
                for v in boss.starting_node_ids().tolist():
                    try:
                        want = contig_assm_ref(boss, damaged_full, v, x)
                    except NotColored:
                        outcomes[f"{kind} raised"] += 1
                        with pytest.raises(NotColored):
                            contig_assm(boss, damaged, v, x)
                    else:
                        outcomes[f"{kind} answered"] += 1
                        assert contig_assm(boss, damaged, v, x) == want
                try:
                    want_all = assemble_all_ref(boss, damaged_full, x)
                except NotColored:
                    with pytest.raises(NotColored):
                        assemble_all(boss, damaged, x)
                else:
                    assert assemble_all(boss, damaged, x) == want_all
        assert min(outcomes.values()) > 0, outcomes


def staggered_reads() -> list[str]:
    """Three reads along one random 90 bp genome, each starting inside the
    one before and ending past it. The third starts before the first ends,
    so on each strand one run crosses the ends of the first two: at x = 1.0
    the walk from the first read's start stops at the first end."""
    rng = np.random.default_rng(7)
    genome = "".join(rng.choice(list("acgt"), size=90))
    return [genome[:30], genome[5:45], genome[20:]]


def read_end_siblings(boss, colors) -> list[int]:
    """The ending sibling of each implicit successor without a row in
    ``colors``."""
    siblings = []
    for t in colors.implicit.tolist():
        (u,) = [w for w in boss.backward(t) if len(boss.successors(w)) > 1]
        siblings.append(boss.successors(u)[0][2])
    return siblings


def without_the_row(boss, colors, full, e):
    """The table as built (``colors``) and the full table, both without
    node e's row: e is not colorable."""
    bits = boss.colorable.to_bits().copy()
    bits[e - 1] = 0
    rows = decode_table(full)
    del rows[boss.colorable.rank1(e) - 1]
    colorable, candidates = BitVector(bits), boss.implicit_candidates
    built = compress_ref(rows, colorable, candidates, colors.kept.to_bits().view(bool).tolist())
    return built, compress_ref(rows, colorable, candidates)


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
    boss, _, colors = without_the_end_color("aaaaa", 3, "a$")
    start = boss.label_to_node("$a")
    assert [walk_color(boss, colors, start, c) for c in get_colors(colors, start)] == [None]
    report = assert_matches_reference(boss, colors)
    assert report.per_start[start].ambiguous == 1


def without_the_end_color(read, k, end, color=99):
    """The graph of one read, with the read's color dropped from its ending
    node ``end``, which holds ``color`` instead, so the read's walk cycles:
    the graph, the table as built (an implicit successor keeps its row only
    where it shares a color with a sibling's) and the full table."""
    reads = ReadSet.from_reads([read])
    boss = BossIndex.build(reads, k=k)
    colorable = mark_colorable(boss)
    rows = table_rows(color_all(boss, colorable, reads))
    rows[colorable.rank1(boss.label_to_node(end)) - 1] = [color]
    kept = kept_ref(boss, colorable, rows)
    built = compress_ref(rows, colorable, boss.implicit_candidates, kept)
    return boss, built, compress(table_from_rows(rows), colorable)


# reads whose unary runs, between branches, are longer than k - 2 edges.
# The last read's path enters a cycle that holds no starting node and
# leaves it only at the read's end, a read-end branch
BUDGET_CUTS = [
    ("acgtacgtacgt", 4, "gt$", 12),
    ("acgtacgtacgtacgt", 5, "cgt$", 14),
    ("aacgtaacgtaacgtaacgt", 6, "acgt$", 28),
    ("gaacgatcaacgatcaacgatc", 6, "gatc$", 33),
]


@pytest.mark.parametrize("read, k, end, length", BUDGET_CUTS)
def test_assembly_cut_by_its_budget_matches_reference(read, k, end, length):
    # drop the read's color from its ending node: the walk then cycles
    # until its edge_count + 1 visits are spent, at times inside a run.
    # In the table as built, the read-end branch's implicit successor has
    # no row. Color 99 lies past the color view's one word, so the ending
    # sibling's mask is not in ``masks`` and a run stops at that branch;
    # color 64 lies inside it, so a run crosses the branch and each crossed
    # edge costs one visit. On the last read the run from its start goes
    # round the cycle until the budget cuts it
    for color in (99, 64):
        boss, colors, full = without_the_end_color(read, k, end, color)
        starts = boss.starting_node_ids().tolist()
        contigs = [contig_assm(boss, colors, v, 0.5) for v in starts]
        assert contigs == [contig_assm_ref(boss, full, v, 0.5) for v in starts]
        assert max(map(len, contigs)) == length
        assert assemble_all(boss, colors, 0.5) == assemble_all_ref(boss, full, 0.5)


@pytest.mark.parametrize("read, k, end", [case[:3] for case in BUDGET_CUTS])
def test_walks_cycling_through_long_unary_runs_match_reference(walk, read, k, end):
    # the read's walk cycles through unary runs longer than a hop's k - 2
    # edges until the edge_count + k step guard gives it up
    boss, _, colors = without_the_end_color(read, k, end)
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
    assert (outdeg[solid_mask(boss)] == 1).all()
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

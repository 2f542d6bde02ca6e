import numpy as np
import pytest

from cdbg.boss import BossIndex
from cdbg.errors import BadLabel, BadOrder, BoundsError, EmptyIndex
from cdbg.sequence import CODE_SYMBOLS, SYMBOL_CODES, ReadSet, reverse_complement

from oracle import (
    DUMMY,
    NaiveDbg,
    edge_disambiguation_flags,
    edge_targets_ref,
    forward_r,
    indegree,
    is_critical,
    is_ending,
    is_solid,
    label_to_node_ref,
    outdegree,
    solid_mask,
)

from conftest import error_read_set, mixed_read_set, wide_read_set


def oracle_for(reads: list[str], k: int) -> NaiveDbg:
    strings = ReadSet.from_reads(reads).strings_with_rc()
    return NaiveDbg(strings, k)


def assert_matches_oracle(boss: BossIndex, oracle: NaiveDbg):
    assert boss.node_count == oracle.node_count
    assert boss.edge_count == oracle.edge_count
    # K is derived from the edges: it must count the labels by last symbol
    last = [SYMBOL_CODES[lab[-1]] for lab in oracle.labels]
    assert boss.K.tolist() == np.cumsum(np.bincount(last, minlength=6)).tolist()
    labels = boss.node_labels(np.arange(1, boss.node_count + 1))
    assert ["".join(CODE_SYMBOLS[c] for c in row) for row in labels.tolist()] == oracle.labels
    for v in range(1, boss.node_count + 1):
        lab = boss.node_label(v)
        assert lab == oracle.label(v)
        assert boss.label_to_node(lab) == v
        assert outdegree(boss, v) == oracle.outdegree(lab)
        assert indegree(boss, v) == oracle.indegree(lab)
        assert boss.is_starting(v) == oracle.is_starting(lab)
        assert is_ending(boss, v) == oracle.is_ending(lab)
        assert is_solid(boss, v) == oracle.is_solid(lab)
        assert is_critical(boss, v) == oracle.is_critical(lab)
        for sym in "$acgt":
            got = boss.forward(v, sym)
            want = oracle.forward(lab, sym)
            assert (got is None and want is None) or (
                got is not None and boss.node_label(got) == want
            ), (lab, sym)
        for r in range(1, outdegree(boss, v) + 1):
            got = forward_r(boss, v, r)
            want = oracle.forward_r(lab, r)
            assert (got is None and want is None) or (
                got is not None and boss.node_label(got) == want
            )
        assert [boss.node_label(u) for u in boss.backward(v)] == oracle.backward(lab)
    closure_sources = boss.edge_sources()[boss.edge_targets() == 0].tolist()
    assert {boss.node_label(v) for v in closure_sources} == {
        src for src, out in oracle.out.items() if (DUMMY, None) in out
    }
    assert boss.starting_node_ids().tolist() == [
        v for v in range(1, boss.node_count + 1) if oracle.is_starting(oracle.label(v))
    ]
    assert solid_mask(boss).tolist() == [oracle.is_solid(lab) for lab in oracle.labels]
    assert boss.solid_count == sum(map(oracle.is_solid, oracle.labels))
    assert_targets_match_reference(boss)


def assert_targets_match_reference(boss: BossIndex):
    """Stored edge targets, derived edge sources and each node's parent (the
    source of its canonical incoming edge) against the ones derived from
    codes, flags, B and K by ``edge_targets_ref`` and ``B.rank1``."""
    targets = edge_targets_ref(boss)
    assert boss.edge_targets().tolist() == targets
    assert [boss.edge_target(pos) or 0 for pos in range(1, boss.edge_count + 1)] == targets
    B = boss.B
    sources = [B.rank1(pos) for pos in range(1, boss.edge_count + 1)]
    assert boss.edge_sources().tolist() == sources
    parent = [0] * (boss.node_count + 1)
    flags = edge_disambiguation_flags(boss).tolist()
    for src, t, flagged in zip(sources, targets, flags):
        if t and not flagged:
            assert parent[t] == 0, f"node {t} has two canonical incoming edges"
            parent[t] = src
    assert boss._parent.tolist() == parent
    assert not boss.edge_targets().flags.writeable


class TestWorkedExample:
    """R = {"tacgt"}, k = 4; hand-traceable fixture."""

    def test_node_taxonomy(self, e1_boss):
        labels = {e1_boss.node_label(v) for v in range(1, e1_boss.node_count + 1)}
        solid = {l for l in labels if "$" not in l}
        assert solid == {"tac", "acg", "cgt", "gta"}
        starting = {l for l in labels if e1_boss.is_starting(e1_boss.label_to_node(l))}
        assert starting == {"$ta", "$ac"}
        ending = {l for l in labels if is_ending(e1_boss, e1_boss.label_to_node(l))}
        assert ending == {"gt$", "ta$"}

    def test_outdegrees(self, e1_boss):
        assert outdegree(e1_boss, e1_boss.label_to_node("cgt")) == 2
        assert outdegree(e1_boss, e1_boss.label_to_node("tac")) == 1
        for lab in ("gt$", "ta$"):
            assert outdegree(e1_boss, e1_boss.label_to_node(lab)) == 1

    def test_forward(self, e1_boss):
        tac = e1_boss.label_to_node("tac")
        assert e1_boss.node_label(e1_boss.forward(tac, "g")) == "acg"
        assert e1_boss.forward(tac, "t") is None
        cgt = e1_boss.label_to_node("cgt")
        assert e1_boss.node_label(e1_boss.forward(cgt, "a")) == "gta"

    def test_forward_r(self, e1_boss):
        cgt = e1_boss.label_to_node("cgt")
        assert e1_boss.node_label(forward_r(e1_boss, cgt, 1)) == "gt$"
        assert e1_boss.node_label(forward_r(e1_boss, cgt, 2)) == "gta"
        tac = e1_boss.label_to_node("tac")
        assert e1_boss.node_label(forward_r(e1_boss, tac, 1)) == "acg"
        with pytest.raises(BoundsError):
            forward_r(e1_boss, tac, 2)

    def test_indegree(self, e1_boss):
        assert indegree(e1_boss, e1_boss.label_to_node("acg")) == 2
        assert indegree(e1_boss, e1_boss.label_to_node("tac")) == 1
        assert indegree(e1_boss, 1) == 0  # all-dummy root

    def test_backward(self, e1_boss):
        acg = e1_boss.label_to_node("acg")
        assert [e1_boss.node_label(u) for u in e1_boss.backward(acg)] == ["$ac", "tac"]
        tac = e1_boss.label_to_node("tac")
        assert [e1_boss.node_label(u) for u in e1_boss.backward(tac)] == ["$ta"]
        assert e1_boss.backward(1) == []

    def test_node_label_inverse(self, e1_boss):
        assert e1_boss.node_label(e1_boss.label_to_node("$ta")) == "$ta"
        assert e1_boss.node_label(1) == "$$$"
        with pytest.raises(BoundsError):
            e1_boss.node_label(e1_boss.node_count + 1)

    def test_label_to_node(self, e1_boss):
        assert e1_boss.label_to_node("ttt") is None
        with pytest.raises(BadLabel):
            e1_boss.label_to_node("tac" + "g")
        with pytest.raises(BadLabel, match="'tnc' contains symbols outside the alphabet"):
            e1_boss.label_to_node("tnc")

    @pytest.mark.parametrize("a, message", [
        ("n", "symbol 'n' outside alphabet"),
        ("A", "symbol 'A' outside alphabet"),
        (0, "symbol code 0 outside \\[1, 5\\]"),
        (6, "symbol code 6 outside \\[1, 5\\]"),
    ])
    def test_forward_refuses_a_symbol_outside_the_alphabet(self, e1_boss, a, message):
        with pytest.raises(BoundsError, match=message):
            e1_boss.forward(e1_boss.label_to_node("tac"), a)

    @pytest.mark.parametrize("ids", [[0], [1, 12], [12, 1]])
    def test_node_labels_refuses_an_id_out_of_range(self, e1_boss, ids):
        # the worked example's nodes are ids 1..11
        with pytest.raises(BoundsError, match="node id out of range \\[1, 11\\]"):
            e1_boss.node_labels(np.array(ids))

    def test_taxonomy_predicates(self, e1_boss):
        assert e1_boss.is_starting(e1_boss.label_to_node("$ta"))
        assert not e1_boss.is_starting(e1_boss.label_to_node("$$t"))
        assert is_critical(e1_boss, e1_boss.label_to_node("gta"))
        assert not is_critical(e1_boss, e1_boss.label_to_node("acg"))

    def test_matches_oracle(self, e1_boss):
        assert_matches_oracle(e1_boss, oracle_for(["tacgt"], 4))


class TestBuildContract:
    def test_empty_read_set(self):
        with pytest.raises(EmptyIndex):
            BossIndex.build(ReadSet.from_reads([]), k=4)

    def test_all_reads_too_short(self):
        with pytest.raises(EmptyIndex):
            BossIndex.build(ReadSet.from_reads(["acg", "ttt"]), k=9)

    def test_bad_order(self):
        reads = ReadSet.from_reads(["acgtacgt"])
        with pytest.raises(BadOrder):
            BossIndex.build(reads, k=2)
        with pytest.raises(BadOrder):
            BossIndex.build(reads, k=64)

    def test_rc_fixed_point_inserted_once(self):
        # "acgt" is its own reverse complement
        rs = ReadSet.from_reads(["acgt"])
        assert rs.strings_with_rc() == ["acgt"]
        boss = BossIndex.build(rs, k=3)
        assert_matches_oracle(boss, NaiveDbg(["acgt"], 3))

    def test_short_reads_skipped_not_fatal(self):
        boss = BossIndex.build(ReadSet.from_reads(["tacgt", "acg"]), k=4)
        ref = BossIndex.build(ReadSet.from_reads(["tacgt"]), k=4)
        assert boss.node_count == ref.node_count


class TestInvariants:
    def test_outdegree_sums_to_edge_count(self, e1_boss):
        total = sum(outdegree(e1_boss, v) for v in range(1, e1_boss.node_count + 1))
        assert total == e1_boss.edge_count

    def test_label_sort_invariant(self, e1_boss):
        keys = [e1_boss.node_label(v)[::-1] for v in range(1, e1_boss.node_count + 1)]
        assert keys == sorted(keys)

    def test_k_array(self, e1_boss):
        k_arr = e1_boss.K
        assert k_arr[0] == 0
        assert k_arr[-1] == e1_boss.node_count
        assert np.all(np.diff(k_arr) >= 0)

    def test_b_has_one_bit_per_node(self, e1_boss):
        assert e1_boss.B.count == e1_boss.node_count

    def test_forward_backward_duality(self, e1_boss):
        for v in range(1, e1_boss.node_count + 1):
            for _, _, u in e1_boss.successors(v):
                assert v in e1_boss.backward(u)
            for u in e1_boss.backward(v):
                assert any(t == v for _, _, t in e1_boss.successors(u))


# k=27 is the widest one-word key; 28, 41 and 54 put the edge symbol alone
# in a folded word, 40 fills the second word and 55 folds four words
@pytest.mark.parametrize(
    "seed,k",
    [(1, 5), (2, 9), (3, 15), (4, 5), (5, 9), (6, 3), (7, 63)]
    + [(8, 27), (9, 28), (10, 40), (11, 41), (12, 54), (13, 55)],
)
def test_random_read_sets_match_oracle(seed, k):
    # plus one duplicate read and one read contained in another
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    reads = [
        "".join(rng.choice(list("acgt"), size=int(rng.integers(max(20, k + 1), max(41, k + 21)))))
        for _ in range(n)
    ]
    reads += [reads[0], reads[1][1 : k + 1]]
    boss = BossIndex.build(ReadSet.from_reads(reads), k=k)
    assert_matches_oracle(boss, oracle_for(reads, k))


def test_palindromic_and_duplicate_reads():
    reads = ["acgt", "acgt", "tttt"]
    rs = ReadSet.from_reads(reads)
    assert rs.n_duplicates == 1
    boss = BossIndex.build(rs, k=3)
    assert_matches_oracle(boss, NaiveDbg(rs.strings_with_rc(), 3))


def test_reads_sharing_suffixes_merge_chains():
    reads = ["ttacag", "ggacag", "ttacat"]
    boss = BossIndex.build(ReadSet.from_reads(reads), k=4)
    assert_matches_oracle(boss, oracle_for(reads, 4))


def lookup_probes(boss: BossIndex, rng) -> list[str]:
    """Every node's label, and labels that no node need have: a `$` inside
    a node's label, the all-`$` label, labels ending in `$` and random
    strings with and without `$`."""
    w = boss.k - 1
    labels = [boss.node_label(v) for v in range(1, boss.node_count + 1)]

    def rand(alphabet: str, n: int = w) -> str:
        return "".join(rng.choice(list(alphabet), size=n))

    inside = [lab[: w // 2] + DUMMY + lab[w // 2 + 1 :] for lab in labels[::3]]
    ending = [rand("acgt", w - 1) + DUMMY for _ in range(50)] + [lab[1:] + DUMMY for lab in labels[::7]]
    return labels + inside + [DUMMY * w] + ending + [rand(a) for a in ("acgt", "$acgt") for _ in range(100)]


@pytest.mark.parametrize("reads,k", [
    *[("mixed", k) for k in (3, 4, 9, 27, 28, 63)], ("wide", 9), ("errors", 25),
])
def test_label_lookup_matches_the_full_label_search(reads, k):
    # label_to_node stops each probe at the first symbol that differs; it
    # answers as the search whose probes spell whole labels
    # (oracle.label_to_node_ref) on every node's label and on absent ones
    read_set = {"wide": wide_read_set, "errors": error_read_set}.get(reads, lambda: mixed_read_set(1, k))()
    boss = BossIndex.build(read_set, k=k)
    probes = lookup_probes(boss, np.random.default_rng(k))
    got = [boss.label_to_node(lab) for lab in probes]
    assert got == [label_to_node_ref(boss, lab) for lab in probes]
    assert got[: boss.node_count] == list(range(1, boss.node_count + 1))

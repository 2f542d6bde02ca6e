import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdbg.bitvectors import BitVector
from cdbg.boss import BossIndex
from cdbg.coloring import color_all, mark_colorable
from cdbg.colormatrix import CompressedColors, compress, decode_rows, get_colors
from cdbg.errors import IncompleteColoring, NotColored
from cdbg.sequence import ReadSet
from cdbg._binio import Reader, Writer

from oracle import decode_table, table_from_rows, table_rows


def table_of(rows):
    return table_from_rows(rows)


def colorable_of(p, n=None):
    n = n or p
    bits = np.zeros(n, dtype=np.uint8)
    bits[:p] = 1
    return BitVector(bits)


class TestCompress:
    def test_delta_layout(self):
        cc = compress(table_of([[1], [1, 3], [2]]), colorable_of(3))
        # prefix sums of deltas [1, 1, 2, 2]
        assert list(cc.payload.to_array()) == [1, 2, 4, 6]
        assert list(cc.F.to_bits()) == [1, 1, 0, 1]
        assert cc.num_colors == 3

    def test_single_row(self):
        cc = compress(table_of([[5]]), colorable_of(1))
        assert list(cc.payload.to_array()) == [5]
        assert list(cc.F.to_bits()) == [1]

    def test_empty_row_raises(self):
        with pytest.raises(IncompleteColoring):
            compress(table_of([[1], []]), colorable_of(2))

    def test_f_invariants(self):
        cc = compress(table_of([[2, 7], [1], [3, 4, 9]]), colorable_of(3))
        assert cc.F.count == cc.p
        assert cc.F.get(0) == 1

    @given(
        st.lists(
            st.lists(st.integers(1, 200), min_size=1, max_size=6, unique=True).map(sorted),
            min_size=1,
            max_size=30,
        )
    )
    def test_roundtrip_random_tables(self, rows):
        cc = compress(table_of(rows), colorable_of(len(rows)))
        assert decode_table(cc) == [list(r) for r in rows]

    def test_payload_strictly_increasing(self):
        cc = compress(table_of([[1, 2], [1], [4]]), colorable_of(3))
        ps = cc.payload.to_array()
        assert np.all(np.diff(ps) > 0)


@pytest.fixture(scope="module")
def e1():
    boss = BossIndex.build(ReadSet.from_reads(["tacgt"]), k=4)
    colorable = mark_colorable(boss)
    table = color_all(boss, colorable, ReadSet.from_reads(["tacgt"]))
    return boss, compress(table, colorable), table


def stored_rows(boss, cc, table):
    """The table's rows of the nodes that keep one in cc."""
    ones = boss.colorable.ones_positions().tolist()
    return [row for pos, row in zip(ones, table_rows(table)) if cc.N.get(pos)]


class TestGetColors:

    def test_worked_example(self, e1):
        boss, cc, _ = e1
        assert get_colors(cc, boss.label_to_node("gt$")) == [1]
        assert get_colors(cc, boss.label_to_node("ta$")) == [2]

    def test_implicit_successor_has_no_row(self, e1):
        # gta is the one solid successor of the branching node cgt, whose
        # other successor gt$ is an ending node: its row [2] is dropped
        boss, cc, table = e1
        gta = boss.label_to_node("gta")
        assert boss.implicit_candidates.tolist() == cc.implicit.tolist() == [gta]
        assert table_rows(table)[boss.colorable.rank1(gta) - 1] == [2]
        assert (cc.p, boss.colorable.count) == (4, 5) and not cc.N.get(gta - 1)
        with pytest.raises(NotColored):
            get_colors(cc, gta)

    def test_not_colored(self, e1):
        boss, cc, _ = e1
        with pytest.raises(NotColored):
            get_colors(cc, boss.label_to_node("acg"))

    def test_roundtrip_matches_dynamic_table(self, e1):
        boss, cc, table = e1
        assert decode_table(cc) == stored_rows(boss, cc, table)
        full = compress(table_from_rows(table_rows(table)), boss.colorable)
        assert decode_table(full) == table_rows(table)

    def test_serialization_roundtrip(self, e1):
        # the section stores neither N nor the number of colours: the
        # loader derives N from the graph's explicit colourable nodes and
        # the implicit successors that keep a row, here none, and takes
        # the largest last colour
        boss, cc, table = e1
        w = Writer()
        cc.serialize(w)
        cc2 = CompressedColors.deserialize(
            Reader(w.getvalue()), boss.explicit_colorable, boss.implicit_candidates
        )
        assert decode_table(cc2) == stored_rows(boss, cc, table)
        assert cc2.N is boss.explicit_colorable and cc2.implicit is boss.implicit_candidates
        assert (cc2.p, cc2.num_colors) == (cc.p, cc.num_colors)


@given(st.lists(st.lists(st.integers(1, 70), min_size=1, max_size=5, unique=True).map(sorted),
                max_size=30))
def test_loaded_num_colors_is_the_largest_last_color(drawn):
    # a greedy coloring uses every color 1..C in some row, as the load
    # check requires: number the drawn colors 1..C in order
    number = {c: i for i, c in enumerate(sorted(set().union(*drawn)), 1)}
    rows = [[number[c] for c in row] for row in drawn]
    cc = compress(table_of(rows), colorable_of(len(rows)))
    w = Writer()
    cc.serialize(w)
    cc2 = CompressedColors.deserialize(Reader(w.getvalue()), cc.N, np.zeros(0, dtype=np.int64))
    assert decode_table(cc2) == rows
    assert cc2.num_colors == cc.num_colors == max((row[-1] for row in rows), default=0)


def test_size_beats_plain_bit_matrix():
    """Serialized triple stays below the p x num_colors plain bit matrix."""
    rng = np.random.default_rng(9)
    p, num_colors = 600, 64
    rows = [sorted(rng.choice(np.arange(1, num_colors + 1), size=rng.integers(1, 4), replace=False).tolist()) for _ in range(p)]
    n_nodes = 4 * p
    bits = np.zeros(n_nodes, dtype=np.uint8)
    bits[rng.choice(n_nodes, size=p, replace=False)] = 1
    cc = compress(table_of(rows), BitVector(bits))
    w = Writer()
    cc.serialize(w)
    plain_matrix_bytes = (p * num_colors + 7) // 8
    assert len(w.getvalue()) <= plain_matrix_bytes


@pytest.mark.parametrize("max_len,tag", [(1, 1), (24, 2)])
def test_decode_rows_matches_get_colors(max_len, tag):
    """Rows of one color keep F plain; rows of 12 to 24 colors make F
    sparse enough that its positions serialize smaller, as the long rows
    of a repeat can. Either way the loaded colors answer alike."""
    rng = np.random.default_rng(max_len)
    p = 80
    rows = [
        sorted(rng.choice(np.arange(1, 40), size=int(n), replace=False).tolist())
        for n in rng.integers(max(1, max_len // 2), max_len + 1, size=p)
    ]
    bits = np.zeros(3 * p, dtype=np.uint8)
    bits[rng.choice(3 * p, size=p, replace=False)] = 1
    built = compress(table_of(rows), BitVector(bits))
    w = Writer()
    built.serialize(w)
    assert w.getvalue()[built.structure_bytes()["payload"]] == tag  # F's tag byte
    cc = CompressedColors.deserialize(Reader(w.getvalue()), built.N, np.zeros(0, dtype=np.int64))
    offsets, colors = decode_rows(cc)
    for r, pos in enumerate(cc.N.ones_positions()):
        assert colors[offsets[r] : offsets[r + 1]].tolist() == get_colors(cc, int(pos) + 1)
    assert decode_table(cc) == rows


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdbg._binio import Reader, Writer
from cdbg.bitvectors import BitVector, MonotoneSequence, SymbolSequence
from cdbg.errors import BoundsError, IntegrityError


def naive_rank(bits, i):
    return int(np.sum(bits[:i]))


def naive_select(bits, j):
    return int(np.flatnonzero(bits)[j - 1]) + 1


def serialized(obj) -> bytes:
    w = Writer()
    obj.serialize(w)
    return w.getvalue()


def sparse_stored(positions) -> bytes:
    """A bitvector stored as its set positions (tag 2), whatever its size."""
    w = Writer()
    w.u8(2)
    MonotoneSequence(np.asarray(positions, dtype=np.int64)).serialize(w)
    return w.getvalue()


def encoded(bits, tag: int) -> bytes:
    """bits stored in the encoding of the given tag, the smaller or not:
    the packed words (1) or the set positions (2)."""
    if tag == 2:
        return sparse_stored(np.flatnonzero(bits))
    w = Writer()
    w.u8(1)
    w.array(BitVector(bits)._words)
    return w.getvalue()


def loaded(bits, tag: int) -> BitVector:
    """bits stored in the encoding of the given tag and loaded again."""
    bits = np.asarray(bits, dtype=np.uint8)
    r = Reader(encoded(bits, tag))
    bv = BitVector.deserialize(r, len(bits))
    assert r.done() and type(bv) is BitVector
    return bv


class TestBitVectorExamples:
    """bits = 10110 pinned answers, loaded from either stored encoding."""

    @pytest.mark.parametrize("tag", [1, 2])
    def test_rank(self, tag):
        bv = loaded([1, 0, 1, 1, 0], tag)
        assert bv.rank1(0) == 0
        assert bv.rank1(5) == 3
        assert bv.rank1(3) == 2

    @pytest.mark.parametrize("tag", [1, 2])
    def test_select(self, tag):
        bv = loaded([1, 0, 1, 1, 0], tag)
        assert bv.select1(1) == 1
        assert bv.select1(3) == 4

    @pytest.mark.parametrize("tag", [1, 2])
    def test_select_out_of_range(self, tag):
        bv = loaded([0, 0, 0, 0, 1], tag)
        assert bv.select1(1) == 5
        with pytest.raises(BoundsError):
            bv.select1(2)

    @pytest.mark.parametrize("tag", [1, 2])
    def test_rank_out_of_range(self, tag):
        bv = loaded([1, 0], tag)
        with pytest.raises(BoundsError):
            bv.rank1(3)

    @pytest.mark.parametrize("tag", [1, 2])
    def test_get_ones_and_bits(self, tag):
        bv = loaded([1, 0, 1, 1, 0], tag)
        assert [bv.get(i) for i in range(5)] == [1, 0, 1, 1, 0]
        assert bv.ones_positions().tolist() == [0, 2, 3]
        assert bv.to_bits().tolist() == [1, 0, 1, 1, 0]
        assert bv.count == 3
        with pytest.raises(BoundsError):
            bv.get(5)


@pytest.mark.parametrize("tag", [1, 2])
def test_each_encoding_loads_to_the_built_words(tag):
    """A vector whose smaller encoding is the given one is stored in it
    and loads to the words, count and answers of the vector built from
    its bits."""
    rng = np.random.default_rng(tag)
    bits = (rng.random(5000) < {1: 0.3, 2: 0.01}[tag]).astype(np.uint8)
    built = BitVector(bits)
    data = serialized(built)
    assert data[0] == tag and data == encoded(bits, tag)
    r = Reader(data)
    bv = BitVector.deserialize(r, len(bits))
    assert r.done() and type(bv) is BitVector
    assert np.array_equal(bv._words, built._words) and bv.count == built.count
    ones = np.flatnonzero(bits)
    assert [bv.get(int(i)) for i in ones[:50]] == [1] * 50
    assert [bv.rank1(int(i)) for i in ones] == list(range(len(ones)))
    assert [bv.select1(j) for j in range(1, len(ones) + 1)] == (ones + 1).tolist()
    assert np.array_equal(bv.ones_positions(), ones)
    assert np.array_equal(bv.to_bits(), bits)


def test_differential_rank_select_1000_random_vectors():
    """Rank at both ends and 16 random positions, and select at the first
    and last set bit of every 64-bit word and 16 random occurrences, equal
    the linear-scan oracle: every word of select's rank directory and both
    ends of each in-word scan are checked. Each vector is stored and
    loaded, in the sparse encoding where that is smaller."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 4097))
        density = rng.uniform(0.01, 0.99)
        bits = (rng.random(n) < density).astype(np.uint8)
        bv = BitVector.deserialize(Reader(serialized(BitVector(bits))), n)
        cum = np.concatenate([[0], np.cumsum(bits)])
        for i in [0, n, *rng.integers(0, n + 1, size=16).tolist()]:
            assert bv.rank1(i) == cum[i]
        ones = np.flatnonzero(bits) + 1
        if len(ones):
            word = (ones - 1) >> 6
            ends = np.diff(word, prepend=-1) | np.diff(word, append=word[-1] + 1)
            js = (np.flatnonzero(ends) + 1).tolist() + rng.integers(1, len(ones) + 1, 16).tolist()
            assert [bv.select1(j) for j in js] == ones[np.array(js) - 1].tolist()
        # select1(rank1(select1(j))) == select1(j)
        if len(ones):
            j = int(rng.integers(1, len(ones) + 1))
            p = bv.select1(j)
            assert bv.select1(bv.rank1(p)) == p


@given(st.lists(st.integers(0, 1), min_size=0, max_size=300))
def test_bitvector_roundtrip_both_encodings(bits_list):
    bits = np.array(bits_list, dtype=np.uint8)
    for tag in (1, 2):
        assert np.array_equal(loaded(bits, tag).to_bits(), bits)


@given(st.integers(0, 300), st.floats(0, 1), st.randoms(use_true_random=False))
def test_bit_vector_is_stored_in_the_smaller_encoding(n, density, rnd):
    bits = np.array([rnd.random() < density for _ in range(n)], dtype=np.uint8)
    data = serialized(BitVector(bits))
    sizes = {tag: len(encoded(bits, tag)) for tag in (1, 2)}
    assert data[0] == (2 if sizes[2] < sizes[1] else 1)
    assert data == encoded(bits, data[0])
    r = Reader(data)
    assert np.array_equal(BitVector.deserialize(r, n).to_bits(), bits) and r.done()


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 127, 1000, 2049, 4096])
@pytest.mark.parametrize("density", [0.0, 0.002, 0.02, 0.05, 0.1, 0.15, 0.2, 0.5, 0.9, 1.0])
def test_bit_vector_choice_matches_serializing_both(n, density):
    # serialize computes both sizes; the rule it replaces serialized both
    rng = np.random.default_rng(n * 1000 + int(density * 1000))
    for _ in range(5):
        bits = (rng.random(n) < density).astype(np.uint8)
        plain, sparse = encoded(bits, 1), encoded(bits, 2)
        data = serialized(BitVector(bits))
        assert data == (sparse if len(sparse) < len(plain) else plain)
        pos = np.flatnonzero(bits)
        size = MonotoneSequence.serialized_size(len(pos), int(pos[-1]) if len(pos) else 0)
        assert 1 + size == len(sparse)  # tag byte, then the sequence
        r = Reader(data)
        assert np.array_equal(BitVector.deserialize(r, n).to_bits(), bits) and r.done()


def test_sparse_serializes_smaller_than_plain():
    rng = np.random.default_rng(3)
    bits = np.zeros(200_000, dtype=np.uint8)
    bits[rng.choice(200_000, size=500, replace=False)] = 1
    assert len(encoded(bits, 2)) < len(encoded(bits, 1))
    assert serialized(BitVector(bits)) == encoded(bits, 2)


@pytest.mark.parametrize("density,tag", [(0.5, 2), (0.001, 1)])
def test_a_loaded_vector_is_written_in_its_smaller_encoding(density, tag):
    # a foreign writer's larger encoding loads, and is written back in the
    # smaller one
    bits = (np.random.default_rng(0).random(3000) < density).astype(np.uint8)
    bv = BitVector.deserialize(Reader(encoded(bits, tag)), len(bits))
    assert serialized(bv) == encoded(bits, 3 - tag) != encoded(bits, tag)


def test_unknown_tag_is_refused():
    with pytest.raises(IntegrityError, match="unknown bitvector tag 3"):
        BitVector.deserialize(Reader(b"\x03" + bytes(8)), 10)


class TestMonotoneSequence:
    def test_examples(self):
        assert MonotoneSequence(np.array([0])).access(0) == 0
        seq = MonotoneSequence(np.array([1, 2, 4, 4, 9]))
        assert seq.access(2) == 4
        with pytest.raises(BoundsError):
            seq.access(5)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            MonotoneSequence(np.array([3, 1]))

    @given(
        st.lists(st.integers(0, 2**40), min_size=0, max_size=400).map(sorted)
    )
    def test_roundtrip(self, values):
        vals = np.array(values, dtype=np.int64)
        seq = MonotoneSequence(vals)
        assert np.array_equal(seq.to_array(), vals)
        w = Writer()
        seq.serialize(w)
        seq2 = MonotoneSequence.deserialize(Reader(w.getvalue()))
        assert np.array_equal(seq2.to_array(), vals)
        for j in range(0, len(vals), max(1, len(vals) // 7)):
            assert seq.access(j) == vals[j]

    def test_large_roundtrip(self):
        rng = np.random.default_rng(11)
        vals = np.cumsum(rng.integers(0, 100, size=1_000_000))
        seq = MonotoneSequence(vals)
        assert np.array_equal(seq.to_array(), vals)
        assert seq.access(999_999) == int(vals[-1])

    @pytest.mark.parametrize("gap", [1, 3, 37, 1000, 2**20 + 7, 2**35 + 3])
    def test_access_every_entry_matches_to_array(self, gap):
        # gaps set the low-bit width, so entries straddle word boundaries
        vals = np.cumsum(np.random.default_rng(gap).integers(0, gap, size=300))
        seq = MonotoneSequence(vals)
        got = [seq.access(j) for j in range(len(vals))]
        assert all(type(x) is int for x in got)
        assert got == vals.tolist() == seq.to_array().tolist()

    @pytest.mark.parametrize("gap", [1, 3, 37, 1000, 2**20 + 7, 2**35 + 3])
    def test_access_range_matches_access(self, gap):
        vals = np.cumsum(np.random.default_rng(gap).integers(0, gap, size=300))
        seq = MonotoneSequence(vals)
        want = [seq.access(j) for j in range(len(vals))]
        assert seq.access_range(0, len(vals)) == want
        for i in range(len(vals)):
            assert seq.access_range(i, i + 1) == want[i : i + 1]
            j = min(len(vals), i + 1 + i % 9)
            assert seq.access_range(i, j) == want[i:j]
            assert seq.access_range(i, i) == []
        assert all(type(x) is int for x in seq.access_range(0, len(vals)))
        for i, j in ((-1, 2), (2, 1), (0, len(vals) + 1)):
            with pytest.raises(BoundsError):
                seq.access_range(i, j)

    def test_high_bits_must_mark_n_entries(self):
        seq = MonotoneSequence(np.array([1, 2, 4, 4, 9]))
        seq.n += 1
        with pytest.raises(IntegrityError, match="high bits mark 5 entries in 1 words, not 6"):
            MonotoneSequence.deserialize(Reader(serialized(seq)))

    def test_high_bits_end_at_the_last_entry(self):
        # 32 entries of no low bits, the last 32: its high bit is bit 63,
        # so the high bits fill one word exactly
        vals = np.r_[0:31, 32]
        seq = MonotoneSequence(vals)
        assert seq._low_bits == 0 and len(seq._high._words) == 1
        assert MonotoneSequence.deserialize(Reader(serialized(seq))).to_array().tolist() == vals.tolist()

    def test_high_words_must_end_with_the_last_entry(self):
        seq = MonotoneSequence(np.array([1, 2, 4, 4, 9]))
        seq._high._words = np.append(seq._high._words, np.uint64(0))
        with pytest.raises(IntegrityError, match="in 2 words, not 5"):
            MonotoneSequence.deserialize(Reader(serialized(seq)))

    @pytest.mark.parametrize("values,width,ok", [
        ([5], 63, False), ([5], 64, False), ([0], 63, True), ([0], 64, False),
        ([2**63 - 1], 63, True), ([2**62, 2**63 - 1], 62, True),  # as built
    ])
    def test_stored_width_must_keep_values_in_int64(self, values, width, ok):
        # one entry holding 5 has high part 1 at its built width 2; at
        # stored width 64 it would decode as 1 through to_array and as
        # 2**64 + 1 through access_range. A width is refused when the
        # largest value it and the high bits allow exceeds 2**63 - 1
        seq = MonotoneSequence(np.array(values, dtype=np.int64))
        data = bytearray(serialized(seq))
        data[8] = width
        n_low = (len(values) * width + 63) // 64 - len(seq._lows)
        data[9:9] = bytes(8 * n_low)  # the low words the stored width needs
        if not ok:
            with pytest.raises(IntegrityError, match=f"values of {width} low bits overflow int64"):
                MonotoneSequence.deserialize(Reader(bytes(data)))
            return
        loaded = MonotoneSequence.deserialize(Reader(bytes(data)))
        assert loaded.to_array().tolist() == loaded.access_range(0, len(values))
        assert min(loaded.to_array()) >= 0


class TestSymbolSequence:
    @given(
        st.lists(st.integers(1, 5), min_size=0, max_size=200),
        st.integers(0, 4),
        st.integers(0, 30),
    )
    def test_packed_roundtrip(self, codes_list, start, run):
        # in a graph every closure edge's node is entered by another $ edge
        codes_list = codes_list + [1] * run
        start = min(start, len(codes_list))
        codes = np.array(codes_list[:start] + [1] * run + codes_list[start:], dtype=np.uint8)
        data = serialized(SymbolSequence(codes, start, run))
        other = np.array(codes_list, dtype=np.uint8)
        rest = int((other != 1).sum())
        assert len(data) == 1 + 8 + len(serialized(BitVector(other == 1))) + (2 * rest + 7) // 8
        ss = SymbolSequence.deserialize(Reader(data), len(codes))
        assert np.array_equal(ss.codes(), codes)
        assert (ss.closure_start, ss.closure_len) == (start, run)
        for i in range(1, len(codes) + 1):
            assert ss.access(i) == codes[i - 1]

    def test_closure_run_must_be_dollars_inside(self):
        codes = np.array([2, 1, 1, 3], dtype=np.uint8)
        SymbolSequence(codes, 1, 2)
        for start, run in [(0, 2), (2, 2), (3, 2)]:
            with pytest.raises(ValueError, match="closure run"):
                SymbolSequence(codes, start, run)

    @staticmethod
    def stored(marks: bytes, payload: bytes, start: int = 0, run: int = 0) -> Reader:
        return Reader(bytes([start]) + run.to_bytes(8, "little") + marks + payload)

    @pytest.mark.parametrize("n,payload", [(3, b""), (10**12, b"")])
    def test_rejects_wrong_byte_count(self, n, payload):
        # n symbols, none of them $, and no packed codes; the sparse marks
        # of 10**12 bits are refused before anything of that length is
        # allocated
        marks = sparse_stored([])
        with pytest.raises(IntegrityError, match="truncated"):
            SymbolSequence.deserialize(self.stored(marks, payload), n)

    @pytest.mark.parametrize("byte", [0b01000000, 0b10000000])
    def test_rejects_bits_past_the_last_symbol(self, byte):
        # three 2-bit codes fill bits 0..5 of the one byte
        marks = serialized(BitVector(np.zeros(3, dtype=np.uint8)))
        ok = SymbolSequence.deserialize(self.stored(marks, b"\x24"), 3)
        assert ok.codes().tolist() == [2, 3, 4]
        with pytest.raises(IntegrityError, match="past their last symbol"):
            SymbolSequence.deserialize(self.stored(marks, bytes([0x24 | byte])), 3)

    def test_rejects_a_closure_run_longer_than_the_sequence(self):
        with pytest.raises(IntegrityError, match="3 closure edges exceed the 2 edges"):
            SymbolSequence.deserialize(Reader(bytes([0]) + (3).to_bytes(8, "little")), 2)

import hashlib
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from cdbg._binio import Reader, Writer
from cdbg.bitvectors import MonotoneSequence, SymbolSequence, read_bit_vector

from cdbg.boss import BossIndex
from cdbg.coloring import color_all, mark_colorable
from cdbg.colormatrix import compress
from cdbg.container import (
    FORMAT_VERSION,
    IndexMeta,
    deserialize_index,
    read_index,
    section_sizes,
    serialize_index,
    write_index,
)
from cdbg.errors import IntegrityError, ParseError
from cdbg.fastx import parse_reads, sniff_format, write_fasta
from cdbg.sequence import SYMBOL_CODES, ReadSet
from cdbg.synthetic import SyntheticConfig, generate_reads
from cdbg.traversal import assemble_all, reconstruct_all

from conftest import mixed_read_set
from oracle import decode_table, indegree, outdegree


@pytest.fixture()
def built(tmp_path):
    reads = ReadSet.from_reads(["tacgt"])
    boss = BossIndex.build(reads, k=4)
    colorable = mark_colorable(boss)
    colors = compress(color_all(boss, colorable, reads), colorable)
    meta = IndexMeta(plain_bytes=reads.plain_bytes, n_reads=1, n_strings=2)
    return boss, colors, meta


def container_of(reads: ReadSet, k: int) -> bytes:
    boss = BossIndex.build(reads, k=k)
    colorable = mark_colorable(boss)
    colors = compress(color_all(boss, colorable, reads), colorable)
    return serialize_index(boss, colors, IndexMeta())


@pytest.fixture()
def mixed():
    """The container of a mixed read set at k=9, whose colour payload has
    one low bit per entry (the worked example's has none)."""
    return container_of(mixed_read_set(1, 9), 9)


class TestFastx:
    def test_fasta_roundtrip(self, tmp_path):
        p = tmp_path / "reads.fa"
        write_fasta(p, ["acgt", "ttaa"])
        rs = parse_reads(p)
        assert rs.reads == ("acgt", "ttaa")

    def test_multiline_fasta(self, tmp_path):
        p = tmp_path / "multi.fa"
        p.write_text(">r1\nacg\ntac\n>r2\nggtt\n")
        assert parse_reads(p).reads == ("acgtac", "ggtt")

    def test_fastq(self, tmp_path):
        p = tmp_path / "reads.fq"
        p.write_text("@r1\nACGT\n+\nIIII\n@r2\nttgg\n+\nIIII\n")
        rs = parse_reads(p)
        assert rs.reads == ("acgt", "ttgg")

    def test_record_with_n_rejected_counted(self, tmp_path):
        p = tmp_path / "n.fq"
        p.write_text("@r1\nACGNT\n+\nIIIII\n")
        rs = parse_reads(p)
        assert len(rs) == 0
        assert rs.n_rejected == 1

    def test_format_sniffing(self, tmp_path):
        fa = tmp_path / "a.txt"
        fa.write_text(">x\nacgt\n")
        fq = tmp_path / "b.txt"
        fq.write_text("@x\nacgt\n+\nIIII\n")
        assert sniff_format(fa) == "fasta"
        assert sniff_format(fq) == "fastq"

    def test_malformed_fastq_reports_line(self, tmp_path):
        p = tmp_path / "bad.fq"
        p.write_text("@r1\nacgt\nIIII\nIIII\n")
        with pytest.raises(ParseError) as exc:
            parse_reads(p)
        assert exc.value.line is not None

    def test_garbage_start(self, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("acgt\n")
        with pytest.raises(ParseError):
            parse_reads(p)


class TestContainer:
    def test_worked_example_container_is_pinned(self, built):
        # a change to these bytes is a format change: bump FORMAT_VERSION
        data = serialize_index(*built)
        assert data[4] == FORMAT_VERSION == 4
        assert len(data) == 413
        assert hashlib.sha256(data).hexdigest() == (
            "6a7dcfdbaf800d7977e1c92dd3b6c55e94f8f4f54b15c36239d143c39b26d77c"
        )

    @pytest.mark.parametrize(
        "k,digest",
        [
            (25, "1d7082381a65ab77346d7069044c8744e72abeff13f0afbbdcdac04304a6762d"),
            (31, "38cf9457d3461b9e887bd78332cf3c1cdfcd4dbb4f9f4caa1814a7b28dca01e9"),
        ],
    )
    def test_synthetic_read_set_container_is_pinned(self, k, digest):
        # a 2 kb / 10x read set: graph construction, colouring and the
        # container at a realistic size, one key word at k=25 and two at k=31
        _, raw = generate_reads(SyntheticConfig(genome_len=2000, coverage=10, seed=0))
        data = container_of(ReadSet.from_reads(raw), k)
        assert hashlib.sha256(data).hexdigest() == digest

    def test_roundtrip_bit_exact(self, built):
        boss, colors, meta = built
        data = serialize_index(boss, colors, meta)
        boss2, colors2, meta2 = deserialize_index(data)
        assert serialize_index(boss2, colors2, meta2) == data

    def test_queries_survive_reload(self, built, tmp_path):
        boss, colors, meta = built
        path = tmp_path / "e1.cdbg"
        write_index(path, boss, colors, meta)
        boss2, colors2, _ = read_index(path)
        for v in range(1, boss.node_count + 1):
            assert boss2.node_label(v) == boss.node_label(v)
            assert outdegree(boss2, v) == outdegree(boss, v)
            assert indegree(boss2, v) == indegree(boss, v)
            assert boss2.backward(v) == boss.backward(v)
            for sym in "$acgt":
                assert boss2.forward(v, sym) == boss.forward(v, sym)
        assert decode_table(colors2) == decode_table(colors)
        # N is not stored: the loaded graph derives the same colorable nodes
        assert colors2.N is boss2.colorable
        assert colors2.N.to_bits().tolist() == colors.N.to_bits().tolist()

    def test_checksum_detects_corruption(self, built, tmp_path):
        boss, colors, meta = built
        path = tmp_path / "e1.cdbg"
        write_index(path, boss, colors, meta)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(IntegrityError):
            deserialize_index(bytes(blob))

    def test_bad_magic(self, built):
        boss, colors, meta = built
        data = bytearray(serialize_index(boss, colors, meta))
        data[0] = ord("X")
        with pytest.raises(IntegrityError):
            deserialize_index(bytes(data))


    def test_section_sizes_fill_the_body(self, built):
        data = serialize_index(*built)
        sizes = section_sizes(data)
        assert list(sizes) == ["META", "BOSS", "COLR"]
        header = 4 + 1 + 2 + 1 + len(sizes) * (4 + 8)
        assert sum(sizes.values()) == len(data) - header - 4

    def test_section_length_past_the_end(self, built):
        # a single section that claims everything after its length field
        # and one byte of the trailing CRC
        data = bytearray(serialize_index(*built))
        data[4 + 1 + 2] = 1
        at = 4 + 1 + 2 + 1 + 4
        data[at : at + 8] = (len(data) - at - 8 - 4 + 1).to_bytes(8, "little")
        with pytest.raises(IntegrityError):
            section_sizes(bytes(data))
        data[at : at + 8] = (len(data) - at - 8 - 4).to_bytes(8, "little")
        assert section_sizes(bytes(data)) == {"META": len(data) - at - 8 - 4}


def boss_fields(data: bytes) -> dict[str, int]:
    """Byte offsets in the container of the graph section's fields: the
    section start, the counts, K, the closure run's start byte, the packed
    2-bit codes' byte count ("E_bytes"); for a bitvector (the $ marks
    "dollars", "B" and "minus"), of its bit count, two bytes after its
    start; "end" is where the section ends."""
    sizes = section_sizes(data)
    r = Reader(data, pos=4 + 1 + 2 + 1 + (4 + 8) + sizes["META"] + (4 + 8))
    at = {"section": r._pos}
    r.u8()
    r.u16()
    for name in ("node_count", "edge_count"):
        at[name] = r._pos
        r.u64()
    at["K"] = r._pos
    r.array(np.int64)
    at["closure"] = r._pos
    r.u8()
    at["dollars"] = r._pos + 2  # after the representation tag and version
    read_bit_vector(r)
    at["E_bytes"] = r._pos
    r.array(np.uint8)
    for name in ("B", "minus"):
        at[name] = r._pos + 2
        read_bit_vector(r)
    at["end"] = r._pos
    return at


def colr_fields(data: bytes) -> dict[str, int]:
    """Byte offsets in the container of the colour section's fields: where
    the section starts, where its row bitmap F starts and F's bit count,
    and the payload's low words (their byte count) and high bits (their
    bit count)."""
    r = Reader(data, pos=boss_fields(data)["end"] + (4 + 8))
    at = {"section": r._pos}
    r.u8()
    at["F_start"] = r._pos
    at["F"] = r._pos + 2  # after the representation tag and version
    read_bit_vector(r)
    r.u8()
    r.u64()
    r.u8()
    at["lows"] = r._pos
    r.array(np.uint64)
    at["high"] = r._pos + 2
    return at


def resealed(data: bytearray) -> bytes:
    """The container with its CRC computed again over the changed body."""
    body = bytes(data[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def add_to_u64(data: bytes, at: int, delta: int) -> bytes:
    blob = bytearray(data)
    value = (int.from_bytes(blob[at : at + 8], "little") + delta) % 2**64
    blob[at : at + 8] = value.to_bytes(8, "little")
    return resealed(blob)


def section_length_at(data: bytes, tag: str) -> int:
    """Byte offset in the container of the declared length of section tag."""
    at = 4 + 1 + 2 + 1 + 4
    for t, size in section_sizes(data).items():
        if t == tag:
            return at
        at += size + 4 + 8
    raise KeyError(tag)


def spliced(data: bytes, tag: str, start: int, end: int, new: bytes) -> bytes:
    """The container with bytes start..end, inside section tag, replaced by
    new; the section's declared length and the CRC follow."""
    blob = bytearray(data[:start] + new + data[end:])
    at = section_length_at(data, tag)
    blob[at : at + 8] = (section_sizes(data)[tag] + len(new) - (end - start)).to_bytes(8, "little")
    return resealed(blob)


def with_sparse(data: bytes, field: str, n: int, positions: list[int]) -> bytes:
    """The container with a bitvector of the graph section ("dollars" or
    "minus") replaced by a sparse bitvector of n bits set at the given
    positions, written as is."""
    w = Writer()
    w.u8(2)
    w.u8(1)
    w.u64(n)
    MonotoneSequence(np.array(positions, dtype=np.int64)).serialize(w)
    at = boss_fields(data)
    end = {"dollars": at["E_bytes"], "minus": at["end"]}[field]
    return spliced(data, "BOSS", at[field] - 2, end, w.getvalue())


class TestLoaderCrossChecks:
    """A container whose CRC is valid but whose parts disagree raises
    ``IntegrityError`` at load, before any declared length is allocated,
    not IndexError, ValueError or MemoryError later."""

    @pytest.fixture()
    def data(self, built):
        return serialize_index(*built)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_edge_count_must_match_edges_and_flags(self, data, delta):
        with pytest.raises(IntegrityError, match="edge_count"):
            deserialize_index(add_to_u64(data, boss_fields(data)["edge_count"], delta))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_node_count_must_match_node_bitmap(self, data, delta):
        with pytest.raises(IntegrityError, match="node_count"):
            deserialize_index(add_to_u64(data, boss_fields(data)["node_count"], delta))

    @pytest.mark.parametrize("field", ["dollars", "B", "minus"])
    @pytest.mark.parametrize("delta", [1, 2**40])
    def test_edge_lengths_must_agree(self, data, field, delta):
        with pytest.raises(IntegrityError):
            deserialize_index(add_to_u64(data, boss_fields(data)[field], delta))

    def test_plain_bit_count_must_fit_its_words(self, data):
        # B of 2**40 bits held in one word
        at = boss_fields(data)["B"]
        stored = int.from_bytes(data[at : at + 8], "little")
        with pytest.raises(IntegrityError, match="words"):
            deserialize_index(add_to_u64(data, at, 2**40 - stored))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_packed_symbols_must_fill_their_bytes(self, data, delta):
        with pytest.raises(IntegrityError, match="packed symbols"):
            deserialize_index(add_to_u64(data, boss_fields(data)["E_bytes"], delta))

    def test_packed_symbols_must_not_run_past_the_last(self, built, data):
        # 11 edges outside the closure run, 2 of them $: 9 codes leave
        # bits 2..7 of the last byte clear
        marks, _ = built[0].E._split()
        assert marks.n - marks.count == 9
        at = boss_fields(data)["E_bytes"]
        last = at + 8 + int.from_bytes(data[at : at + 8], "little") - 1
        blob = bytearray(data)
        blob[last] |= 0x80
        with pytest.raises(IntegrityError, match="past their last symbol"):
            deserialize_index(resealed(blob))

    def test_edge_symbols_must_agree_with_k(self, built, data):
        # every g edge relabelled c: the c targets then also cover the g
        # bucket of K, so only the symbols disagree with K; the worked
        # example has no c edge next to a g edge, so the rising edges, and
        # with them the node boundaries, stay as they are
        E = built[0].E
        codes = E.codes().copy()
        codes[codes == SYMBOL_CODES["g"]] = SYMBOL_CODES["c"]
        _, packed = SymbolSequence(codes, E.closure_start, E.closure_len)._split()
        first = boss_fields(data)["E_bytes"] + 8
        blob = bytearray(data)
        blob[first : first + len(packed)] = packed.tobytes()
        with pytest.raises(IntegrityError, match="K disagrees"):
            deserialize_index(resealed(blob))

    @pytest.mark.parametrize("field", ["dollars", "minus"])
    def test_sparse_positions_must_increase(self, built, data, field):
        boss = built[0]
        marks, _ = boss.E._split()
        n, ones = {
            "dollars": (marks.n, marks.ones_positions().tolist()),
            "minus": (boss.edge_count, np.flatnonzero(boss.edge_disambiguation_flags).tolist()),
        }[field]
        assert serialize_index(*deserialize_index(with_sparse(data, field, n, ones))) == data
        with pytest.raises(IntegrityError, match="sparse"):
            deserialize_index(with_sparse(data, field, n, [ones[0], ones[0]]))

    @pytest.mark.parametrize("field", ["dollars", "minus"])
    def test_sparse_positions_must_lie_below_the_length(self, data, field):
        at = boss_fields(data)[field]
        n = int.from_bytes(data[at : at + 8], "little")
        with pytest.raises(IntegrityError, match="sparse"):
            deserialize_index(with_sparse(data, field, n, [1, n]))

    def test_dollar_edges_must_enter_every_ending_node(self, built, data):
        # two ending nodes, each entered by a $ edge; one $ mark dropped
        marks, _ = built[0].E._split()
        one = marks.ones_positions().tolist()[:1]
        with pytest.raises(IntegrityError, match="1 \\$ edges cannot enter 2 ending nodes"):
            deserialize_index(with_sparse(data, "dollars", marks.n, one))

    @pytest.mark.parametrize("start", [12, 255])
    def test_closure_run_must_lie_inside_the_edges(self, data, start):
        # 13 edges, 2 in the closure run: it may start at 0..11
        blob = bytearray(data)
        blob[boss_fields(data)["closure"]] = start
        message = f"closure run at {start} starts past the 13 edges"
        with pytest.raises(IntegrityError, match=message):
            deserialize_index(resealed(blob))

    @pytest.mark.parametrize("start", [3, 6, 8])
    def test_closure_run_must_start_at_the_first_ending_node(self, data, start):
        # the root owns edges 0 and 1, so the run starts at 2; moved to
        # these starts it leaves 5 rising edges, so the node bitmap still
        # fits and gives 11 nodes, two of them single $ edges
        at = boss_fields(data)["closure"]
        assert data[at] == 2
        blob = bytearray(data)
        blob[at] = start
        with pytest.raises(IntegrityError, match="closure run does not start"):
            deserialize_index(resealed(blob))

    def test_node_bitmap_must_hold_a_bit_per_rising_edge(self, data):
        # 5 rising edges; a sixth bit still fits the word
        with pytest.raises(IntegrityError, match="node bitmap holds 6 bits for 5 rising edges"):
            deserialize_index(add_to_u64(data, boss_fields(data)["B"], 1))

    def test_k_must_count_an_ending_node(self, data):
        # K[1] = 0: no label ends in $, not even the root's
        at = boss_fields(data)["K"] + 8 + 8
        assert int.from_bytes(data[at : at + 8], "little") == 3
        with pytest.raises(IntegrityError, match="K counts no ending node"):
            deserialize_index(add_to_u64(data, at, -3))

    def test_graph_must_be_consistent(self, built, data):
        # every edge flagged: no edge has a target of its own
        m = built[0].edge_count
        with pytest.raises(IntegrityError, match="graph section"):
            deserialize_index(with_sparse(data, "minus", m, list(range(m))))

    @pytest.mark.parametrize("row", [1, 4])
    def test_row_bitmap_must_mark_p_rows(self, data, row):
        # the worked example has five rows of one colour: F is plain, all set
        words_at = colr_fields(data)["F"] + 8 + 8
        assert data[words_at] == 0b11111
        blob = bytearray(data)
        blob[words_at] ^= 1 << row  # clear the start of a later row
        with pytest.raises(IntegrityError, match="row bitmap marks 4 rows, not p=5"):
            deserialize_index(resealed(blob))

    @pytest.mark.parametrize("reads,delta,message", [
        (["tacgt"], 1, "row bitmap length 6 != payload length 5"),
        (["tacgt"], -1, "words do not hold exactly 4 bits"),  # the dropped bit is set
        # the last row holds two colours, so the dropped bit is clear
        (["tacgt", "tacgg"], -1, "row bitmap length 13 != payload length 14"),
    ])
    def test_row_bitmap_must_be_as_long_as_the_payload(self, reads, delta, message):
        data = container_of(ReadSet.from_reads(reads), 4)
        with pytest.raises(IntegrityError, match=message):
            deserialize_index(add_to_u64(data, colr_fields(data)["F"], delta))

    def test_row_bitmap_must_start_a_row_first(self, mixed):
        # move the first row start to the first bit of F that is clear
        words_at = colr_fields(mixed)["F"] + 8 + 8
        assert mixed[words_at] & 0b11111 == 0b01111
        blob = bytearray(mixed)
        blob[words_at] ^= 0b10001
        with pytest.raises(IntegrityError, match="row bitmap does not start a row at position 0"):
            deserialize_index(resealed(blob))

    @pytest.mark.parametrize("clear,set_", [(4, 3), (2, 0)])
    def test_payload_must_increase_strictly_from_one(self, data, clear, set_):
        # the payload [2, 3, 4, 6, 8] has no low bits: entry j's high bit
        # is bit value + j; moving one keeps its count, and gives
        # [2, 2, 4, 6, 8] or [0, 3, 4, 6, 8]
        words_at = colr_fields(data)["high"] + 8 + 8
        assert data[words_at] == 0b1010100
        blob = bytearray(data)
        blob[words_at] ^= (1 << clear) | (1 << set_)
        with pytest.raises(IntegrityError, match="not strictly increasing from 1"):
            deserialize_index(resealed(blob))

    @pytest.mark.parametrize("version,message", [
        (2, "unsupported container version"),
        (FORMAT_VERSION, "unsupported color section version"),
    ])
    def test_format_2_is_refused(self, built, data, version, message):
        # format 2 stored p and the colorable bitmap N in a version 1
        # colour section, ahead of F
        colors = built[1]
        w = Writer()
        w.u8(1)
        w.u64(colors.p)
        w.u64(colors.num_colors)
        colors.N.serialize(w)
        at = colr_fields(data)
        old = bytearray(spliced(data, "COLR", at["section"], at["F_start"], w.getvalue()))
        old[4] = version
        with pytest.raises(IntegrityError, match=message):
            deserialize_index(resealed(old))

    def test_node_bitmap_count_must_match_node_count(self, data):
        # B's bits at the 5 rising edges are 0 1 1 1 0; clearing the
        # second keeps B's length and starts one node fewer
        words_at = boss_fields(data)["B"] + 8 + 8
        assert data[words_at] == 0b01110
        blob = bytearray(data)
        blob[words_at] ^= 0b10
        with pytest.raises(IntegrityError, match="disagree with node_count"):
            deserialize_index(resealed(blob))

    @pytest.mark.parametrize("version,message", [
        (3, "unsupported container version"),
        (FORMAT_VERSION, "unsupported graph section version"),
    ])
    def test_format_3_is_refused(self, built, data, version, message):
        # format 3 stored E as 3-bit codes with their count and B as a
        # plain bitvector of one bit per edge, in a version 2 graph section
        boss = built[0]
        w = Writer()
        w.u8(2)
        w.u16(boss.k)
        w.u64(boss.node_count)
        w.u64(boss.edge_count)
        w.array(boss.K)
        w.u8(2)
        w.u64(boss.edge_count)
        w.array(np.packbits((boss.E.codes()[:, None] >> np.arange(3)) & 1, bitorder="little"))
        boss.B.serialize(w)
        at = boss_fields(data)
        old = bytearray(spliced(data, "BOSS", at["section"], at["minus"] - 2, w.getvalue()))
        old[4] = version
        with pytest.raises(IntegrityError, match=message):
            deserialize_index(resealed(old))

    @pytest.mark.parametrize("entry,value", [(0, 1), (5, -1), (5, 1), (1, 100), (2, -100)])
    def test_k_must_rise_from_zero_to_node_count(self, data, entry, value):
        at = boss_fields(data)["K"] + 8 + 8 * entry
        with pytest.raises(IntegrityError, match="K"):
            deserialize_index(add_to_u64(data, at, value))

    def test_array_bytes_must_be_whole_items(self, data):
        # K declares 47 bytes: not a whole number of int64 entries
        with pytest.raises(IntegrityError, match="not whole"):
            deserialize_index(add_to_u64(data, boss_fields(data)["K"], -1))

    @pytest.mark.parametrize("delta", [1, 1000])
    def test_last_section_must_fit_the_body(self, data, delta):
        # COLR declares more bytes than remain before the CRC
        with pytest.raises(IntegrityError, match="COLR declares"):
            deserialize_index(add_to_u64(data, section_length_at(data, "COLR"), delta))

    def test_sections_must_be_read_to_their_end(self, data):
        end = section_length_at(data, "META") + 8 + section_sizes(data)["META"]
        with pytest.raises(IntegrityError, match="META holds bytes past"):
            deserialize_index(spliced(data, "META", end, end, b"\0"))

    def test_payload_high_bits_must_mark_its_entries(self, data):
        words_at = colr_fields(data)["high"] + 8 + 8
        blob = bytearray(data)
        assert blob[words_at] & 0b100  # the high bit of the first entry
        blob[words_at] ^= 0b100
        with pytest.raises(IntegrityError, match="high bits mark 4 entries, not 5"):
            deserialize_index(resealed(blob))

    def test_payload_low_words_must_fit_its_entries(self, mixed):
        at = colr_fields(mixed)["lows"]
        n_bytes = int.from_bytes(mixed[at : at + 8], "little")
        assert n_bytes == 16  # one word of 60 one-bit fields, and the spare word
        shorter = (n_bytes - 8).to_bytes(8, "little") + mixed[at + 8 : at + n_bytes]
        with pytest.raises(IntegrityError, match="1 Elias-Fano low words for 60 entries of 1 bits"):
            deserialize_index(spliced(mixed, "COLR", at, at + 8 + n_bytes, shorter))

    @pytest.mark.parametrize("seed", [2, 21])
    def test_bit_flips_load_or_raise_integrity_error(self, seed):
        # each of 400 containers with 1-3 flipped bits and a resealed CRC
        # raises IntegrityError at load, or loads and answers (or raises
        # NotColored from a query); the script caps its own address space
        script = Path(__file__).with_name("fuzz_container.py")
        src = str(Path(__file__).parents[1] / "src")
        res = subprocess.run(
            [sys.executable, str(script), str(seed), "400"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert res.returncode == 0, res.stderr
        counts = json.loads(res.stdout)
        assert sum(counts.values()) == 400
        assert counts["refused"] > 300 and counts["answered"] > 0


def error_read_set() -> ReadSet:
    """A 2 kb / 10x synthetic read set with 1% substitutions: more $ edges
    than ending nodes, and branches the error-free sets lack."""
    cfg = SyntheticConfig(genome_len=2000, coverage=10, seed=0, error_rate=0.01)
    return ReadSet.from_reads(generate_reads(cfg)[1])


@pytest.mark.parametrize("reads,k", [
    *[(f"mixed-{seed}", k) for seed in (1, 2, 3) for k in (3, 63)],
    ("mixed-4", 4),
    ("errors", 25),
])
def test_format_round_trip(reads, k):
    # the loaded index equals the built one structure by structure, writes
    # the same bytes again and answers the same
    read_set = error_read_set() if reads == "errors" else mixed_read_set(int(reads[6:]), k)
    boss = BossIndex.build(read_set, k=k)
    colorable = mark_colorable(boss)
    colors = compress(color_all(boss, colorable, read_set), colorable)
    data = serialize_index(boss, colors, IndexMeta())
    boss2, colors2, meta2 = deserialize_index(data)
    assert np.array_equal(boss2._codes, boss._codes)
    assert np.array_equal(boss2._first_edge, boss._first_edge)
    assert np.array_equal(boss2.edge_disambiguation_flags, boss.edge_disambiguation_flags)
    assert decode_table(colors2) == decode_table(colors)
    assert serialize_index(boss2, colors2, meta2) == data
    assert reconstruct_all(boss2, colors2).recovered == reconstruct_all(boss, colors).recovered
    assert assemble_all(boss2, colors2, 0.5) == assemble_all(boss, colors, 0.5)
    if reads == "errors":  # some ending node is entered by two $ edges
        assert boss.E._split()[0].count > boss.E.closure_len


def test_loaded_graph_holds_two_per_edge_arrays(mixed):
    # edge sources, B and the flags are derived or packed on demand, not
    # held per edge; the arrays of the graph's parts (E, the flags) count
    boss = deserialize_index(mixed)[0]
    assert boss.edge_count not in (boss.node_count + 1, boss.node_count + 2)
    arrays = {}
    for owner in (boss, *vars(boss).values()):
        for name, a in getattr(owner, "__dict__", {}).items():
            if isinstance(a, np.ndarray) and len(a) == boss.edge_count:
                arrays.setdefault(id(a), name)
    assert sorted(arrays.values()) == ["_codes", "_targets"]


class TestSynthetic:
    def test_read_count_arithmetic(self):
        cfg = SyntheticConfig(genome_len=100_000, read_len=100, coverage=20, seed=1)
        assert cfg.n_reads == 20_000

    def test_deterministic(self):
        cfg = SyntheticConfig(genome_len=2000, read_len=50, coverage=3, seed=9)
        g1, r1 = generate_reads(cfg)
        g2, r2 = generate_reads(cfg)
        assert g1 == g2 and r1 == r2

    def test_reads_come_from_both_strands(self):
        from cdbg.sequence import reverse_complement

        cfg = SyntheticConfig(genome_len=5000, read_len=60, coverage=4, seed=3)
        genome, reads = generate_reads(cfg)
        fwd = sum(1 for r in reads if r in genome)
        rev = sum(1 for r in reads if reverse_complement(r) in genome)
        assert fwd > 0 and rev > 0
        assert fwd + rev == len(reads)

    def test_read_longer_than_genome_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(genome_len=50, read_len=100, coverage=1, seed=0)

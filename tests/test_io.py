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
from cdbg.bitvectors import BitVector, MonotoneSequence, SymbolSequence

from cdbg.boss import BossIndex
from cdbg.cli import main as cli_main
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
from cdbg.fastx import parse_reads, write_fasta
from cdbg.sequence import CODE_SYMBOLS, SYMBOL_CODES, ReadSet
from cdbg.synthetic import SyntheticConfig, generate_reads
from cdbg.traversal import _IndexView, assemble_all, reconstruct_all

import fuzz_container
import load_bytes
from conftest import error_read_set, mixed_read_set, wide_read_set
from oracle import (
    compress_ref,
    decode_table,
    edge_disambiguation_flags,
    graph_caches_ref,
    indegree,
    label_edge_disagreements,
    outdegree,
)


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

    def test_empty_records_count_alike_in_fasta_and_fastq(self, tmp_path):
        fa, fq = tmp_path / "e.fa", tmp_path / "e.fq"
        fa.write_text(">a\n>b\nacgtacgtac\n>c\n")
        fq.write_text("@a\n\n+\n\n@b\nacgtacgtac\n+\nIIIIIIIIII\n@c\n\n+\n\n")
        counts = [(len(rs), rs.n_rejected) for rs in map(parse_reads, (fa, fq))]
        assert counts == [(1, 2), (1, 2)]

    def test_reads_are_checked_alike_in_fasta_and_fastq(self, tmp_path):
        # CRLF line ends, upper case, a blank inside a sequence, a
        # non-ASCII byte, an n, an empty record, a duplicate and a read
        # shorter than k
        seqs = [b"ACGTaCGT", b"acgt acgt", b"acg\xe9tacgt", b"acgtnacgt", b"", b"acgtacgt", b"acg"]
        fa, fq = tmp_path / "r.fa", tmp_path / "r.fq"
        fa.write_bytes(b"".join(b">r\r\n" + s + b"\r\n" for s in seqs) + b">m\r\nggcc\r\ntta\r\n")
        fq.write_bytes(
            b"".join(b"@r\r\n" + s + b"\r\n+\r\n" + b"I" * len(s) + b"\r\n" for s in seqs + [b"ggcctta"])
        )
        for path in (fa, fq):
            rs = parse_reads(path, k=5)
            assert rs.reads == ("acgtacgt", "ggcctta")
            assert (rs.n_rejected, rs.n_duplicates, rs.n_too_short) == (4, 1, 1)

    def test_format_sniffing(self, tmp_path):
        # the first non-blank line sets the format, whatever the file name;
        # a FASTA sequence line starting with '@' is read as sequence, a
        # FASTQ record with a '>' line does not start a FASTA record
        fa = tmp_path / "a.txt"
        fa.write_text("\n>x\nacgt\n@cgt\n>y\nggcc\n")
        fq = tmp_path / "b.txt"
        fq.write_text("\n@x\nacgt\n+\n>III\n")
        assert parse_reads(fa).reads == ("ggcc",)
        assert parse_reads(fa).n_rejected == 1
        assert parse_reads(fq).reads == ("acgt",)

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

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_file_is_refused(self, tmp_path, text):
        p = tmp_path / "empty.fa"
        p.write_text(text)
        with pytest.raises(ParseError, match="empty input file"):
            parse_reads(p)

    def test_fasta_sequence_before_the_first_header_is_refused(self, tmp_path):
        # one check refuses it, at its first sequence line
        p = tmp_path / "headless.fa"
        p.write_text("\nacgt\n>r1\nacgt\n")
        with pytest.raises(ParseError) as exc:
            parse_reads(p)
        assert str(exc.value) == "line 2: file starts with neither '>' nor '@'"

    @pytest.mark.parametrize("name, text", [
        ("r.fa", "\n\njunk\n>r1\nacgt\n"),
        ("r.fq", "\n \t\n\njunk\n@r1\nacgt\n+\nIIII\n"),
    ])
    def test_junk_after_blank_lines_is_refused_at_its_line(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ParseError, match="starts with neither") as exc:
            parse_reads(p)
        assert exc.value.line == text.split("\n").index("junk") + 1

    @pytest.mark.parametrize("text, message", [
        ("@r1\nacgt\n+\nIIII\nr2\nacgt\n+\nIIII\n", "line 5: record does not start with '@'"),
        ("@r1\nacgt\n+\nIIII\n@r2\nacgt\n+\n", "line 5: truncated record"),
        ("@r1\nacgt\n+\nIII\n", "line 4: quality length differs from sequence"),
    ])
    def test_malformed_fastq_record_is_refused(self, tmp_path, text, message):
        p = tmp_path / "bad.fq"
        p.write_text(text)
        with pytest.raises(ParseError, match=message):
            parse_reads(p)


class TestContainer:
    def test_worked_example_container_is_pinned(self, built):
        # a change to these bytes is a format change: bump FORMAT_VERSION
        data = serialize_index(*built)
        assert data[4] == FORMAT_VERSION == 7
        # format 3 took 353 bytes, format 4 413, format 5 201, format 6 169
        assert len(data) == 146
        assert hashlib.sha256(data).hexdigest() == (
            "2563f5e130dfa965f2c7fd101647c13e110cf82d48eb809d79e358ea6beaeaa1"
        )

    @pytest.mark.parametrize(
        "k,digest",
        [
            (25, "a222ffd24d7a19547839def63bb1d7bd173e1b8870053c4eca6e61feb48b3931"),
            (31, "d0fe233a2bf973cf0c795293b2fe71bcf9ed85e9a87ae321debe7f7720866d6f"),
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
        # N is not stored: the loaded graph derives the same nodes with a
        # row, here its explicit colorable nodes, as no implicit one keeps
        # its row
        assert colors2.N is boss2.explicit_colorable
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
    """Byte offsets in the container of the graph section's fields, in file
    order: "edge_count" (where the section starts), "closure" (the closure
    run's start byte, then its u64 length), the bitvectors "dollars", "B"
    and "minus" (each at its tag byte), "codes" (the packed 2-bit codes),
    and "end", where the section ends. The field sizes are those
    ``cdbg stats`` reports."""
    pos = 4 + 1 + 2 + 1 + (4 + 8) + section_sizes(data)["META"] + (4 + 8)
    at = {}
    for name, n in deserialize_index(data)[0].structure_bytes().items():
        at["minus" if name == "flags" else name] = pos
        pos += n
    at["end"] = pos
    return at


def colr_fields(data: bytes) -> dict[str, int]:
    """Byte offsets in the container of the colour section's fields: where
    the section starts, with the payload's entry count; the payload's low
    width and high words (after their count); the row bitmap F and the
    bits of the implicit successors that keep a row, each at its tag
    byte."""
    r = Reader(data, pos=boss_fields(data)["end"] + (4 + 8))
    at = {"section": r._pos}
    n = r.u64()
    at["width"] = r._pos
    width = r.u8()
    r.array(np.uint64, (n * width + 63) // 64)  # the low words
    at["high"] = r._pos + 8
    r.array(np.uint64, r.u64())
    at["F"] = r._pos
    at["kept"] = at["F"] + deserialize_index(data)[1].structure_bytes()["F"]
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


def run_capped(script: str, path: Path) -> subprocess.CompletedProcess:
    """script run on the index at path in a fresh interpreter whose
    address space is capped at 2 GiB, as ``tests/fuzz_container.py`` caps
    its own; the script sees ``sys`` and ``read_index``."""
    head = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from cdbg.container import read_index\n"
    )
    return subprocess.run(
        [sys.executable, "-c", head + script, str(path)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"), "OPENBLAS_NUM_THREADS": "1"},
    )


def with_sections(data: bytes, tags: list[str]) -> bytes:
    """The container with its sections laid out as tags name them, each
    with the payload of that tag in data (an unknown tag's is empty), and
    its CRC sealed again."""
    payloads, at = {}, 4 + 1 + 2 + 1
    for tag, size in section_sizes(data).items():
        payloads[tag] = data[at + 4 + 8 : at + 4 + 8 + size]
        at += 4 + 8 + size
    body = bytearray(data[:7]) + bytes([len(tags)])
    for tag in tags:
        payload = payloads.get(tag, b"")
        body += tag.encode("ascii") + len(payload).to_bytes(8, "little") + payload
    return resealed(body + bytes(4))


def with_sparse(data: bytes, field: str, positions: list[int]) -> bytes:
    """The container with a bitvector of the graph section ("dollars" or
    "minus") replaced by a sparse bitvector with bits set at the given
    positions, written as is."""
    w = Writer()
    w.u8(2)
    MonotoneSequence(np.array(positions, dtype=np.int64)).serialize(w)
    at = boss_fields(data)
    end = {"dollars": at["codes"], "minus": at["end"]}[field]
    return spliced(data, "BOSS", at[field], end, w.getvalue())


# The worked example's container in format 6, as format 6 wrote it
FORMAT_6_WORKED_EXAMPLE = bytes.fromhex(
    "43444247060400034d455441280000000000000005000000000000000100000000000000"
    "000000000000000000000000000000000200000000000000424f53532f00000000000000"
    "0d000000000000000202000000000000000110020000000000005c3a00010e0000000000"
    "0000010001000000000000434f4c52220000000000000005000000000000000001000000"
    "000000005412000000000000011f000000000000004c3a950e"
)

# The worked example's container in format 5, as format 5 wrote it
FORMAT_5_WORKED_EXAMPLE = bytes.fromhex(
    "43444247050400034d455441280000000000000005000000000000000100000000000000"
    "000000000000000000000000000000000200000000000000424f53534f00000000000000"
    "0d0000000000000003000000000000000600000000000000080000000000000009000000"
    "000000000b00000000000000020110020000000000005c3a00010e000000000000000100"
    "01000000000000434f4c5222000000000000000500000000000000000100000000000000"
    "5412000000000000011f000000000000009bdcdcd1"
)

# The worked example's container in format 4, as format 4 wrote it
FORMAT_4_WORKED_EXAMPLE = bytes.fromhex(
    "43444247040400034d455441290000000000000001050000000000000001000000000000"
    "00000000000000000000000000000000000200000000000000424f5353fd000000000000"
    "000304000b000000000000000d0000000000000030000000000000000000000000000000"
    "03000000000000000600000000000000080000000000000009000000000000000b000000"
    "000000000202010b00000000000000010200000000000000021000000000000000040000"
    "000000000000000000000000000101050000000000000008000000000000000a00000000"
    "00000003000000000000005c3a000101050000000000000008000000000000000e000000"
    "0000000002010d0000000000000001010000000000000003100000000000000000000000"
    "000000000000000000000000010103000000000000000800000000000000020000000000"
    "0000434f4c524700000000000000020101050000000000000008000000000000001f0000"
    "000000000001050000000000000000000000000000000001010e00000000000000080000"
    "000000000054120000000000008e548636"
)


NOT_A_TREE = "the labels with a leading \\$ do not form a tree below the root"
FLAG_OUT_OF_A_START = "a flagged edge leaves a node whose label starts with \\$"


class TestLoaderCrossChecks:
    """A container whose CRC is valid but whose parts disagree raises
    ``IntegrityError`` at load, before any declared length is allocated,
    not IndexError, ValueError or MemoryError later."""

    @pytest.fixture()
    def data(self, built):
        return serialize_index(*built)

    def test_fields_are_where_the_sizes_put_them(self, built, data):
        # what the offsets below rest on: the worked example's graph
        # section holds 13 edges, the closure run of 2 edges at 2 and its
        # bitvectors plain; its colour section holds 4 entries of no low
        # bits, then F and the one implicit successor's bit, both plain
        at, colr = boss_fields(data), colr_fields(data)
        assert int.from_bytes(data[at["edge_count"] : at["closure"]], "little") == 13
        assert data[at["closure"]] == 2
        assert int.from_bytes(data[at["closure"] + 1 : at["dollars"]], "little") == 2
        assert [data[at[name]] for name in ("dollars", "B", "minus")] == [1, 1, 1]
        assert at["end"] + (4 + 8) == colr["section"]
        assert data[colr["section"]] == 4 and data[colr["width"]] == 0
        assert data[colr["F"]] == 1 and colr["F"] + 9 == colr["kept"]
        assert data[colr["kept"]] == 1 and colr["kept"] + 9 == len(data) - 4

    @pytest.mark.parametrize("tag,field", [
        *[("BOSS", f) for f in ("edge_count", "closure", "dollars", "codes", "B", "flags")],
        ("COLR", "payload"), ("COLR", "F"), ("COLR", "kept"),
    ])
    def test_section_cut_inside_a_field_is_refused(self, data, tag, field):
        # no field stores its own length: each is read at the length the
        # loader computed, so a section that ends inside one is truncated
        boss, colors, _ = deserialize_index(data)
        sizes = {"BOSS": boss.structure_bytes(), "COLR": colors.structure_bytes()}[tag]
        start = section_length_at(data, tag) + 8
        end = start
        for name, n in sizes.items():
            end += n
            if name == field:
                break
        cut = spliced(data, tag, end - 1, start + section_sizes(data)[tag], b"")
        with pytest.raises(IntegrityError, match="truncated"):
            deserialize_index(cut)

    @pytest.mark.parametrize("delta", [-1, 1, 2**40])
    def test_edge_count_must_match_edges_and_flags(self, data, delta):
        # the lengths of the $ marks, the codes and the flags follow from it
        with pytest.raises(IntegrityError):
            deserialize_index(add_to_u64(data, boss_fields(data)["edge_count"], delta))

    def test_packed_symbols_must_not_run_past_the_last(self, built, data):
        # 11 edges outside the closure run, 2 of them $: 9 codes leave
        # bits 2..7 of the last byte clear
        marks, _ = built[0].E._split()
        assert marks.n - marks.count == 9
        last = boss_fields(data)["codes"] + 3 - 1
        blob = bytearray(data)
        blob[last] |= 0x80
        with pytest.raises(IntegrityError, match="past their last symbol"):
            deserialize_index(resealed(blob))

    def test_relabelled_edge_symbols_load_as_a_consistent_graph(self, built, data):
        # every g edge relabelled c: the worked example has no c edge next
        # to a g edge, so the rising edges, and with them the node
        # boundaries, stay as they are. K is derived from the symbols, so
        # the labels follow them: the file is a valid index of tacct
        E = built[0].E
        codes = E.codes().copy()
        codes[codes == SYMBOL_CODES["g"]] = SYMBOL_CODES["c"]
        _, packed = SymbolSequence(codes, E.closure_start, E.closure_len)._split()
        first = boss_fields(data)["codes"]
        blob = bytearray(data)
        blob[first : first + len(packed)] = packed.tobytes()
        boss, colors, _ = deserialize_index(resealed(blob))
        labels = [boss.node_label(v) for v in range(1, boss.node_count + 1)]
        assert all(a[::-1] < b[::-1] for a, b in zip(labels, labels[1:]))
        for v, label in enumerate(labels, start=1):
            for _, a, t in boss.successors(v):
                assert boss.node_label(t) == label[1:] + CODE_SYMBOLS[a]
        assert sorted(reconstruct_all(boss, colors).recovered) == ["accta", "tacct"]

    @pytest.mark.parametrize("field", ["dollars", "minus"])
    def test_sparse_positions_must_increase(self, built, data, field):
        # the worked example stores both plain; the loader reads either form
        boss = built[0]
        ones = {
            "dollars": boss.E._split()[0].ones_positions().tolist(),
            "minus": np.flatnonzero(edge_disambiguation_flags(boss)).tolist(),
        }[field]
        loaded = deserialize_index(with_sparse(data, field, ones))[0]
        assert np.array_equal(loaded.E.codes(), boss.E.codes())
        assert np.array_equal(edge_disambiguation_flags(loaded), edge_disambiguation_flags(boss))
        with pytest.raises(IntegrityError, match="sparse"):
            deserialize_index(with_sparse(data, field, [ones[0], ones[0]]))

    @pytest.mark.parametrize("field", ["dollars", "minus"])
    def test_sparse_positions_must_lie_below_the_length(self, data, field):
        # the $ marks cover the 11 edges outside the closure run, the flags
        # all 13 edges
        n = {"dollars": 11, "minus": 13}[field]
        with pytest.raises(IntegrityError, match="sparse"):
            deserialize_index(with_sparse(data, field, [1, n]))

    def test_flag_width_must_keep_positions_in_int64(self, built, data):
        # one flag, at edge 8, stored sparse: 3 low bits in one word. Read
        # with 63 low bits, its entry would decode to a negative position
        assert np.flatnonzero(edge_disambiguation_flags(built[0])).tolist() == [8]
        crafted = bytearray(with_sparse(data, "minus", [8]))
        width_at = boss_fields(data)["minus"] + 1 + 8
        assert crafted[width_at] == 3
        crafted[width_at] = 63
        with pytest.raises(IntegrityError, match="63 low bits overflow int64"):
            deserialize_index(resealed(crafted))

    def test_dollar_edges_must_enter_every_ending_node(self, built, data):
        # two ending nodes, each entered by a $ edge; one $ mark dropped
        marks, _ = built[0].E._split()
        one = marks.ones_positions().tolist()[:1]
        with pytest.raises(IntegrityError, match="1 \\$ edges cannot enter 2 ending nodes"):
            deserialize_index(with_sparse(data, "dollars", one))

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

    def test_closure_run_must_count_the_ending_nodes(self, data):
        # a run of 1 edge: ids 2..2 would be the ending nodes, but the
        # unflagged $ edges enter two, so the derived K[1] is 3, not 2
        at = boss_fields(data)["closure"] + 1
        assert int.from_bytes(data[at : at + 8], "little") == 2
        with pytest.raises(IntegrityError, match="the \\$ edges do not enter every ending node"):
            deserialize_index(add_to_u64(data, at, -1))

    def test_graph_must_be_consistent(self, built, data):
        # every edge flagged: no edge has a target of its own
        m = built[0].edge_count
        with pytest.raises(IntegrityError, match="graph section"):
            deserialize_index(with_sparse(data, "minus", list(range(m))))

    @pytest.mark.parametrize("row", [1, 3])
    def test_row_bitmap_must_mark_p_rows(self, data, row):
        # the worked example has four rows of one colour: F is plain, all set
        words_at = colr_fields(data)["F"] + 1
        assert data[words_at] == 0b1111
        blob = bytearray(data)
        blob[words_at] ^= 1 << row  # clear the start of a later row
        with pytest.raises(IntegrityError, match="row bitmap marks 3 rows, not p=4"):
            deserialize_index(resealed(blob))

    def test_plain_bits_past_the_length_are_refused(self, data):
        # F holds one bit per payload entry: 4
        blob = bytearray(data)
        blob[colr_fields(data)["F"] + 1] |= 1 << 4
        with pytest.raises(IntegrityError, match="sets bits past its 4 bits"):
            deserialize_index(resealed(blob))

    def test_a_kept_implicit_successor_needs_its_row(self, data):
        # the worked example's one implicit successor, gta, keeps no row;
        # marked as kept, it needs a fifth row that F does not mark
        words_at = colr_fields(data)["kept"] + 1
        assert data[words_at] == 0
        blob = bytearray(data)
        blob[words_at] |= 1
        with pytest.raises(IntegrityError, match="row bitmap marks 4 rows, not p=5"):
            deserialize_index(resealed(blob))

    def test_kept_bits_past_the_implicit_successors_are_refused(self, data):
        blob = bytearray(data)
        blob[colr_fields(data)["kept"] + 1] |= 1 << 1
        with pytest.raises(IntegrityError, match="sets bits past its 1 bits"):
            deserialize_index(resealed(blob))

    def test_row_bitmap_must_start_a_row_first(self, mixed):
        # move the first row start to the first bit of F that is clear
        words_at = colr_fields(mixed)["F"] + 1
        assert mixed[words_at - 1] == 1 and mixed[words_at] & 0b11111 == 0b01111
        blob = bytearray(mixed)
        blob[words_at] ^= 0b10001
        with pytest.raises(IntegrityError, match="row bitmap does not start a row at position 0"):
            deserialize_index(resealed(blob))

    @pytest.mark.parametrize("clear,set_", [(4, 3), (2, 0)])
    def test_payload_must_increase_strictly_from_one(self, data, clear, set_):
        # the payload [2, 3, 4, 6] has no low bits: entry j's high bit is
        # bit value + j; moving one keeps its count, and gives [2, 2, 4, 6]
        # or [0, 3, 4, 6]
        words_at = colr_fields(data)["high"]
        assert data[words_at] == 0b1010100
        blob = bytearray(data)
        blob[words_at] ^= (1 << clear) | (1 << set_)
        with pytest.raises(IntegrityError, match="not strictly increasing from 1"):
            deserialize_index(resealed(blob))

    def test_node_bitmap_count_must_match_node_count(self, data):
        # B's bits at the 5 rising edges are 0 1 1 1 0; clearing the
        # second keeps B's length and joins two nodes, one of them the
        # second ending node, into one
        words_at = boss_fields(data)["B"] + 1
        assert data[words_at] == 0b01110
        blob = bytearray(data)
        blob[words_at] ^= 0b10
        with pytest.raises(IntegrityError, match="ending node does not own exactly one closure edge"):
            deserialize_index(resealed(blob))

    def test_largest_color_must_not_exceed_the_payload(self, built, tmp_path):
        # a greedy coloring uses every color 1..C in some row, so C is at
        # most the number of payload entries; one row holding color 2^40
        # would make the query view allocate 2^34 words per row
        boss, colors, meta = built
        rows = [[1]] * (boss.colorable.count - 1) + [[2**40]]
        crafted = compress_ref(rows, boss.colorable, boss.implicit_candidates)
        path = tmp_path / "crafted.cdbg"
        write_index(path, boss, crafted, meta)
        with pytest.raises(IntegrityError, match=f"largest color {2**40} exceeds the 5 color"):
            read_index(path)
        assert cli_main(["stats", "--index", str(path)]) == 3
        out = tmp_path / "recovered.txt"
        assert cli_main(["reconstruct", "--index", str(path), "--output", str(out)]) == 3

    def test_a_wide_crafted_section_is_answered_under_the_fuzz_address_cap(self, tmp_path):
        # colors 1..400,000 in one row and [1] in each of the other 53,658:
        # a bitmask of ⌈C/64⌉ words for every row would take 2.7 GB, but
        # the query view takes at most ⌈entries/p⌉ words a row for the
        # rows' bitmasks, at most two words per payload entry, and reads
        # the one wide row from its decoded row
        rng = np.random.default_rng(0)
        reads = ReadSet.from_reads(["".join(rng.choice(list("acgt"), 12)) for _ in range(8000)])
        boss = BossIndex.build(reads, k=9)
        rows = [list(range(1, 400_001))] + [[1]] * (boss.colorable.count - 1)
        path = tmp_path / "crafted.cdbg"
        crafted = compress_ref(rows, boss.colorable, boss.implicit_candidates)
        write_index(path, boss, crafted, IndexMeta())
        res = run_capped(
            "from cdbg.traversal import assemble_all, reconstruct_all\n"
            "boss, colors, _ = read_index(sys.argv[1])\n"
            "print(reconstruct_all(boss, colors).recovered_count, len(assemble_all(boss, colors, 0.5)))\n",
            path,
        )
        assert res.returncode == 0, res.stderr
        view = _IndexView(boss, crafted)
        assert view.words.size <= 2 * len(crafted.payload) + crafted.p + 1

    @pytest.mark.parametrize(
        "count", [lambda m: m + 10**6, lambda m: 2**40, lambda m: 2**62], ids=["m+1e6", "2^40", "2^62"]
    )
    def test_an_edge_count_past_the_section_is_refused_before_allocating(self, tmp_path, count):
        # reads of 60 bp at stride 7 over a 600 bp genome, k=9: the $ marks
        # are stored as their positions, whose length the loader takes from
        # the edge count. Each symbol outside the closure run costs a stored
        # bit, so a count past 8 per byte left is refused before the marks
        # are unpacked to that length, under the fuzz address cap
        rng = np.random.default_rng(0)
        genome = "".join(rng.choice(list("acgt"), 600))
        data = container_of(ReadSet.from_reads([genome[i : i + 60] for i in range(0, 541, 7)]), 9)
        at = boss_fields(data)
        assert data[at["dollars"]] == 2  # sparse
        m, run = (int.from_bytes(data[i : i + 8], "little") for i in (at["edge_count"], at["closure"] + 1))
        path = tmp_path / "crafted.cdbg"
        path.write_bytes(add_to_u64(data, at["edge_count"], count(m) - m))
        res = run_capped(
            "from cdbg.cli import main\n"
            "from cdbg.errors import IntegrityError\n"
            "try:\n"
            "    read_index(sys.argv[1])\n"
            "except IntegrityError as exc:\n"
            "    print(exc)\n"
            "sys.exit(main(['stats', '--index', sys.argv[1]]))\n",
            path,
        )
        assert res.returncode == 3, res.stderr
        assert res.stdout.startswith(f"truncated section: {count(m) - run} symbols"), res.stdout

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_format_4_is_refused(self, tmp_path, version):
        # format 4 stored a version byte in each section and in each
        # bitvector, k and the node count in the graph section, and a
        # length in front of each array; formats 2 and 3 are refused alike
        old = bytearray(FORMAT_4_WORKED_EXAMPLE)
        assert hashlib.sha256(old).hexdigest() == (
            "6a7dcfdbaf800d7977e1c92dd3b6c55e94f8f4f54b15c36239d143c39b26d77c"
        )
        old[4] = version
        with pytest.raises(IntegrityError, match="unsupported container version"):
            deserialize_index(resealed(old))
        path = tmp_path / "v4.cdbg"
        path.write_bytes(resealed(old))
        assert cli_main(["stats", "--index", str(path)]) == 3
        # read as the current format, its sections are refused too
        old[4] = FORMAT_VERSION
        with pytest.raises(IntegrityError):
            deserialize_index(resealed(old))

    def test_format_5_is_refused(self, tmp_path):
        # format 5 stored K[1..5] in the graph section and the closure run
        # as its start alone
        old = bytearray(FORMAT_5_WORKED_EXAMPLE)
        assert hashlib.sha256(old).hexdigest() == (
            "90b8244ea70c5ce937f093dc8a99f7b47669b2dc893cbfe68c14f2319e39ef4e"
        )
        with pytest.raises(IntegrityError, match="unsupported container version"):
            deserialize_index(bytes(old))
        path = tmp_path / "v5.cdbg"
        path.write_bytes(old)
        assert cli_main(["stats", "--index", str(path)]) == 3
        # read as the current format, its sections are refused too
        old[4] = FORMAT_VERSION
        with pytest.raises(IntegrityError):
            deserialize_index(resealed(old))

    def test_format_6_is_refused(self, tmp_path):
        # format 6 stored four read counts in META and a row for every
        # colourable node, gta's too, and no bits for implicit successors
        old = bytearray(FORMAT_6_WORKED_EXAMPLE)
        assert hashlib.sha256(old).hexdigest() == (
            "610b167731e42cb9db198fe60c971fd90289c849ee9cbc06145e0e75a76672f0"
        )
        with pytest.raises(IntegrityError, match="unsupported container version"):
            deserialize_index(bytes(old))
        path = tmp_path / "v6.cdbg"
        path.write_bytes(old)
        assert cli_main(["stats", "--index", str(path)]) == 3
        # read as the current format, its sections are refused too
        old[4] = FORMAT_VERSION
        with pytest.raises(IntegrityError):
            deserialize_index(resealed(old))

    @pytest.mark.parametrize("run,message", [
        (0, "0 closure edges, not 1 to"),
        (12, "past its 1 bits"),
        (14, "14 closure edges exceed the 13 edges"),
    ])
    def test_closure_run_length_must_fit_the_graph(self, data, run, message):
        # the stored run length is the number of ending nodes: 1 to n - 1
        # of the 11 nodes, so at most the 13 edges. A run of 12 leaves one
        # edge outside it, whose $ marks read as 1 bit set bits past it
        at = boss_fields(data)["closure"] + 1
        with pytest.raises(IntegrityError, match=message):
            deserialize_index(add_to_u64(data, at, run - 2))

    @pytest.mark.parametrize("delta", [1, 1000])
    def test_last_section_must_fit_the_body(self, data, delta):
        # COLR declares more bytes than remain before the CRC
        with pytest.raises(IntegrityError, match="COLR declares"):
            deserialize_index(add_to_u64(data, section_length_at(data, "COLR"), delta))

    @pytest.mark.parametrize("tags", [
        ["META", "BOSS", "COLR", "XTRA"],  # an extra section
        ["XTRA", "META", "BOSS", "COLR"],
        ["META", "BOSS", "COLR", "COLR"],  # a duplicated section
        ["META", "META", "BOSS", "COLR"],
        ["BOSS", "META", "COLR"],  # reordered
        ["META", "COLR", "BOSS"],
        ["META", "BOSS"],  # a missing section
        [],
    ])
    def test_sections_must_be_meta_boss_colr_in_order(self, data, tags):
        # each tag's payload is the one the index wrote; a repeated
        # section, the same bytes twice, would load as either copy
        assert with_sections(data, ["META", "BOSS", "COLR"]) == data
        message = f"container holds sections {' '.join(tags) or 'none'}, not META BOSS COLR"
        with pytest.raises(IntegrityError, match=message):
            deserialize_index(with_sections(data, tags))

    def test_bytes_after_the_last_section_are_refused(self, data):
        body = data[:-4] + b"junk"
        with pytest.raises(IntegrityError, match="4 bytes after the last section"):
            deserialize_index(resealed(bytearray(body + bytes(4))))

    def test_bad_magic_under_a_valid_checksum(self, data):
        blob = bytearray(data)
        blob[0] = ord("X")
        with pytest.raises(IntegrityError, match="not a cdbg container"):
            deserialize_index(resealed(blob))

    @pytest.mark.parametrize("k", [2, 64])
    def test_header_k_must_be_a_supported_order(self, data, k):
        blob = bytearray(data)
        blob[5:7] = k.to_bytes(2, "little")
        with pytest.raises(IntegrityError, match=f"order k={k} outside \\[3, 63\\]"):
            deserialize_index(resealed(blob))

    @pytest.mark.parametrize("flags, message", [
        ([9, 18], "edge target rank exceeds node count"),
        ([8, 12, 18], "all-dummy root acquired incoming edges"),
        ([0, 9, 12, 18], "non-root node without incoming edge"),
    ])
    def test_crafted_flags_break_the_edge_targets(self, flags, message):
        # tacgt and taagt at k=4 flag edges 9, 12 and 18 (0-based). Edge 12
        # unflagged ranks one target too many. The flag of the $ edge 9 put
        # on edge 8, the $ edge before it into the same ending node, leaves
        # edge 8 no rank: its target is the root. Edge 0 flagged as well
        # leaves the node it enters without a canonical incoming edge
        data = container_of(ReadSet.from_reads(["tacgt", "taagt"]), 4)
        flagged = edge_disambiguation_flags(deserialize_index(data)[0])
        assert np.flatnonzero(flagged).tolist() == [9, 12, 18]
        with pytest.raises(IntegrityError, match=f"graph section: {message}"):
            deserialize_index(with_sparse(data, "minus", flags))

    @pytest.mark.parametrize("reads, k, flags, message", [
        # tacgt and taagt at k=4 flag edges 9, 12 and 18. The flag of the $
        # edge 18 put on edge 8, the first real $ edge, sends edge 8 to the
        # root
        (["tacgt", "taagt"], 4, [8, 9, 12], "all-dummy root acquired incoming edges"),
        # gattaca and attacg at k=5 flag the a edges 13 and 31. The a edge
        # 30 flagged as well leaves n - 2 unflagged real edges, so the
        # targets stop one node short of the last
        (["gattaca", "attacg"], 5, [13, 30, 31], "non-root node without incoming edge"),
        # the a edge 12 flagged instead of 13 enters $$$a, the target of
        # the a edge before it, the root's: a node with a leading $
        # entered twice
        (["gattaca", "attacg"], 5, [12, 31], NOT_A_TREE),
        # the root's a edge flagged instead of edge 31 moves the targets of
        # the a edges before 31 down one node: the parent chain of the
        # ending node aca$ then reaches the root within k-2 steps
        (["gattaca", "attacg"], 5, [0, 13], NOT_A_TREE),
        # the flag of edge 31 put on edge 30, the a edge of the starting
        # node $att into atta, sends edge 30 to tgta, the target of the a
        # edge before it: every label still has its parent chain, but a
        # flagged edge leaves a node with a leading $
        (["gattaca", "attacg"], 5, [13, 30], FLAG_OUT_OF_A_START),
    ])
    def test_crafted_flags_break_the_node_tree(self, reads, k, flags, message):
        # each check the loader makes on the flagged edges or on the count
        # of unflagged ones, in place of an indegree count
        data = container_of(ReadSet.from_reads(reads), k)
        flagged = edge_disambiguation_flags(deserialize_index(data)[0])
        assert np.flatnonzero(flagged).tolist() == {4: [9, 12, 18], 5: [13, 31]}[k]
        with pytest.raises(IntegrityError, match=f"graph section: {message}"):
            deserialize_index(with_sparse(data, "minus", flags))

    def test_flags_on_closure_edges_change_nothing(self):
        # gattaca and attacg at k=5 flag edges 13 and 31; edge 4 is a
        # closure edge, whose flag no target rank and no check reads
        data = container_of(ReadSet.from_reads(["gattaca", "attacg"]), 5)
        boss = deserialize_index(data)[0]
        assert boss.edge_target(4 + 1) is None
        flagged = deserialize_index(with_sparse(data, "minus", [4, 13, 31]))[0]
        assert_same_fields(graph_fields(flagged), graph_fields(boss))

    def test_sections_must_be_read_to_their_end(self, data):
        end = section_length_at(data, "META") + 8 + section_sizes(data)["META"]
        with pytest.raises(IntegrityError, match="META holds bytes past"):
            deserialize_index(spliced(data, "META", end, end, b"\0"))

    def test_payload_high_bits_must_mark_its_entries(self, data):
        words_at = colr_fields(data)["high"]
        blob = bytearray(data)
        assert blob[words_at] & 0b100  # the high bit of the first entry
        blob[words_at] ^= 0b100
        with pytest.raises(IntegrityError, match="high bits mark 3 entries in 1 words, not 4"):
            deserialize_index(resealed(blob))

    @pytest.mark.parametrize("seed", [2, 10, 21])
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


GRAPH_FIELDS = (
    "_first_edge", "_targets", "_parent", "K", "_starting", "solid_count", "implicit_candidates",
)


def graph_fields(boss: BossIndex) -> dict:
    """The arrays the graph derives at build and at load, keyed as
    ``oracle.graph_caches_ref`` keys them."""
    fields = {name: getattr(boss, name) for name in GRAPH_FIELDS}
    return {**fields, "explicit_colorable": boss.explicit_colorable._words}


def assert_same_fields(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name, value in want.items():
        a, b = np.asarray(got[name]), np.asarray(value)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def palindrome_read_set() -> ReadSet:
    """Palindromes (each its own reverse complement), a duplicate and
    reads contained in others."""
    return ReadSet.from_reads([
        "acgcgt", "gaattc", "ttgaattcaa", "aattcgaatt", "cgaattcg",
        "ttgaattcaa", "gaattcaag", "tgaattca", "acgcgtacgcgt",
    ])


@pytest.mark.parametrize("reads,k", [
    *[(f"mixed-{seed}", k) for seed in (1, 2, 3) for k in (3, 4, 9, 27, 28, 63)],
    *[("palindromes", k) for k in (3, 4, 5, 6)],
    ("errors", 25),
    ("wide", 9),
])
def test_derived_graph_matches_the_reference(reads, k):
    # the built and the loaded graph derive what the former derivation
    # (oracle.graph_caches_ref) derives from their stored fields, array by
    # array and at the same widths
    sets = {"errors": error_read_set, "wide": wide_read_set, "palindromes": palindrome_read_set}
    read_set = sets[reads]() if reads in sets else mixed_read_set(int(reads[6:]), k)
    boss = BossIndex.build(read_set, k=k)
    colorable = mark_colorable(boss)
    colors = compress(color_all(boss, colorable, read_set), colorable)
    loaded = deserialize_index(serialize_index(boss, colors, IndexMeta()))[0]
    for graph in (boss, loaded):
        assert_same_fields(graph_fields(graph), graph_caches_ref(graph))


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
    assert np.array_equal(edge_disambiguation_flags(boss2), edge_disambiguation_flags(boss))
    assert decode_table(colors2) == decode_table(colors)
    assert np.array_equal(boss2.implicit_candidates, boss.implicit_candidates)
    assert np.array_equal(colors2.implicit, colors.implicit)
    assert_same_fields(graph_fields(boss2), graph_fields(boss))
    assert serialize_index(boss2, colors2, meta2) == data
    assert reconstruct_all(boss2, colors2).recovered == reconstruct_all(boss, colors).recovered
    assert assemble_all(boss2, colors2, 0.5) == assemble_all(boss, colors, 0.5)
    if reads == "errors":  # some ending node is entered by two $ edges
        assert boss.E._split()[0].count > boss.E.closure_len


@pytest.mark.parametrize("reads,k", [
    *[(f"mixed-{seed}", k) for seed in (1, 2, 3) for k in (3, 9, 63)],
    ("errors", 25),
    ("wide", 9),
    ("fuzz", 9),
])
def test_built_graphs_agree_with_their_labels(reads, k):
    # every flagged edge's source ends in the k-2 label symbols of the
    # source of the preceding unflagged edge of its symbol (ROADMAP item
    # 2's check), in the loaded graphs; "fuzz" is the two undamaged
    # containers of tests/fuzz_container.py
    if reads == "fuzz":
        containers = fuzz_container.index_bytes()
    elif reads == "errors":
        containers = [container_of(error_read_set(), k)]
    elif reads == "wide":
        containers = [container_of(wide_read_set(), k)]
    else:
        containers = [container_of(mixed_read_set(int(reads[6:]), k), k)]
    for data in containers:
        assert label_edge_disagreements(deserialize_index(data)[0]) == []


def test_graphs_whose_edges_disagree_with_their_labels_are_refused():
    # tests/fuzz_container.py's cases whose graphs once loaded with a
    # flagged edge out of a node with a leading $, made again by calling
    # its damaged() in case order. The first three failed its differential
    # checks; in seed 2's case 1918 node 1371 had a starting predecessor
    # that was not its parent, and in seed 16's case 1682 node 1459 had two
    built, full = fuzz_container.index_bytes()
    for seed, cases in ((5, (766, 1198)), (10, (258,)), (2, (1918,)), (16, (1682,))):
        rng = np.random.default_rng(seed)
        for case in range(max(cases) + 1):
            data = fuzz_container.damaged(case, built, full, rng)
            if case in cases:
                with pytest.raises(IntegrityError, match=f"graph section: {FLAG_OUT_OF_A_START}"):
                    deserialize_index(data)


def test_colorable_bitmap_is_held_as_plain_words(mixed):
    # N is never stored; held as words it takes n / 8 bytes, where set-bit
    # positions would take 8 bytes per colourable node
    built = BossIndex.build(mixed_read_set(1, 9), k=9)
    for boss in (built, deserialize_index(mixed)[0]):
        assert type(boss.colorable) is BitVector
        assert boss.colorable.n == boss.node_count
    assert np.array_equal(built.colorable._words, deserialize_index(mixed)[0].colorable._words)


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


def test_load_peaks_below_four_and_a_half_times_what_it_keeps(tmp_path):
    # the graph derivation at load allocates few edge-sized temporaries
    # and frees them before the int64 lifting (ROADMAP item 10's load)
    reads, index = tmp_path / "reads.fa", tmp_path / "index.cdbg"
    assert cli_main(["synth", "--genome-len", "5000", "--coverage", "20", "--output", str(reads)]) == 0
    assert cli_main(["build", "--input", str(reads), "--k", "25", "--output", str(index)]) == 0
    read_index(index)  # what numpy and Python allocate once per process is not kept
    record = load_bytes.load_bytes(str(index))
    assert record["peak_bytes"] <= 4.5 * record["kept_bytes"], record


class TestSynthetic:
    def test_read_count_arithmetic(self):
        cfg = SyntheticConfig(genome_len=100_000, read_len=100, coverage=20, seed=1)
        assert cfg.n_reads == 20_000

    def test_deterministic(self):
        cfg = SyntheticConfig(genome_len=2000, read_len=50, coverage=3, seed=9)
        g1, r1 = generate_reads(cfg)
        g2, r2 = generate_reads(cfg)
        assert g1 == g2 and r1 == r2

    @pytest.mark.parametrize("error_rate, digest", [
        (0.0, "f30e4276b7ef2ea73f2437975f14627500d0260305b2a6948dedcd416fc4681c"),
        (0.01, "5d827ceeb1663c62420bfc103e3f8cc9abbfa7f4c6203888597a4dc747bb7446"),
    ])
    def test_output_is_pinned(self, error_rate, digest):
        # the genome and the reads, one per line; a change here changes
        # the benchmark's read sets and the synthetic indexes pinned in
        # TestContainer
        cfg = SyntheticConfig(genome_len=2000, coverage=10, seed=0, error_rate=error_rate)
        genome, reads = generate_reads(cfg)
        assert len(reads) == 200
        assert hashlib.sha256("\n".join([genome, *reads]).encode()).hexdigest() == digest

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

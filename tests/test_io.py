import numpy as np
import pytest

from cdbg.boss import BossIndex
from cdbg.coloring import color_all, mark_colorable
from cdbg.colormatrix import compress, decode_table
from cdbg.container import (
    IndexMeta,
    deserialize_index,
    read_index,
    section_sizes,
    serialize_index,
    write_index,
)
from cdbg.errors import IntegrityError, ParseError
from cdbg.fastx import parse_reads, sniff_format, write_fasta
from cdbg.sequence import ReadSet
from cdbg.synthetic import SyntheticConfig, generate_reads


@pytest.fixture()
def built(tmp_path):
    reads = ReadSet.from_reads(["tacgt"])
    boss = BossIndex.build(reads, k=4)
    cmap = mark_colorable(boss)
    colors = compress(color_all(boss, cmap, reads), cmap)
    meta = IndexMeta(plain_bytes=reads.plain_bytes, n_reads=1, n_strings=2)
    return boss, colors, meta


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
            assert boss2.outdegree(v) == boss.outdegree(v)
            assert boss2.indegree(v) == boss.indegree(v)
            assert boss2.backward(v) == boss.backward(v)
            for sym in "$acgt":
                assert boss2.forward(v, sym) == boss.forward(v, sym)
        assert decode_table(colors2) == decode_table(colors)

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

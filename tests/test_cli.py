import json
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parents[1]
# the CLI runs from this checkout's sources, installed or not
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(PKG_ROOT / "src"), os.environ.get("PYTHONPATH")])),
}


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "cdbg", *args],
        capture_output=True,
        text=True,
        cwd=cwd or PKG_ROOT,
        env=CLI_ENV,
    )


@pytest.fixture(scope="module")
def tiny_index(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    reads = d / "reads.fa"
    reads.write_text(">r1\ntacgt\n")
    index = d / "tiny.cdbg"
    res = run_cli("build", "--input", str(reads), "--k", "4", "--output", str(index))
    assert res.returncode == 0, res.stderr
    return d, reads, index, res.stdout


class TestBuild:
    def test_build_prints_stats(self, tiny_index):
        _, _, _, out = tiny_index
        # of the 5 colourable nodes, gta is the implicit successor of cgt
        assert {"colored_nodes=4", "implicit_nodes=1", "num_colors=2"} <= set(out.splitlines())

    def test_build_logs_stage_times_and_counts(self, tmp_path):
        reads = tmp_path / "reads.fa"
        reads.write_text(">r1\ntacgt\n")
        res = run_cli(
            "build", "--input", str(reads), "--k", "4", "--output", str(tmp_path / "i.cdbg")
        )
        assert res.returncode == 0, res.stderr
        stages = ("parse", "boss_sort", "boss_derive", "scan", "assign", "compress", "write")
        for name in stages:
            assert len(re.findall(rf"^INFO stage {name}: \d+\.\d{{3}} s$", res.stderr, re.M)) == 1
        assert re.findall(r"^INFO stage (\w+):", res.stderr, re.M) == list(stages)
        assert "INFO strings=2 nodes=11 edges=13 p=5 colors=2 implicit_nodes=1" in res.stderr.splitlines()

    @pytest.mark.parametrize("k", ["2", "64"])
    def test_out_of_range_k_is_usage_error(self, tmp_path, k):
        reads = tmp_path / "reads.fa"
        reads.write_text(">r1\ntacgt\n")
        index = tmp_path / "i.cdbg"
        res = run_cli("build", "--input", str(reads), "--k", k, "--output", str(index))
        assert res.returncode == 1
        assert f"usage error: --k {k} outside [3, 63]" in res.stderr
        assert "stage parse" not in res.stderr  # refused before the reads are read
        assert not index.exists()

    def test_missing_input_flag_is_usage_error(self):
        res = run_cli("build", "--output", "x.cdbg")
        assert res.returncode == 1

    def test_unreadable_input_is_data_error(self, tmp_path):
        res = run_cli(
            "build", "--input", str(tmp_path / "nope.fa"), "--output", str(tmp_path / "x.cdbg")
        )
        assert res.returncode == 2

    def test_latin1_header_builds(self, tmp_path):
        reads = tmp_path / "reads.fa"
        reads.write_bytes(b">r1 espa\xf1a\ntacgt\n")
        res = run_cli(
            "build", "--input", str(reads), "--k", "4", "--output", str(tmp_path / "i.cdbg")
        )
        assert res.returncode == 0, res.stderr
        assert "INFO strings=2 nodes=11 edges=13 p=5 colors=2 implicit_nodes=1" in res.stderr.splitlines()

    def test_undecodable_read_is_rejected(self, tmp_path):
        reads = tmp_path / "reads.fa"
        reads.write_bytes(b">r1\ntacgt\n>r2\ntac\xffgt\n")
        res = run_cli(
            "build", "--input", str(reads), "--k", "4", "--output", str(tmp_path / "i.cdbg")
        )
        assert res.returncode == 0, res.stderr
        assert "1 rejected" in res.stderr
        # the verify file goes through the same parser
        res = run_cli(
            "reconstruct", "--index", str(tmp_path / "i.cdbg"),
            "--output", str(tmp_path / "r.txt"), "--verify", str(reads),
        )
        assert res.returncode == 0, res.stderr
        assert "recovered_percentage=100.00" in res.stdout

    def test_fastq_of_only_an_undecodable_read_is_data_error(self, tmp_path):
        reads = tmp_path / "reads.fq"
        reads.write_bytes(b"@r1\ntac\xffgt\n+\nIIIIII\n")
        res = run_cli(
            "build", "--input", str(reads), "--k", "4", "--output", str(tmp_path / "i.cdbg")
        )
        assert res.returncode == 2
        assert "error: no read of length >= k" in res.stderr
        assert "Traceback" not in res.stderr


    def test_fasta_of_only_headers_is_data_error(self, tmp_path):
        reads = tmp_path / "reads.fa"
        reads.write_text(">r1\n>r2\n")
        res = run_cli(
            "build", "--input", str(reads), "--k", "4", "--output", str(tmp_path / "i.cdbg")
        )
        assert res.returncode == 2
        assert "2 rejected" in res.stderr
        assert "error: no read of length >= k" in res.stderr


class TestStats:
    def test_stats_worked_example(self, tiny_index):
        _, _, index, _ = tiny_index
        res = run_cli("stats", "--index", str(index))
        assert res.returncode == 0
        kv = dict(
            line.split("=", 1) for line in res.stdout.splitlines() if "=" in line
        )
        assert (kv["colored_nodes"], kv["implicit_nodes"]) == ("4", "1")
        assert kv["num_colors"] == "2"
        assert float(kv["compression_rate"]) > 0
        assert sum(int(kv[f"bytes_{tag}"]) for tag in ("META", "BOSS", "COLR")) < int(
            kv["index_bytes"]
        )
        bits = 8 * int(kv["index_bytes"]) / 13
        assert float(kv["bits_per_edge"]) == pytest.approx(bits, abs=1e-4)
        # each section is the sum of its fields
        for tag, names in (
            ("BOSS", ("edge_count", "closure", "dollars", "codes", "B", "flags")),
            ("COLR", ("payload", "F", "kept")),
        ):
            fields = [int(kv[f"bytes_{tag}_{name}"]) for name in names]
            assert sum(fields) == int(kv[f"bytes_{tag}"])

    def test_stats_json(self, tiny_index):
        _, _, index, _ = tiny_index
        res = run_cli("stats", "--index", str(index), "--json")
        assert res.returncode == 0, res.stderr
        record = json.loads(res.stdout)
        assert (record["colored_nodes"], record["implicit_nodes"]) == (4, 1)
        assert record["num_colors"] == 2
        assert record["total_nodes"] == 11
        assert record["edge_count"] == 13
        assert record["bits_per_edge"] == 8 * record["index_bytes"] / 13
        assert record["compression_rate"] > 0
        sections = record["section_bytes"]
        assert list(sections) == ["META", "BOSS", "COLR"]
        assert all(n > 0 for n in sections.values())
        header = 4 + 1 + 2 + 1 + len(sections) * (4 + 8)  # magic, version, k, count, tables
        assert sum(sections.values()) == Path(index).stat().st_size - header - 4  # CRC32
        graph = record["graph_bytes"]
        assert list(graph) == ["edge_count", "closure", "dollars", "codes", "B", "flags"]
        # the closure run is its start byte and its u64 length; 9 of the 11
        # edges outside it are not $: 3 bytes of codes
        assert (graph["edge_count"], graph["closure"], graph["codes"]) == (8, 9, 3)
        assert sum(graph.values()) == sections["BOSS"]
        color = record["color_bytes"]
        assert list(color) == ["payload", "F", "kept"]
        assert sum(color.values()) == sections["COLR"]

    def test_build_and_stats_print_one_name_value_form(self, tiny_index):
        _, _, index, build_out = tiny_index
        stats_out = run_cli("stats", "--index", str(index)).stdout
        record = json.loads(run_cli("stats", "--index", str(index), "--json").stdout)
        assert "ambiguous_count" not in record
        for out in (build_out, stats_out):
            lines = out.splitlines()
            assert all(re.fullmatch(r"\w+=\S+", line) for line in lines), out
            kv = dict(line.split("=", 1) for line in lines)
            assert len(kv) == len(lines)  # no name twice
            assert "ambiguous_count" not in kv
            names = ("total_nodes", "edge_count", "colored_nodes", "implicit_nodes", "num_colors")
            for name in names:
                assert int(kv[name]) == record[name]

    @pytest.mark.parametrize("damage", ["checksum", "version 1"])
    def test_corrupted_index_is_integrity_error(self, tiny_index, tmp_path, damage):
        _, _, index, _ = tiny_index
        blob = bytearray(Path(index).read_bytes())
        if damage == "checksum":
            blob[-1] ^= 0xFF
        else:  # a format 1 container, with a valid checksum
            blob[4] = 1
            blob[-4:] = zlib.crc32(bytes(blob[:-4])).to_bytes(4, "little")
        bad = tmp_path / "bad.cdbg"
        bad.write_bytes(bytes(blob))
        res = run_cli("stats", "--index", str(bad))
        assert res.returncode == 3
        assert ("version" in res.stderr) == (damage == "version 1")


class TestReconstruct:
    def test_reconstruct_with_verify(self, tiny_index):
        d, reads, index, _ = tiny_index
        out = d / "rebuilt.txt"
        res = run_cli(
            "reconstruct", "--index", str(index), "--output", str(out),
            "--verify", str(reads),
        )
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert sorted(lines) == ["acgta", "tacgt"]
        assert "recovered_percentage=100.00" in res.stdout
        assert "ambiguous_count=0" in res.stdout

    def test_reconstruct_logs_stage_times_and_counts(self, tiny_index, tmp_path):
        _, reads, index, _ = tiny_index
        res = run_cli(
            "reconstruct", "--index", str(index), "--output", str(tmp_path / "r.txt"),
            "--verify", str(reads),
        )
        assert res.returncode == 0, res.stderr
        for name in ("load", "reconstruct", "verify", "write"):
            assert len(re.findall(rf"^INFO stage {name}: \d+\.\d{{3}} s$", res.stderr, re.M)) == 1
        assert "INFO walks=2 recovered=2 ambiguous=0" in res.stderr.splitlines()

    def test_missing_index_is_data_error(self, tmp_path):
        res = run_cli(
            "reconstruct", "--index", str(tmp_path / "none.cdbg"),
            "--output", str(tmp_path / "o.txt"),
        )
        assert res.returncode == 2


@pytest.mark.parametrize("command", ["build", "reconstruct"])
def test_threads_flag_is_usage_error(tiny_index, tmp_path, command):
    _, reads, index, _ = tiny_index
    source = ("--input", str(reads)) if command == "build" else ("--index", str(index))
    out = tmp_path / "out"
    res = run_cli(command, *source, "--threads", "4", "--output", str(out))
    assert res.returncode == 1
    assert "usage error: unrecognized arguments: --threads 4" in res.stderr
    assert not out.exists()


class TestAssemble:
    def test_overlap_union(self, tmp_path):
        reads = tmp_path / "pair.fa"
        reads.write_text(">a\ntacgta\n>b\ncgtaac\n")
        index = tmp_path / "pair.cdbg"
        assert run_cli(
            "build", "--input", str(reads), "--k", "4", "--output", str(index)
        ).returncode == 0
        out = tmp_path / "contigs.fa"
        res = run_cli("assemble", "--index", str(index), "--output", str(out))
        assert res.returncode == 0
        text = out.read_text()
        assert "tacgtaac" in text
        assert text.startswith(">contig_1")

    def test_assemble_logs_stage_times_and_counts(self, tiny_index, tmp_path):
        _, _, index, _ = tiny_index
        res = run_cli("assemble", "--index", str(index), "--output", str(tmp_path / "c.fa"))
        assert res.returncode == 0, res.stderr
        for name in ("load", "assemble", "write"):
            assert len(re.findall(rf"^INFO stage {name}: \d+\.\d{{3}} s$", res.stderr, re.M)) == 1
        assert "INFO contigs=2" in res.stderr.splitlines()
        assert "contigs=2" in res.stdout.splitlines()
        assert "INFO starts=2" in res.stderr.splitlines()  # $ta and $ac

    def test_zero_threshold_is_usage_error(self, tiny_index, tmp_path):
        _, _, index, _ = tiny_index
        res = run_cli(
            "assemble", "--index", str(index), "--min-frac", "0",
            "--output", str(tmp_path / "c.fa"),
        )
        assert res.returncode == 1

    def test_empty_contig_list_ok(self, tmp_path):
        # an index is never truly empty, but a fresh output file must exist
        reads = tmp_path / "one.fa"
        reads.write_text(">r\ntacgt\n")
        index = tmp_path / "one.cdbg"
        run_cli("build", "--input", str(reads), "--k", "4", "--output", str(index))
        out = tmp_path / "c.fa"
        res = run_cli("assemble", "--index", str(index), "--output", str(out))
        assert res.returncode == 0
        assert out.exists()


class TestSynth:
    def test_count_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.fa", tmp_path / "b.fa"
        for target in (a, b):
            res = run_cli(
                "synth", "--genome-len", "3000", "--read-len", "60",
                "--coverage", "4", "--seed", "11", "--output", str(target),
            )
            assert res.returncode == 0
            assert "reads=200" in res.stdout
        assert a.read_bytes() == b.read_bytes()

    def synth(self, target, *extra):
        res = run_cli(
            "synth", "--genome-len", "3000", "--read-len", "60",
            "--coverage", "4", "--seed", "11", "--output", str(target), *extra,
        )
        assert res.returncode == 0, res.stderr
        return [line for line in target.read_text().splitlines() if not line.startswith(">")]

    def test_error_rate_zero_changes_nothing(self, tmp_path):
        a, b = tmp_path / "a.fa", tmp_path / "b.fa"
        self.synth(a)
        self.synth(b, "--error-rate", "0")
        assert a.read_bytes() == b.read_bytes()

    def test_error_rate_substitutes_bases(self, tmp_path):
        clean = self.synth(tmp_path / "a.fa")
        noisy = self.synth(tmp_path / "b.fa", "--error-rate", "0.02")
        assert [len(r) for r in noisy] == [len(r) for r in clean]
        assert all(set(r) <= set("acgt") for r in noisy)
        # 12,000 bases at 2%: 240 expected, standard deviation about 15
        changed = sum(x != y for r, s in zip(clean, noisy) for x, y in zip(r, s))
        assert 180 <= changed <= 300
        # the errors are seeded too
        assert self.synth(tmp_path / "c.fa", "--error-rate", "0.02") == noisy

    @pytest.mark.parametrize("rate", ["-0.1", "1.5"])
    def test_error_rate_outside_zero_one_is_usage_error(self, tmp_path, rate):
        res = run_cli("synth", "--error-rate", rate, "--output", str(tmp_path / "x.fa"))
        assert res.returncode == 1

    def test_read_longer_than_genome_is_usage_error(self, tmp_path):
        res = run_cli(
            "synth", "--genome-len", "50", "--read-len", "100",
            "--output", str(tmp_path / "x.fa"),
        )
        assert res.returncode == 1

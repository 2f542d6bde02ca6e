"""Fast self-test of the benchmark's generator, checks and tracer.

Not part of the tier-1 suite (pytest's testpaths is ``tests``). Run with

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pipeline as pl  # noqa: E402
from cdbg.fastx import write_fasta  # noqa: E402
from cdbg.synthetic import SyntheticConfig, generate_genome, generate_reads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import REPEAT_COPIES, REPEAT_LEN, WORKLOADS, Workload, make_inputs, repeat_genome, sample_reads  # noqa: E402

TINY = Workload(
    name="tiny", why="self-test", genome_len=600, coverage=5, k=15, repeats=True,
    reconstruct_sample=None, assemble_from_end=None,
)


def test_repeat_genome_places_copies_and_is_seeded():
    g = repeat_genome(1500, seed=3)
    assert len(g) == 1500 and set(g) <= set("acgt")
    spacing = 1500 // REPEAT_COPIES
    starts = [i * spacing + (spacing - REPEAT_LEN) // 2 for i in range(REPEAT_COPIES)]
    copies = {g[s : s + REPEAT_LEN] for s in starts}
    assert len(copies) == 1
    assert repeat_genome(1500, seed=3) == g != repeat_genome(1500, seed=4)


def test_sample_reads_matches_cdbg_synth():
    cfg = SyntheticConfig(genome_len=800, coverage=4, seed=7)
    assert sample_reads(generate_genome(cfg), cfg) == generate_reads(cfg)[1]


def test_workload_inputs_are_deterministic():
    for w in (TINY, WORKLOADS["repeats-k25"]):
        assert make_inputs(w, 5) == make_inputs(w, 5)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    files = pl.Files(work / "r.fa", work / "i.cdbg", work / "rec.txt", work / "c.fa")
    genome, reads = make_inputs(TINY, 1)
    write_fasta(files.reads, reads, prefix="r")
    cycle = pl.Cycle(
        pl.build_op(files, TINY.k),
        [pl.load_op(files)],
        pl.reconstruct_op(files, None),
        pl.assemble_op(files, None),
        {},
    )
    return files, cycle


def test_checks_pass_on_correct_outputs(tiny_run):
    files, cycle = tiny_run
    res = pl.check_cycle(cycle, files, TINY.k)
    assert res.failed == 0 and res.attempted > 0, res.problems
    assert pl.recovered_fraction(cycle.reconstruct) == 1.0


def _broken(cycle, **changes):
    rec = pl.Reconstructed(**{**vars(cycle.reconstruct), **changes.get("rec", {})})
    asm = pl.Assembled(**{**vars(cycle.assemble), **changes.get("asm", {})})
    built = pl.Built(**{**vars(cycle.build), **changes.get("built", {})})
    return pl.Cycle(built, cycle.load_seconds, rec, asm, {})


@pytest.mark.parametrize(
    "changes",
    [
        {"rec": {"recovered": ["acgt" * 25]}},  # foreign string, every read lost
        {"asm": {"contigs": ["a" * 40]}},  # k-window in no read
        {"built": {"counts": {"nodes": -1}}},  # round trip disagrees
    ],
)
def test_checks_fail_on_wrong_outputs(tiny_run, changes):
    files, cycle = tiny_run
    res = pl.check_cycle(_broken(cycle, **changes), files, TINY.k)
    assert res.failed > 0 and res.problems


def test_size_accounting_matches_container(tiny_run):
    files, _ = tiny_run
    data = files.index.read_bytes()
    sections = pl.section_bytes(data)
    assert set(sections) == {"META", "BOSS", "COLR"}
    assert 8 + sum(12 + n for n in sections.values()) + 4 == len(data)
    sizes = pl.size_accounting(files)
    assert 0 < sizes["container.E_bytes"] + sizes["container.B_bytes"] < sections["BOSS"]
    parts = ("N", "F", "payload")
    assert 0 < sum(sizes[f"colormatrix.{p}_bytes"] for p in parts) < sections["COLR"]


def test_tracer_self_times_add_up():
    tracer = Tracer()

    def leaf(n):
        return sum(range(n))

    agg_leaf = tracer._aggregate_wrapper(leaf, "leaf")
    agg_inner = tracer._aggregate_wrapper(lambda n: agg_leaf(n) + agg_leaf(n), "inner")
    with tracer.span("op") as op:
        with tracer.span("stage"):
            for _ in range(50):
                agg_inner(2000)
        agg_leaf(2000)
    assert tracer.aggregate_totals("leaf")[0] == 101
    assert tracer.aggregate_totals("inner")[0] == 50
    selfs = tracer.self_times_ns()
    wall = op["end_ns"] - op["start_ns"]
    outer_ns = sum(o for (_, _, o) in tracer.aggregates.values())
    assert sum(selfs.values()) + outer_ns == wall
    assert all(v >= 0 for v in selfs.values())


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "repeats-k25", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The benchmark's modules under ``perfbench/``, loaded from their files and
run in this process on tiny inputs, so that a library change that breaks
the benchmark fails here.

The traced mode (``perfbench/run.py --trace 1``) wraps library functions
and methods by name. A library name it lists that is removed or renamed
breaks that mode, so one test installs its wrappers and takes them off
again. The other runs the benchmark's cycle of operations, with both the
full and the sampled reconstruction and assembly that the workloads time,
and the benchmark's checks of the outputs."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

from cdbg.fastx import write_fasta

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_wraps_resolve_and_come_off():
    run, tracer = load("run"), load("tracer")
    t = tracer.Tracer()
    try:
        run._install(t)
        wrapped = list(t._undo)
        assert wrapped
        for owner, attr, original in wrapped:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        t.uninstall()
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, (owner, attr)


def test_benchmark_cycles_pass_their_checks(tmp_path):
    # a 480 bp genome with a repeated segment, as repeats-k25 has, at 5x:
    # one cycle with reconstruct_all and assemble_all, one with build_seqs
    # from strided starts and contig_assm from reads near the genome's end
    run, pl, workloads = load("run"), load("pipeline"), load("workloads")
    full = dataclasses.replace(workloads.WORKLOADS["repeats-k25"], name="tiny", coverage=5)
    sampled = dataclasses.replace(full, reconstruct_sample=6, assemble_from_end=(120, 240))
    genome, reads = workloads.make_inputs(full, 0)
    np.random.default_rng(1).shuffle(reads)
    ref = pl.Reference()
    for w in (full, sampled):
        work = tmp_path / str(w.reconstruct_sample)
        work.mkdir()
        files = pl.Files(work / "reads.fa", work / "index.cdbg", work / "rec.txt", work / "contigs.fa")
        write_fasta(files.reads, reads, prefix="r")
        start_reads = None
        if w.assemble_from_end is not None:
            ends = [len(genome) - d for d in w.assemble_from_end]
            start_reads = [run._forward_read_near(genome, reads, end) for end in ends]
        cycle = run._cycle(pl, w, files, start_reads, ref)
        checks = run._check(pl, [cycle], files, w.k)
        assert checks["failed"] == 0 and checks["attempted"] > 0, checks["problems"]
        assert pl.recovered_fraction(cycle.reconstruct) == 1.0
        assert cycle.reconstruct.recovered and cycle.assemble.contigs
        assert len(cycle.assemble.contigs) == len(start_reads or cycle.assemble.contigs)

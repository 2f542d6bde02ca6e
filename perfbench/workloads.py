"""Workload definitions and seeded input generation.

Every workload uses 100 bp error-free reads taken from both strands. The
genome and the read multiset of a workload are fixed (generator seed 0);
the run's seed only shuffles the read order. Generating inputs is not
timed. The genomes are small (0.5-2 kb) so that no operation takes more
than about two seconds and a run can repeat each one many times: on a
shared two-core machine the speed drifts by up to a factor of two over
seconds to minutes, and single operations of 10-30 s spread by 25%
between runs. Why each workload exists:

* ``build-k31-30x``: the write path. A 1 kb ``cdbg synth`` genome at 30x
  (300 reads) with k=31. Coloring is almost all of the build, so this is
  where coloring (ROADMAP item 2) and the BOSS sort show. Full
  reconstruction and assembly take too long at 30x, so the read and
  assembly paths run on fixed samples only.
* ``decode-k25-10x``: the read path. A 2 kb ``cdbg synth`` genome at 10x
  with k=25: short colour rows, a single-copy genome and no branching
  between solid nodes. ``reconstruct_all`` with verification is the
  biggest operation, so colour lookup and navigation (item 3) show here.
* ``repeats-k25``: a 480 bp random genome with one 48 bp segment copied
  at four evenly spaced places, 10x, k=25. Random genomes have no repeats
  of length k or more, so only this workload has branching between solid
  nodes, critical nodes inside the genome, long colour rows (about 30
  colours) and assembly choices at real branches. ``assemble_all``
  dominates (item 4); coloring does little work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cdbg.sequence import reverse_complement
from cdbg.synthetic import SyntheticConfig, generate_reads

READ_LEN = 100
REPEAT_LEN = 48
REPEAT_COPIES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    genome_len: int
    coverage: int
    k: int
    repeats: bool
    # reconstruct_all over every starting node, or build_seqs from this many
    # evenly strided starting nodes when the full pass is too slow
    reconstruct_sample: int | None
    # assemble_all over every starting node, or contig_assm from the
    # forward reads nearest these distances before the genome end
    assemble_from_end: tuple[int, ...] | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="build-k31-30x",
            why="write path: 1 kb synth genome at 30x, k=31; coloring is nearly all of the build",
            genome_len=1_000,
            coverage=30,
            k=31,
            repeats=False,
            reconstruct_sample=25,
            assemble_from_end=(300, 600),
        ),
        Workload(
            name="decode-k25-10x",
            why="read path: 2 kb synth genome at 10x, k=25; reconstruct_all over short colour rows dominates",
            genome_len=2_000,
            coverage=10,
            k=25,
            repeats=False,
            reconstruct_sample=None,
            assemble_from_end=(500, 1000),
        ),
        Workload(
            name="repeats-k25",
            why="480 bp genome with a 48 bp segment at 4 places, 10x, k=25: real branches, long colour rows, assembly dominates",
            genome_len=480,
            coverage=10,
            k=25,
            repeats=True,
            reconstruct_sample=None,
            assemble_from_end=None,
        ),
    )
}


def repeat_genome(length: int, seed: int) -> str:
    """Random genome with one REPEAT_LEN segment copied at REPEAT_COPIES
    evenly spaced places."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=length)
    segment = rng.integers(0, 4, size=REPEAT_LEN)
    spacing = length // REPEAT_COPIES
    for i in range(REPEAT_COPIES):
        start = i * spacing + (spacing - REPEAT_LEN) // 2
        codes[start : start + REPEAT_LEN] = segment
    return "".join("acgt"[c] for c in codes)


def sample_reads(genome: str, cfg: SyntheticConfig) -> list[str]:
    """Reads drawn exactly as ``cdbg synth`` draws them from its genome."""
    rng = np.random.default_rng(cfg.seed + 1)
    n = cfg.n_reads
    starts = rng.integers(0, len(genome) - cfg.read_len + 1, size=n)
    strands = rng.integers(0, 2, size=n)
    reads = []
    for pos, strand in zip(starts, strands):
        r = genome[pos : pos + cfg.read_len]
        reads.append(reverse_complement(r) if strand else r)
    return reads


def make_inputs(w: Workload, seed: int) -> tuple[str, list[str]]:
    """(genome, reads) for workload w; the same seed gives the same inputs."""
    cfg = SyntheticConfig(
        genome_len=w.genome_len, read_len=READ_LEN, coverage=w.coverage, seed=seed
    )
    if not w.repeats:
        return generate_reads(cfg)
    genome = repeat_genome(w.genome_len, seed)
    return genome, sample_reads(genome, cfg)

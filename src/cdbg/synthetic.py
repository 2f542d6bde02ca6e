"""Deterministic synthetic genome and read sampling, with optional seeded
substitution errors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequence import reverse_complement

_ACGT = np.frombuffer(b"acgt", dtype=np.uint8)  # base code -> ASCII byte


@dataclass
class SyntheticConfig:
    genome_len: int = 100_000
    read_len: int = 100
    coverage: int = 20
    seed: int = 0
    error_rate: float = 0.0  # chance that a read base is substituted

    def __post_init__(self):
        if self.read_len > self.genome_len:
            raise ValueError("read length exceeds genome length")
        if min(self.genome_len, self.read_len, self.coverage) <= 0:
            raise ValueError("genome length, read length and coverage must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error rate must lie in [0, 1]")

    @property
    def n_reads(self) -> int:
        return self.genome_len * self.coverage // self.read_len


def generate_genome(cfg: SyntheticConfig) -> str:
    rng = np.random.default_rng(cfg.seed)
    codes = rng.integers(0, 4, size=cfg.genome_len)
    return _ACGT[codes].tobytes().decode("ascii")


def generate_reads(cfg: SyntheticConfig) -> tuple[str, list[str]]:
    """Uniform reads off both strands; same seed, same output. Each read
    base is replaced, with probability ``cfg.error_rate``, by one of the
    other three bases. The errors come from a generator of their own, so
    the reads drawn do not depend on the rate."""
    genome = generate_genome(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    n = cfg.n_reads
    starts = rng.integers(0, cfg.genome_len - cfg.read_len + 1, size=n)
    strands = rng.integers(0, 2, size=n)
    reads = []
    for pos, strand in zip(starts.tolist(), strands.tolist()):
        r = genome[pos : pos + cfg.read_len]
        reads.append(reverse_complement(r) if strand else r)
    if cfg.error_rate:
        reads = _substitute(reads, cfg.error_rate, np.random.default_rng(cfg.seed + 2))
    return genome, reads


def _substitute(reads: list[str], rate: float, rng: np.random.Generator) -> list[str]:
    """The reads with each base replaced, with probability rate, by one of
    the other three bases, uniformly."""
    codes = np.frombuffer("".join(reads).encode("ascii"), dtype=np.uint8)
    codes = np.searchsorted(_ACGT, codes)
    hit = np.flatnonzero(rng.random(len(codes)) < rate)
    codes[hit] = (codes[hit] + rng.integers(1, 4, size=len(hit))) % 4
    text = _ACGT[codes].tobytes().decode("ascii")
    ends = np.cumsum([len(r) for r in reads]).tolist()
    return [text[a:b] for a, b in zip([0] + ends, ends)]

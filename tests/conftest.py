import sys
from itertools import islice, product
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cdbg.boss import BossIndex
from cdbg.sequence import ReadSet, reverse_complement
from cdbg.synthetic import SyntheticConfig, generate_reads


@pytest.fixture(scope="session")
def e1_boss() -> BossIndex:
    """Single read "tacgt" at k=4; the worked example used across modules."""
    return BossIndex.build(ReadSet.from_reads(["tacgt"]), k=4)


def random_read_set(rng, n_reads: int, min_len: int = 20, max_len: int = 60) -> list[str]:
    return [
        "".join(rng.choice(list("acgt"), size=rng.integers(min_len, max_len + 1)))
        for _ in range(n_reads)
    ]


def mixed_read_set(seed: int, k: int) -> ReadSet:
    """Random reads sharing a segment of k+2 symbols (a repeat, so nodes
    branch), plus a contained read, a duplicate, a palindrome and a read
    of length exactly k."""
    rng = np.random.default_rng(seed)

    def rand(n: int) -> str:
        return "".join(rng.choice(list("acgt"), size=n))

    segment = rand(k + 2)
    reads = [
        rand(int(rng.integers(1, 15))) + segment + rand(int(rng.integers(1, 15)))
        for _ in range(4)
    ]
    reads += [rand(int(rng.integers(k, k + 30))) for _ in range(3)]
    half = rand(k // 2 + 2)
    reads += [
        reads[0][2 : k + 5],
        reads[1],
        half + reverse_complement(half),
        reads[4][:k],
    ]
    return ReadSet.from_reads(reads)


def wide_read_set() -> ReadSet:
    """80 reads behind one shared 7-symbol prefix. At k=9 they make 160
    strings and need 80 colours, all in the starting node's row, so row
    bitmasks are wider than a machine word."""
    return ReadSet.from_reads(["gattaca" + "".join(t) for t in islice(product("acgt", repeat=4), 80)])


def error_read_set() -> ReadSet:
    """A 2 kb / 10x synthetic read set with 1% substitutions: more $ edges
    than ending nodes, and branches the error-free sets lack."""
    cfg = SyntheticConfig(genome_len=2000, coverage=10, seed=0, error_rate=0.01)
    return ReadSet.from_reads(generate_reads(cfg)[1])

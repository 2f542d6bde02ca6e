"""Seeded bit-flip fuzz of the index container, run as its own process.

Serializes a small index (a 600 bp synthetic genome at 5x, k=9), then for
each case flips 1-3 random bits of the container body, seals the CRC again
and loads the result. A container must either load or raise
``IntegrityError``; one that loads must answer ``reconstruct_all`` and
``assemble_all`` or raise ``NotColored``: a damaged graph can still
derive a colorable set that misses a node a walk reaches, but every
structure a query reads was checked at load. ``reconstruct_all`` runs
twice, with every walk in lockstep and with every walk one at a time,
and both must give the same strings and ambiguous count, or both raise
``NotColored``.

The process first caps its own address space, so an allocation sized by a
damaged length field fails as ``MemoryError`` here instead of exhausting
the machine. Prints one JSON object of outcome counts and exits 0, or
prints the case and traceback of the first other exception, or of the
first case where the two walks differ, and exits 1.

Usage: python tests/fuzz_container.py SEED CASES
"""

import json
import resource
import struct
import sys
import traceback
import zlib

import numpy as np

ADDRESS_SPACE_CAP = 2 << 30  # bytes


def index_bytes() -> bytes:
    from cdbg.boss import BossIndex
    from cdbg.coloring import color_all, mark_colorable
    from cdbg.colormatrix import compress
    from cdbg.container import IndexMeta, serialize_index
    from cdbg.sequence import ReadSet
    from cdbg.synthetic import SyntheticConfig, generate_reads

    _, reads = generate_reads(SyntheticConfig(genome_len=600, read_len=60, coverage=5, seed=0))
    read_set = ReadSet.from_reads(reads)
    boss = BossIndex.build(read_set, k=9)
    colorable = mark_colorable(boss)
    colors = compress(color_all(boss, colorable, read_set), colorable)
    return serialize_index(boss, colors, IndexMeta())


def flipped(data: bytes, rng: np.random.Generator) -> bytes:
    """data with 1-3 distinct bits of the body flipped and the CRC sealed again."""
    body = bytearray(data[:-4])
    for bit in rng.choice(8 * len(body), size=int(rng.integers(1, 4)), replace=False).tolist():
        body[bit // 8] ^= 1 << (bit % 8)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def both_walks(boss, colors) -> list:
    """``reconstruct_all``'s strings and ambiguous count, or ``NotColored``,
    with every walk in lockstep and then with every walk one at a time."""
    from cdbg import traversal
    from cdbg.errors import NotColored

    answers = []
    for crossover in (0, sys.maxsize):
        traversal.LOCKSTEP_MIN_WALKS = crossover
        try:
            report = traversal.reconstruct_all(boss, colors)
            answers.append((report.recovered, report.ambiguous_count))
        except NotColored:
            answers.append(NotColored)
    return answers


def main(seed: int, cases: int) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    from cdbg.container import deserialize_index
    from cdbg.errors import IntegrityError, NotColored
    from cdbg.traversal import assemble_all

    data = index_bytes()
    rng = np.random.default_rng(seed)
    counts = {"refused": 0, "answered": 0, "NotColored": 0}
    for case in range(cases):
        damaged = flipped(data, rng)
        try:
            try:
                boss, colors, _ = deserialize_index(damaged)
            except IntegrityError:
                counts["refused"] += 1
                continue
            lockstep, one_at_a_time = both_walks(boss, colors)
            if lockstep != one_at_a_time:
                print(f"case {case} of seed {seed}: the two walks differ", file=sys.stderr)
                return 1
            if lockstep is NotColored:
                counts["NotColored"] += 1
                continue
            try:
                assemble_all(boss, colors, 1.0)
                counts["answered"] += 1
            except NotColored:
                counts["NotColored"] += 1
        except Exception:
            print(f"case {case} of seed {seed}:", file=sys.stderr)
            traceback.print_exc()
            return 1
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))

"""Seeded bit-flip fuzz of the index container, run as its own process.

Serializes a small index (a 600 bp synthetic genome at 5x, k=9) twice: as
built, without the rows of its implicit successors, and as a full table
that keeps every row. Each case then damages one of them, seals the CRC
again and loads the result: half the cases flip 1-3 random bits of the
body of the index as built, a quarter those of the full table, and a
quarter damage the last field, the bits that mark which implicit
successors keep a row (``kept_damaged``). A container must either load or raise
``IntegrityError``; one that loads must answer ``reconstruct_all`` and
``assemble_all`` or raise ``NotColored``: a damaged graph can still
derive a colorable set that misses a node a walk reaches, but every
structure a query reads was checked at load. In a graph that loads,
each node has at most one starting predecessor, its parent, as
``oracle.starting_preds_ref`` reads them off the edges; assembly reads
no other, so a load that let a flagged edge leave a node with a leading
``$`` fails the fuzz here. ``reconstruct_all`` runs
twice, with its own lockstep walk and with ``build_seqs``'s one-node
walk for each pair (``oracle.walk_each_pair``), and both must give the
same strings and ambiguous count, or both raise ``NotColored``. Where
the loaded colors keep every row (no implicit successor without one),
``assemble_all`` at x = 0.5 and at x = 1.0 must give the contigs of
``oracle.assemble_all_ref``, or both raise ``NotColored``; elsewhere it
runs at x = 1.0 and must answer or raise ``NotColored``.

The process first caps its own address space, so an allocation sized by a
damaged length field fails as ``MemoryError`` here instead of exhausting
the machine. Prints one JSON object of outcome counts and exits 0, or
prints the case and traceback of the first other exception, or of the
first case where the two walks or the two assemblies differ, and exits 1.

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


def index_bytes() -> tuple[bytes, bytes]:
    """The container of the index as built, and of its full table."""
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
    table = color_all(boss, colorable, read_set)
    built = serialize_index(boss, compress(table, colorable), IndexMeta())
    table.kept = np.ones_like(table.kept)
    return built, serialize_index(boss, compress(table, colorable), IndexMeta())


def sealed(body: bytes | bytearray) -> bytes:
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def flipped(data: bytes, rng: np.random.Generator, start: int = 0) -> bytes:
    """data with 1-3 distinct bits of the body from byte start on flipped
    and the CRC sealed again."""
    body = bytearray(data[:-4])
    n_bits = 8 * (len(body) - start)
    flips = rng.choice(n_bits, size=int(rng.integers(1, min(4, n_bits + 1))), replace=False)
    for bit in flips.tolist():
        body[start + bit // 8] ^= 1 << (bit % 8)
    return sealed(body)


def kept_damaged(data: bytes, rng: np.random.Generator) -> bytes:
    """data with the bits of its implicit successors, the last field of the
    last section, damaged: 1-3 of its bits flipped, or the field replaced
    by a random bitvector, plain or sparse, set at random positions, some
    past the implicit successors, and one word longer or shorter at times."""
    from cdbg._binio import Writer
    from cdbg.bitvectors import BitVector, MonotoneSequence
    from cdbg.container import deserialize_index, section_sizes

    boss, colors, _ = deserialize_index(data)
    start = len(data) - 4 - colors.structure_bytes()["kept"]
    if rng.integers(2):
        return flipped(data, rng, start)
    n = len(boss.implicit_candidates) + int(rng.choice([-64, -1, 0, 0, 1, 64]))
    bits = (rng.random(max(n, 0)) < rng.choice([0.0, 0.02, 0.5])).astype(np.uint8)
    w = Writer()
    if rng.integers(2):  # written as is, not in the smaller encoding
        w.u8(1)
        w.array(BitVector(bits)._words)
    else:
        w.u8(2)
        MonotoneSequence(np.flatnonzero(bits)).serialize(w)
    field, size = w.getvalue(), section_sizes(data)["COLR"]
    at = len(data) - 4 - size - 8  # COLR's length: it is the last section
    body = bytearray(data[:start] + field)
    body[at : at + 8] = (size + len(field) - (len(data) - 4 - start)).to_bytes(8, "little")
    return sealed(body)


def damaged(case: int, built: bytes, full: bytes, rng: np.random.Generator) -> bytes:
    """Case's container: bit flips of the index as built, bit flips of its
    full table, or its implicit successors' bits damaged in either."""
    kind = case % 4
    if kind == 3:
        return kept_damaged(full if case % 8 == 7 else built, rng)
    return flipped(full if kind == 2 else built, rng)


def both_walks(boss, colors) -> list:
    """``reconstruct_all``'s strings and ambiguous count, or ``NotColored``,
    with every walk in lockstep and then with every walk one at a time."""
    from cdbg import traversal
    from cdbg.errors import NotColored
    from oracle import walk_each_pair

    answers = []
    lockstep = traversal._walk_lockstep
    for walk in (lockstep, walk_each_pair):
        traversal._walk_lockstep = walk
        try:
            report = traversal.reconstruct_all(boss, colors)
            answers.append((report.recovered, report.ambiguous_count))
        except NotColored:
            answers.append(NotColored)
        finally:
            traversal._walk_lockstep = lockstep
    return answers


def both_assemblies(boss, colors, x: float) -> list:
    """``assemble_all``'s contigs at x, or ``NotColored``, and the same from
    ``oracle.assemble_all_ref``."""
    from cdbg.errors import NotColored
    from cdbg.traversal import assemble_all
    from oracle import assemble_all_ref

    answers = []
    for assemble in (assemble_all, assemble_all_ref):
        try:
            answers.append(assemble(boss, colors, x))
        except NotColored:
            answers.append(NotColored)
    return answers


def main(seed: int, cases: int) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    from cdbg.container import deserialize_index
    from cdbg.errors import IntegrityError, NotColored
    from cdbg.traversal import assemble_all
    from oracle import starting_preds_ref

    built, full = index_bytes()
    rng = np.random.default_rng(seed)
    counts = {"refused": 0, "answered": 0, "NotColored": 0}
    for case in range(cases):
        data = damaged(case, built, full, rng)
        try:
            try:
                boss, colors, _ = deserialize_index(data)
            except IntegrityError:
                counts["refused"] += 1
                continue
            preds = starting_preds_ref(boss)
            if any(len(p) > 1 or p[0][0] != boss._parent[t] for t, p in preds.items()):
                print(f"case {case} of seed {seed}: a start enters a node it is not the parent of",
                      file=sys.stderr)
                return 1
            lockstep, one_at_a_time = both_walks(boss, colors)
            if lockstep != one_at_a_time:
                print(f"case {case} of seed {seed}: the two walks differ", file=sys.stderr)
                return 1
            if lockstep is NotColored:
                counts["NotColored"] += 1
                continue
            if len(colors.implicit):
                try:
                    assemble_all(boss, colors, 1.0)
                    counts["answered"] += 1
                except NotColored:
                    counts["NotColored"] += 1
                continue
            for x in (0.5, 1.0):  # counted by x = 1.0, as the cases above
                got, want = both_assemblies(boss, colors, x)
                if got != want:
                    print(f"case {case} of seed {seed}: assemblies differ at x={x}", file=sys.stderr)
                    return 1
            counts["NotColored" if got is NotColored else "answered"] += 1
        except Exception:
            print(f"case {case} of seed {seed}:", file=sys.stderr)
            traceback.print_exc()
            return 1
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))

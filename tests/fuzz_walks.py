"""Seeded fuzz of the lockstep walk against the one-node walk, in-process.

Each case draws a random read set: k from ``KS``, a random genome, and 3
to 120 reads off either strand. In 30% of the sets a segment of k + 2 to
k + 20 symbols is copied to 2 or 3 places of the genome, so walks meet
real branches and repeated (k - 2)-mers; in 10% of the reads one symbol
is substituted, so walks meet error tips and bubbles. The set is built
and coloured as ``cdbg build`` does, and every (starting node, colour)
pair is walked by ``traversal._walk_lockstep`` and by
``oracle.walk_each_pair``, the walk of ``build_seqs`` one pair at a time.
The raw strings, the $ edges included, and the ambiguous walks (None)
must be the same.

Prints one JSON object of counts (cases, walks, recovered, ambiguous) and
exits 0, or prints the case that differs and exits 1.

Usage: python tests/fuzz_walks.py SEED CASES
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

KS = (3, 4, 5, 6, 9, 15, 25, 31, 63)


def random_case(rng: np.random.Generator) -> tuple[int, list[str]]:
    """A random k and read set, as the module docstring describes."""
    k = int(rng.choice(KS))
    genome = rng.integers(0, 4, size=int(rng.integers(4 * k + 60, 6 * k + 300)))
    if rng.random() < 0.3:
        segment = rng.integers(0, 4, size=k + int(rng.integers(2, 21)))
        for at in rng.choice(len(genome) - len(segment), size=int(rng.integers(2, 4))):
            genome[at : at + len(segment)] = segment
    reads = []
    for _ in range(int(rng.integers(3, 121))):
        n = int(rng.integers(k, min(len(genome), k + 80) + 1))
        at = int(rng.integers(len(genome) - n + 1))
        read = genome[at : at + n].copy()
        if rng.random() < 0.1:
            i = int(rng.integers(n))
            read[i] = (read[i] + rng.integers(1, 4)) % 4
        if rng.integers(2):
            read = 3 - read[::-1]
        reads.append("".join("acgt"[c] for c in read))
    return k, reads


def build_case(k: int, raw: list[str]):
    """The read set, graph, colour table and compressed colours of ``raw``,
    built as ``cdbg build`` builds them."""
    from cdbg.boss import BossIndex
    from cdbg.coloring import color_all
    from cdbg.colormatrix import compress
    from cdbg.sequence import ReadSet

    reads = ReadSet.from_reads(raw, k=k)
    boss = BossIndex.build(reads, k)
    table = color_all(boss, boss.colorable, reads)
    return reads, boss, table, compress(table, boss.colorable)


def run_cases(seed: int, cases: int) -> dict[str, int]:
    """Walks every case both ways and counts the walks. Raises
    ``AssertionError`` naming the first case whose walks differ."""
    from cdbg.traversal import _IndexView, _walk_lockstep
    from oracle import walk_each_pair

    rng = np.random.default_rng(seed)
    counts = {"cases": 0, "walks": 0, "recovered": 0, "ambiguous": 0}
    for case in range(cases):
        k, raw = random_case(rng)
        _, boss, _, colors = build_case(k, raw)
        view, ids = _IndexView.of(boss, colors), boss.starting_node_ids()
        owner, col = view.start_colors(ids)
        cur = ids[owner]
        got, want = _walk_lockstep(view, cur, col), walk_each_pair(view, cur, col)
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            raise AssertionError(
                f"case {case} of seed {seed} (k={k}, {len(raw)} reads): walk from node "
                f"{cur[i]} with colour {col[i]} gives {got[i]!r}, one node at a time {want[i]!r}"
            )
        counts["cases"] += 1
        counts["walks"] += len(got)
        counts["recovered"] += sum(s is not None for s in got)
        counts["ambiguous"] += sum(s is None for s in got)
    return counts


def main(seed: int, cases: int) -> int:
    try:
        counts = run_cases(seed, cases)
    except AssertionError as exc:
        print(exc)
        return 1
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))

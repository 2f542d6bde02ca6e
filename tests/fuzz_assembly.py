"""Seeded fuzz of assembly and of the per-string promise of
reconstruction on random read sets, in-process.

Each case draws a read set as ``fuzz_walks.random_case`` does: k from 3
to 63, repeats and substitutions. The set is built and coloured as
``cdbg build`` does, and two checks run on it:

* at each threshold x, ``traversal.assemble_all`` on the built index
  gives what ``oracle.assemble_all_ref`` gives on the full table, every
  implicit successor's row kept (``oracle.full_colors``), or both raise
  ``NotColored``;
* ``traversal.reconstruct_all`` recovers every string of R′, the reads
  and their reverse complements, that repeats no (k - 2)-mer, and
  recovers no string outside R′. A string that does repeat one may pass
  a branching node twice, leave it by two successors and be lost.

Prints one JSON object of counts and exits 0, or prints the first case
that differs and exits 1.

Usage: python tests/fuzz_assembly.py SEED CASES
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

XS = (0.3, 0.5, 1.0)


def repeats_a_k2mer(s: str, k: int) -> bool:
    """Whether some (k - 2)-mer occurs twice in s."""
    n = len(s) - k + 3
    return len({s[i : i + k - 2] for i in range(n)}) < n


def run_cases(seed: int, cases: int, xs=XS) -> dict[str, int]:
    """Checks every case, assembly at each x of ``xs``, and counts. Raises
    ``AssertionError`` naming the first case that differs."""
    from cdbg.errors import NotColored
    from cdbg.traversal import assemble_all, reconstruct_all
    from fuzz_walks import build_case, random_case
    from oracle import assemble_all_ref, full_colors

    def contigs(assemble, boss, colors, x):
        try:
            return assemble(boss, colors, x)
        except NotColored:
            return None

    rng = np.random.default_rng(seed)
    counts = dict.fromkeys(
        ["cases", "assemblies", "not_colored", "unrepeated", "repeating", "repeating_lost"], 0
    )
    for case in range(cases):
        k, raw = random_case(rng)
        reads, boss, table, colors = build_case(k, raw)
        where = f"case {case} of seed {seed} (k={k}, {len(raw)} reads)"
        full = full_colors(boss, table)
        for x in xs:
            got = contigs(assemble_all, boss, colors, x)
            want = contigs(assemble_all_ref, boss, full, x)
            if got != want:
                raise AssertionError(
                    f"{where}: at x={x} assemble_all gives {got}, the full table {want}"
                )
            counts["assemblies"] += 1
            counts["not_colored"] += got is None
        strings = set(reads.strings_with_rc())
        recovered = set(reconstruct_all(boss, colors).recovered)
        if outside := recovered - strings:
            raise AssertionError(f"{where}: recovered {min(outside)!r}, not a string of the set")
        for s in sorted(strings - recovered):
            if not repeats_a_k2mer(s, k):
                raise AssertionError(f"{where}: lost {s!r}, which repeats no (k - 2)-mer")
        repeating = sum(repeats_a_k2mer(s, k) for s in strings)
        counts["cases"] += 1
        counts["unrepeated"] += len(strings) - repeating
        counts["repeating"] += repeating
        counts["repeating_lost"] += len(strings - recovered)
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

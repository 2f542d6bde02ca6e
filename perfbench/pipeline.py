"""The benchmark's operations, output checks and untimed measurements.

Each operation calls cdbg's public functions in the order the matching
``cdbg`` subcommand in ``cli.py`` calls them, on real files, with
``threads=1``. The library is called through its modules (``container.
read_index``, not a local name) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cdbg import boss as boss_mod
from cdbg._binio import Writer
from cdbg import coloring, colormatrix, container, fastx, stats, traversal
from cdbg.sequence import reverse_complement

ASSEMBLY_THRESHOLD = 0.5  # the CLI's default --min-frac


@dataclass
class Files:
    reads: Path
    index: Path
    recovered: Path
    contigs: Path


@dataclass
class Built:
    seconds: float
    distinct_bp: int
    index_bytes: int
    counts: dict  # nodes, edges, p, colors of the in-memory index


@dataclass
class Reconstructed:
    seconds: float
    recovered: list[str]
    expected: list[str]  # strings the recovered set must cover
    by_read: bool  # expected holds reads that count up to reverse complement
    walks: int
    ambiguous: int


@dataclass
class Assembled:
    seconds: float
    contigs: list[str]


@dataclass
class Cycle:
    """One pass over every operation of a workload."""

    build: Built
    load_seconds: list[float]
    reconstruct: Reconstructed
    assemble: Assembled
    scale: dict[str, float]  # per operation: REF_SECONDS / reference time next to it
    digests: dict = field(default_factory=dict)


# The reference loop's time on an idle core of the 2-core 2.1 GHz Xeon VM the
# bounds were set on, so that reference seconds stay close to wall seconds.
REF_SECONDS = 0.017


class Reference:
    """Fixed work that does not involve cdbg, timed right before and after
    each operation. On a shared machine the speed drifts by up to a factor
    of two over periods of seconds to minutes, and moves this loop and the
    program together: scaling an operation's time by REF_SECONDS over the
    loop's time next to it (reference seconds) cuts the spread between runs
    from about 25% to about 5%. The loop mixes interpreted Python with small
    numpy calls on a 4.6 MB array, like the library's hot paths."""

    def __init__(self):
        self._arr = np.arange(0, 4_000_000, 7, dtype=np.int64)
        self._keys = [int(x) for x in np.random.default_rng(0).integers(0, 4_000_000, 8000)]

    def seconds(self) -> float:
        arr = self._arr
        acc: dict[int, int] = {}
        t0 = time.perf_counter()
        for x in self._keys:
            r = int(np.searchsorted(arr, x))
            acc[r & 255] = acc.get(r & 255, 0) + int(arr[r % len(arr)])
        return time.perf_counter() - t0


# -- operations ----------------------------------------------------------------


def build_op(files: Files, k: int) -> Built:
    """``cdbg build``: FASTA to index file."""
    t0 = time.perf_counter()
    reads = fastx.parse_reads(files.reads, k=k)
    boss = boss_mod.BossIndex.build(reads, k)
    cmap = coloring.mark_colorable(boss)
    table = coloring.color_all(boss, cmap, reads, threads=1)
    colors = colormatrix.compress(table, cmap)
    meta = container.IndexMeta(
        plain_bytes=reads.plain_bytes,
        n_reads=len(reads),
        n_rejected=reads.n_rejected,
        n_too_short=reads.n_too_short,
        n_strings=len(table.read_colors),
    )
    index_bytes = container.write_index(files.index, boss, colors, meta)
    stats.compute_stats(boss, colors, meta, index_bytes)
    seconds = time.perf_counter() - t0
    counts = dict(
        nodes=boss.node_count, edges=boss.edge_count, p=colors.p, colors=colors.num_colors
    )
    return Built(seconds, reads.plain_bytes, index_bytes, counts)


def load_op(files: Files) -> float:
    """``read_index`` alone: the set-up every query command pays."""
    t0 = time.perf_counter()
    container.read_index(files.index)
    return time.perf_counter() - t0


def reconstruct_op(files: Files, sample: int | None) -> Reconstructed:
    """``cdbg reconstruct --verify``; with ``sample``, ``build_seqs`` runs
    from that many evenly strided starting nodes instead of ``reconstruct_all``."""
    t0 = time.perf_counter()
    boss, colors, meta = container.read_index(files.index)
    verify = fastx.parse_reads(files.reads)
    if sample is None:
        report = traversal.reconstruct_all(boss, colors, verify_against=verify, threads=1)
        recovered = report.recovered
    else:
        starts = _strided_starts(boss, sample)
        recovered = []
        for v in starts:
            recovered.extend(traversal.build_seqs(boss, colors, v))
    _write_lines(files.recovered, recovered)
    seconds = time.perf_counter() - t0

    if sample is None:
        walks = sum(s.colors for s in report.per_start.values())
        return Reconstructed(
            seconds, recovered, list(verify.reads), True, walks, report.ambiguous_count
        )
    prefixes = {boss.node_label(v)[1:] for v in starts}
    expected = [s for s in verify.strings_with_rc() if s[: boss.k - 2] in prefixes]
    walks = sum(len(colormatrix.get_colors(colors, v)) for v in starts)
    return Reconstructed(seconds, recovered, expected, False, walks, walks - len(recovered))


def assemble_op(files: Files, start_reads: list[str] | None) -> Assembled:
    """``cdbg assemble``; with ``start_reads``, ``contig_assm`` runs only from
    the starting nodes of those reads instead of ``assemble_all``."""
    t0 = time.perf_counter()
    boss, colors, meta = container.read_index(files.index)
    if start_reads is None:
        contigs = traversal.assemble_all(boss, colors, ASSEMBLY_THRESHOLD)
    else:
        contigs = []
        for read in start_reads:
            v = boss.label_to_node("$" + read[: boss.k - 2])
            contigs.append(traversal.contig_assm(boss, colors, v, ASSEMBLY_THRESHOLD))
        contigs.sort(key=lambda s: (-len(s), s))
    fastx.write_fasta(files.contigs, contigs, prefix="contig")
    return Assembled(time.perf_counter() - t0, contigs)


def _strided_starts(boss, sample: int) -> list[int]:
    """Every n-th starting node. The read multiset, and so the set of
    starting nodes, is the same for every seed, so the work is too."""
    starts = boss.starting_node_ids()
    stride = max(1, len(starts) // sample)
    return [int(v) for v in starts[::stride][:sample]]


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w") as fh:
        for s in lines:
            fh.write(s + "\n")


# -- output checks -------------------------------------------------------------


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} {what}")


def check_cycle(cycle: Cycle, files: Files, k: int) -> CheckResult:
    """Checks that fail the run: round trip, recovered reads, contig k-windows."""
    res = CheckResult()
    boss, colors, _ = container.read_index(files.index)
    loaded = dict(
        nodes=boss.node_count, edges=boss.edge_count, p=colors.p, colors=colors.num_colors
    )
    res.add(1, int(loaded != cycle.build.counts), "index round trips (counts differ)")

    reads = fastx.parse_reads(files.reads)
    strings = set(reads.strings_with_rc())
    rec = cycle.reconstruct
    got = set(rec.recovered)
    res.add(len(rec.recovered), sum(s not in strings for s in rec.recovered),
            "recovered strings that are no input read")
    missing = _unrecovered(rec, got)
    res.add(len(rec.expected), missing, "expected reads not recovered")

    windows = {s[i : i + k] for s in strings for i in range(len(s) - k + 1)}
    bad = sum(
        any(c[i : i + k] not in windows for i in range(len(c) - k + 1))
        for c in cycle.assemble.contigs
    )
    res.add(len(cycle.assemble.contigs), bad, "contigs with a k-window in no input read")
    return res


def _unrecovered(rec: Reconstructed, got: set[str]) -> int:
    if rec.by_read:
        return sum(r not in got and reverse_complement(r) not in got for r in rec.expected)
    return sum(s not in got for s in rec.expected)


def recovered_fraction(rec: Reconstructed) -> float:
    if not rec.expected:
        return 1.0
    return 1.0 - _unrecovered(rec, set(rec.recovered)) / len(rec.expected)


def digests(files: Files, cycle: Cycle) -> dict:
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    return {
        "index_sha256": sha(files.index.read_bytes()),
        "recovered_sha256": sha("\n".join(sorted(cycle.reconstruct.recovered)).encode()),
        "contigs_sha256": sha("\n".join(cycle.assemble.contigs).encode()),
    }


# -- untimed measurements ------------------------------------------------------


def serialized_bytes(obj) -> int:
    w = Writer()
    obj.serialize(w)
    return len(w.getvalue())


def section_bytes(data: bytes) -> dict[str, int]:
    """Section lengths from the container header: magic, version (u8), k
    (u16), section count (u8), then per section a 4-byte tag and u64 length."""
    pos = 4 + 1 + 2
    n_sections = data[pos]
    pos += 1
    out = {}
    for _ in range(n_sections):
        tag = data[pos : pos + 4].decode("ascii")
        length = int.from_bytes(data[pos + 4 : pos + 12], "little")
        out[tag] = length
        pos += 12 + length
    return out


def size_accounting(files: Files) -> dict[str, float]:
    data = files.index.read_bytes()
    boss, colors, _ = container.read_index(files.index)
    out = {f"container.{tag}_bytes": n for tag, n in section_bytes(data).items()}
    out["container.bits_per_edge"] = 8 * len(data) / boss.edge_count
    out["container.E_bytes"] = serialized_bytes(boss.E)
    out["container.B_bytes"] = serialized_bytes(boss.B)
    out["colormatrix.N_bytes"] = serialized_bytes(colors.N)
    out["colormatrix.F_bytes"] = serialized_bytes(colors.F)
    out["colormatrix.payload_bytes"] = serialized_bytes(colors.payload)
    out["colormatrix.row_len_mean"] = len(colors.payload) / colors.p
    return out


def ram_accounting(files: Files) -> dict[str, int]:
    """Bytes held by a loaded index, by structure, as tracemalloc sees them."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        boss, colors, meta = container.read_index(files.index)
        gc.collect()
        total = tracemalloc.get_traced_memory()[0] - base
        edges = boss.edge_count
        del colors
        gc.collect()
        without_colors = tracemalloc.get_traced_memory()[0] - base
        del boss, meta
    finally:
        tracemalloc.stop()
    return {
        "total": total,
        "edges": edges,
        "graph": without_colors,
        "colors": total - without_colors,
    }


def _median_ns_per_call(fn, args, batches: int = 7) -> float:
    """Median over batches of the mean ns per call of fn over args."""
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter_ns()
        for a in args:
            fn(*a)
        per_call.append((time.perf_counter_ns() - t0) / len(args))
    return statistics.median(per_call)


def primitive_timings(files: Files, seed: int, calls: int = 1000) -> dict[str, float]:
    """ns per call of the primitives on the loaded index, with seeded arguments."""
    boss, colors, _ = container.read_index(files.index)
    rng = np.random.default_rng(seed)
    B = boss.B
    payload = colors.payload
    pos = rng.integers(1, boss.edge_count + 1, size=calls)
    forward_args = [(int(B.rank1(p)), boss.E.access(int(p))) for p in pos]
    colorable = colors.N.ones_positions() + 1
    return {
        "bitvectors.rank1_ns": _median_ns_per_call(
            B.rank1, [(int(i),) for i in rng.integers(0, B.n + 1, size=calls)]
        ),
        "bitvectors.select1_ns": _median_ns_per_call(
            B.select1, [(int(j),) for j in rng.integers(1, B.count + 1, size=calls)]
        ),
        "bitvectors.ef_access_ns": _median_ns_per_call(
            payload.access, [(int(j),) for j in rng.integers(0, len(payload), size=calls)]
        ),
        "boss.forward_ns": _median_ns_per_call(boss.forward, forward_args),
        "boss.backward_ns": _median_ns_per_call(
            boss.backward, [(int(v),) for v in rng.integers(2, boss.node_count + 1, size=calls)]
        ),
        "colormatrix.get_colors_ns": _median_ns_per_call(
            lambda v: colormatrix.get_colors(colors, v),
            [(int(v),) for v in rng.choice(colorable, size=calls)],
        ),
    }

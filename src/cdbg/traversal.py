"""Consumers of the colored index: read reconstruction and contig assembly.

Both walk the graph read-only, one Python step per edge, in a single
thread. Reconstruction spells each color of a starting node by following
that color: at a branch it takes the one successor whose row holds the
color, and it gives the color up as ambiguous when no successor or more
than one holds it. Contig assembly keeps a set of active reads (color ->
starting node) and extends through a branch only when a single successor
carries at least an ``x`` fraction of the active colors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .boss import BossIndex
from .colormatrix import CompressedColors, get_colors
from .errors import BadStart, BadThreshold
from .sequence import CODE_SYMBOLS, DUMMY, ReadSet, reverse_complement


@dataclass
class StartReport:
    colors: int = 0
    recovered: int = 0
    ambiguous: int = 0


@dataclass
class ReconstructionReport:
    recovered: list[str] = field(default_factory=list)
    ambiguous_count: int = 0
    per_start: dict[int, StartReport] = field(default_factory=dict)
    verified_fraction: float | None = None

    @property
    def recovered_count(self) -> int:
        return len(self.recovered)


def _walk_color(boss: BossIndex, colors: CompressedColors, v: int, color: int) -> str | None:
    """Spell the color's string from starting node v; None when ambiguous."""
    syms = list(boss.node_label(v))
    cur = v
    steps = 0
    while not boss.is_ending(cur):
        steps += 1
        if steps > boss.edge_count + boss.k:
            return None  # color trail cycles; only possible for unsafe paths
        lo, hi = boss.node_edge_range(cur)
        if hi == lo:
            pos = lo
            target = boss.edge_target(pos)
            if target is None:
                return None  # closure edge; unreachable from a read walk
        else:
            target = None
            pos = None
            matches = 0
            for p in range(lo, hi + 1):
                t = boss.edge_target(p)
                if t is None:
                    continue
                if color in get_colors(colors, t):
                    matches += 1
                    target, pos = t, p
            if matches != 1:
                return None
        syms.append(CODE_SYMBOLS[boss.edge_symbol(pos)])
        cur = target
    return "".join(syms).strip(DUMMY)


def build_seqs(boss: BossIndex, colors: CompressedColors, v: int) -> list[str]:
    """Reconstruct one string per color of starting node v; ambiguous colors
    are skipped."""
    if not boss.is_starting(v):
        raise BadStart(f"node {v} is not a starting node")
    out = []
    for color in get_colors(colors, v):
        s = _walk_color(boss, colors, v, color)
        if s is not None:
            out.append(s)
    return out


def _rebuild_start(
    boss: BossIndex, colors: CompressedColors, v: int
) -> tuple[int, list[str], int]:
    recovered = []
    ambiguous = 0
    palette = get_colors(colors, v)
    for color in palette:
        s = _walk_color(boss, colors, v, color)
        if s is None:
            ambiguous += 1
        else:
            recovered.append(s)
    return len(palette), recovered, ambiguous


def reconstruct_all(
    boss: BossIndex,
    colors: CompressedColors,
    verify_against: ReadSet | None = None,
    threads: int = 1,
) -> ReconstructionReport:
    """Run build_seqs from every starting node and aggregate the results.
    ``threads`` is accepted for compatibility and ignored."""
    report = ReconstructionReport()
    for v in boss.starting_node_ids().tolist():
        n_colors, recovered, ambiguous = _rebuild_start(boss, colors, v)
        report.per_start[v] = StartReport(
            colors=n_colors, recovered=len(recovered), ambiguous=ambiguous
        )
        report.recovered.extend(recovered)
        report.ambiguous_count += ambiguous
    if verify_against is not None:
        report.verified_fraction = verified_fraction(report.recovered, verify_against)
    return report


def verified_fraction(recovered: list[str], original: ReadSet) -> float:
    """Fraction of distinct original reads recovered up to reverse complement."""
    if not original.reads:
        return 1.0
    got = set(recovered)
    hits = sum(1 for r in original.reads if r in got or reverse_complement(r) in got)
    return hits / len(original.reads)


def contig_assm(boss: BossIndex, colors: CompressedColors, v: int, x: float) -> str:
    """Assemble one contig starting from v with extension threshold x."""
    if not 0.0 < x <= 1.0:
        raise BadThreshold(f"threshold {x} outside (0, 1]")
    if not boss.is_starting(v):
        raise BadStart(f"node {v} is not a starting node")
    active: dict[int, int] = {c: v for c in get_colors(colors, v)}
    finished: set[tuple[int, int]] = set()
    syms = list(boss.node_label(v))
    cur = v
    steps = 0
    while steps <= boss.edge_count:
        steps += 1
        if boss.indegree(cur) > 1:
            for u in boss.backward(cur):
                if boss.is_starting(u):
                    for c in get_colors(colors, u):
                        if (c, u) not in finished:
                            active[c] = u
        succ = boss.successors(cur)
        if len(succ) == 1:
            pos, sym, target = succ[0]
            if boss.is_ending(target):
                break
            syms.append(CODE_SYMBOLS[sym])
            cur = target
            continue
        if not succ:
            break  # closure-only node; unreachable from a starting walk
        succ_colors = {t: set(get_colors(colors, t)) for _, _, t in succ}
        # stop when two successors share a color: no safe continuation
        seen: set[int] = set()
        shared = False
        for cset in succ_colors.values():
            if cset & seen:
                shared = True
            seen |= cset
        if shared:
            break
        q_keys = set(active)
        if not q_keys:
            break
        candidates = [
            (pos, sym, t)
            for pos, sym, t in succ
            if not boss.is_ending(t)
            and len(succ_colors[t] & q_keys) / len(q_keys) >= x
        ]
        for _, _, t in succ:
            if boss.is_ending(t):
                for c in succ_colors[t]:
                    if c in active:
                        finished.add((c, active.pop(c)))
        if len(candidates) != 1:
            break
        pos, sym, target = candidates[0]
        syms.append(CODE_SYMBOLS[sym])
        active = {c: s for c, s in active.items() if c in succ_colors[target]}
        cur = target
    return "".join(syms).lstrip(DUMMY)


def assemble_all(boss: BossIndex, colors: CompressedColors, x: float) -> list[str]:
    """Contigs from every starting node, deduplicated up to reverse
    complement, longest first."""
    seen: set[str] = set()
    contigs: list[str] = []
    for v in boss.starting_node_ids():
        s = contig_assm(boss, colors, int(v), x)
        if not s:
            continue
        canon = min(s, reverse_complement(s))
        if canon not in seen:
            seen.add(canon)
            contigs.append(s)
    contigs.sort(key=lambda s: (-len(s), s))
    return contigs

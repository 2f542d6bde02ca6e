"""cdbg benchmark: one workload per process, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload decode-k25-10x --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats whole cycles (build, set-up loads, reconstruct,
assemble) until ``--seconds`` have passed, at least once, and reports the
end-to-end metrics; times are medians over cycles, in reference seconds
(see ``pipeline.Reference``). ``--trace 1`` alternates plain cycles and
cycles with every layer's public functions wrapped, reports the per-layer
metrics and the tracing overhead (traced minus plain time per operation),
and writes the trace. The genome and read multiset of a workload are
fixed; ``--seed`` shuffles the read order in the FASTA file (which changes
the greedy colour assignment and so the index) and seeds the primitive
timings' arguments. Outputs are checked; a failed check makes the exit
code 1. The last line of standard output is one JSON object. Run records
and traces go to ``.perfbench_runs/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENOME_SEED = 0  # `cdbg synth`'s default seed
LOAD_REPS = 21
TRACE_ROUNDS = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_kbp_per_s": "kbp/s",
    "reconstruct_reads_per_s": "1/s",
    "assemble_s": "s",
    "compression_rate": "ratio",
    "recovered_fraction": "ratio",
    "ram_bytes_per_edge": "B/edge",
    "longest_contig_bp": "bp",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Put the checkout's own src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "cdbg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cdbg sources under {src}")
    sys.path.insert(0, str(src))
    import cdbg

    if Path(cdbg.__file__).resolve().parent != (src / "cdbg").resolve():
        raise SystemExit(f"perfbench: cdbg imported from {cdbg.__file__}, not {src}")


def environment() -> dict:
    import numpy

    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": src_hash.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD, when the root is itself a git work tree; None otherwise."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import numpy as np

    import pipeline as pl
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]

    genome, reads = make_inputs(w, GENOME_SEED)
    np.random.default_rng(args.seed).shuffle(reads)
    start_reads = None
    if w.assemble_from_end is not None:
        start_reads = [_forward_read_near(genome, reads, len(genome) - d) for d in w.assemble_from_end]

    runs_dir = ROOT / ".perfbench_runs"
    runs_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=runs_dir))
    try:
        files = pl.Files(
            reads=work / "reads.fa",
            index=work / "index.cdbg",
            recovered=work / "recovered.txt",
            contigs=work / "contigs.fa",
        )
        from cdbg.fastx import write_fasta

        write_fasta(files.reads, reads, prefix="r")
        run = _traced_run if args.trace else _timed_run
        metrics, record = run(pl, w, files, args, start_reads, genome)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(workload=w.name, seed=args.seed, trace=args.trace, environment=environment())
    out = runs_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    checks = record["checks"]
    for name, m in metrics.items():
        print(f"{w.name}  {name} = {m['value']:.6g} {m['unit']}")
    for key, value in record["digests"].items():
        print(f"{w.name}  {key} = {value}")
    for problem in checks["problems"]:
        print(f"{w.name}  CHECK FAILED: {problem}")
    correct = checks["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _forward_read_near(genome: str, reads: list[str], target: int) -> str:
    """The forward-strand read starting closest to (at or before) target."""
    best = None
    for r in reads:
        pos = genome.find(r)
        if 0 <= pos <= target and (best is None or pos > best[0]):
            best = (pos, r)
    if best is None:
        raise SystemExit("perfbench: no forward read before the assembly start offset")
    return best[1]


def _cycle(pl, w, files, start_reads, ref, tracer=None):
    """Build, set-up loads, reconstruct and assemble, once each, with the
    reference loop timed between operations."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    refs = [ref.seconds()]
    with span("op.build"):
        built = pl.build_op(files, w.k)
    refs.append(ref.seconds())
    loads = []
    for _ in range(LOAD_REPS):
        with span("op.load"):
            loads.append(pl.load_op(files))
    refs.append(ref.seconds())
    with span("op.reconstruct"):
        rec = pl.reconstruct_op(files, w.reconstruct_sample)
    refs.append(ref.seconds())
    with span("op.assemble"):
        asm = pl.assemble_op(files, start_reads)
    refs.append(ref.seconds())
    ops = ("op.build", "op.load", "op.reconstruct", "op.assemble")
    scale = {op: 2 * pl.REF_SECONDS / (refs[i] + refs[i + 1]) for i, op in enumerate(ops)}
    cycle = pl.Cycle(built, loads, rec, asm, scale)
    cycle.digests = pl.digests(files, cycle)
    return cycle


def _check(pl, cycles, files, k) -> dict:
    res = pl.check_cycle(cycles[-1], files, k)
    differing = sum(c.digests != cycles[0].digests for c in cycles[1:])
    res.add(len(cycles) - 1, differing, "repeated cycles whose outputs differ from the first")
    return {"attempted": res.attempted, "failed": res.failed, "problems": res.problems}


def _timed_run(pl, w, files, args, start_reads, genome):
    ref = pl.Reference()
    cycles = []
    t0 = time.perf_counter()
    while not cycles or time.perf_counter() - t0 < args.seconds:
        cycles.append(_cycle(pl, w, files, start_reads, ref))
    last = cycles[-1]
    ram = pl.ram_accounting(files)
    scaled = {
        op: statistics.median([c.scale[op] * s for c in cycles for s in _op_times(c)[op]])
        for op in ("op.build", "op.load", "op.reconstruct", "op.assemble")
    }
    values = {
        "setup_s": scaled["op.load"],
        "build_kbp_per_s": last.build.distinct_bp / 1000 / scaled["op.build"],
        "reconstruct_reads_per_s": len(last.reconstruct.recovered) / scaled["op.reconstruct"],
        "assemble_s": scaled["op.assemble"],
        "compression_rate": last.build.distinct_bp / last.build.index_bytes,
        "recovered_fraction": pl.recovered_fraction(last.reconstruct),
        "ram_bytes_per_edge": ram["total"] / ram["edges"],
        "longest_contig_bp": len(last.assemble.contigs[0]) if last.assemble.contigs else 0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record = {
        "cycles": len(cycles),
        "checks": _check(pl, cycles, files, w.k),
        "digests": last.digests,
        "metrics": metrics,
        "wall_seconds": [_op_times(c) for c in cycles],
        "scale": [c.scale for c in cycles],
    }
    return metrics, record


def _op_times(cycle) -> dict[str, list[float]]:
    return {
        "op.build": [cycle.build.seconds],
        "op.load": cycle.load_seconds,
        "op.reconstruct": [cycle.reconstruct.seconds],
        "op.assemble": [cycle.assemble.seconds],
    }


def _traced_run(pl, w, files, args, start_reads, genome):
    """Plain and traced cycles alternate TRACE_ROUNDS times; the overhead is
    the best traced minus the best plain wall time of each operation. Within
    one run the best time tracks an idle machine more closely than scaling
    by the reference loop does."""
    from tracer import Tracer

    ref = pl.Reference()
    plains, traced = [], []
    for _ in range(TRACE_ROUNDS):
        plains.append(_cycle(pl, w, files, start_reads, ref))
        tracer = Tracer()
        _install(tracer)
        try:
            traced.append((_cycle(pl, w, files, start_reads, ref, tracer), tracer))
        finally:
            tracer.uninstall()
    ops = _op_times(plains[0])
    plain_s = {op: min(sum(_op_times(c)[op]) for c in plains) for op in ops}
    traced_s = {op: min(sum(t.span_seconds(op)) for _, t in traced) for op in ops}
    cycle, tracer = traced[-1]

    values, attribution = _layer_values(pl, tracer, cycle, plain_s, traced_s, files, genome)
    values.update(pl.primitive_timings(files, args.seed))
    values.update(pl.size_accounting(files))
    ram = pl.ram_accounting(files)
    values["container.ram_graph_bytes"] = ram["graph"]
    values["container.ram_colors_bytes"] = ram["colors"]
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in LAYER_UNITS.items()}
    record = {
        "cycles": 2 * TRACE_ROUNDS,
        "checks": _check(pl, plains + [c for c, _ in traced], files, w.k),
        "digests": cycle.digests,
        "metrics": metrics,
        "attribution": attribution,
        "trace": tracer.to_json(),
    }
    return metrics, record


def _install(tracer) -> None:
    """Wrap each layer's public functions: stages as spans, hot calls aggregated."""
    from cdbg import bitvectors, boss, coloring, colormatrix, container, fastx, stats, traversal

    for module, attr in (
        (fastx, "parse_reads"), (fastx, "write_fasta"),
        (coloring, "mark_colorable"), (coloring, "color_all"), (coloring, "scan_all"),
        (colormatrix, "compress"), (container, "write_index"), (container, "read_index"),
        (stats, "compute_stats"), (traversal, "reconstruct_all"), (traversal, "assemble_all"),
    ):
        tracer.wrap_function(module, attr, f"{module.__name__[5:]}.{attr}", aggregate=False)
    tracer.wrap_method(boss.BossIndex, "build", "boss.build", aggregate=False)
    for module, attr in (
        (coloring, "scan_read"), (coloring, "assign_color"), (colormatrix, "get_colors"),
        (traversal, "build_seqs"), (traversal, "contig_assm"),
    ):
        tracer.wrap_function(module, attr, f"{module.__name__[5:]}.{attr}", aggregate=True)
    for attr in ("forward", "backward", "successors", "edge_target", "node_label", "label_to_node"):
        tracer.wrap_method(boss.BossIndex, attr, f"boss.{attr}", aggregate=True)
    for cls in (bitvectors.BitVector, bitvectors.SparseBitVector):
        for attr in ("rank1", "select1"):
            tracer.wrap_method(cls, attr, f"bitvectors.{attr}", aggregate=True)
    tracer.wrap_method(bitvectors.MonotoneSequence, "access", "bitvectors.ef_access", aggregate=True)


def _layer_values(pl, tracer, traced, plain_s, traced_s, files, genome):
    """Per-layer values from the last traced cycle; overheads from the best
    plain and traced times of each operation."""
    from cdbg.sequence import reverse_complement

    ops = {name: [s["id"] for s in tracer.spans if s["name"] == name] for name in plain_s}
    within = {name: set().union(*(tracer.subtree(i) for i in ids)) for name, ids in ops.items()}
    secs = tracer.span_seconds
    agg = tracer.aggregate_totals
    build, rec, asm = within["op.build"], within["op.reconstruct"], within["op.assemble"]

    selfs = tracer.self_times_ns()
    attribution = {}
    for name, ids in ops.items():
        wall = sum(secs(name))
        unattributed = sum(selfs[i] for i in ids) / 1e9
        attribution[name] = {
            "traced_s": wall,
            "stage_self_sum_s": wall - unattributed,
            "unattributed_s": unattributed,
            "overhead_s": traced_s[name] - plain_s[name],
            "best_plain_s": plain_s[name],
            "best_traced_s": traced_s[name],
        }

    recon = traced.reconstruct
    contigs = traced.assemble.contigs
    rc_genome = reverse_complement(genome)
    values = {
        "fastx.parse_s": sum(secs("fastx.parse_reads", build)),
        "sequence.strings": len(pl.fastx.parse_reads(files.reads).strings_with_rc()),
        "boss.build_s": sum(secs("boss.build", build)),
        "boss.nodes": traced.build.counts["nodes"],
        "boss.edges": traced.build.counts["edges"],
        "coloring.mark_s": sum(secs("coloring.mark_colorable", build)),
        "coloring.scan_s": sum(secs("coloring.scan_all", build)),
        "coloring.assign_s": agg("coloring.assign_color", build)[1],
        "coloring.p": traced.build.counts["p"],
        "coloring.colors": traced.build.counts["colors"],
        "coloring.calls.scan_read": agg("coloring.scan_read")[0],
        "colormatrix.compress_s": sum(secs("colormatrix.compress", build)),
        "colormatrix.calls.get_colors": agg("colormatrix.get_colors")[0],
        "container.write_s": sum(secs("container.write_index", build)),
        "container.load_s": statistics.median(secs("container.read_index", within["op.load"])),
        "traversal.reconstruct_s": sum(secs("traversal.reconstruct_all", rec))
        + agg("traversal.build_seqs", rec)[2],
        "traversal.walks": recon.walks,
        "traversal.ambiguous_walks": recon.ambiguous,
        "traversal.recovered_per_walk": len(recon.recovered) / recon.walks if recon.walks else 0.0,
        "traversal.assemble_s": sum(secs("traversal.assemble_all", asm))
        + agg("traversal.contig_assm", asm)[2],
        "traversal.calls.contig_assm": agg("traversal.contig_assm")[0],
        "traversal.contigs": len(contigs),
        "traversal.contig_bp_per_genome_bp": sum(map(len, contigs)) / len(genome),
        "traversal.chimeric_share": (
            sum(c not in genome and c not in rc_genome for c in contigs) / len(contigs)
            if contigs else 0.0
        ),
        "trace.overhead_s": sum(a["overhead_s"] for a in attribution.values()),
        "trace.build_overhead_s": attribution["op.build"]["overhead_s"],
        "trace.reconstruct_overhead_s": attribution["op.reconstruct"]["overhead_s"],
        "trace.assemble_overhead_s": attribution["op.assemble"]["overhead_s"],
        "trace.unattributed_s": sum(a["unattributed_s"] for a in attribution.values()),
    }
    for attr in ("forward", "backward", "successors", "edge_target", "node_label", "label_to_node"):
        values[f"boss.calls.{attr}"] = agg(f"boss.{attr}")[0]
    for attr in ("rank1", "select1", "ef_access"):
        values[f"bitvectors.calls.{attr}"] = agg(f"bitvectors.{attr}")[0]
    return values, attribution


# Per-layer metrics, by module, with the end-to-end metric each should move.
LAYER_UNITS = {
    # fastx, sequence: build_kbp_per_s on build-k31-30x
    "fastx.parse_s": "s",
    "sequence.strings": "count",
    # boss: build_kbp_per_s (sort and scan); reconstruct_reads_per_s on
    # decode-k25-10x; assemble_s on repeats-k25
    "boss.build_s": "s",
    "boss.nodes": "count",
    "boss.edges": "count",
    "boss.forward_ns": "ns",
    "boss.backward_ns": "ns",
    "boss.calls.forward": "count",
    "boss.calls.backward": "count",
    "boss.calls.successors": "count",
    "boss.calls.edge_target": "count",
    "boss.calls.node_label": "count",
    "boss.calls.label_to_node": "count",
    # bitvectors: reconstruct_reads_per_s and build_kbp_per_s
    "bitvectors.rank1_ns": "ns",
    "bitvectors.select1_ns": "ns",
    "bitvectors.ef_access_ns": "ns",
    "bitvectors.calls.rank1": "count",
    "bitvectors.calls.select1": "count",
    "bitvectors.calls.ef_access": "count",
    # coloring: build_kbp_per_s on build-k31-30x, hardly at all on repeats-k25
    "coloring.mark_s": "s",
    "coloring.scan_s": "s",
    "coloring.assign_s": "s",
    "coloring.p": "count",
    "coloring.colors": "count",
    "coloring.calls.scan_read": "count",
    # colormatrix: reconstruct_reads_per_s on both read workloads, assemble_s,
    # compression_rate
    "colormatrix.compress_s": "s",
    "colormatrix.get_colors_ns": "ns",
    "colormatrix.calls.get_colors": "count",
    "colormatrix.row_len_mean": "count",
    "colormatrix.N_bytes": "B",
    "colormatrix.F_bytes": "B",
    "colormatrix.payload_bytes": "B",
    # container: setup_s, compression_rate and ram_bytes_per_edge everywhere
    "container.write_s": "s",
    "container.load_s": "s",
    "container.META_bytes": "B",
    "container.BOSS_bytes": "B",
    "container.COLR_bytes": "B",
    "container.bits_per_edge": "bit/edge",
    "container.E_bytes": "B",
    "container.B_bytes": "B",
    "container.ram_graph_bytes": "B",
    "container.ram_colors_bytes": "B",
    # traversal: reconstruct_reads_per_s and assemble_s; useful work is
    # recovered_per_walk
    "traversal.reconstruct_s": "s",
    "traversal.walks": "count",
    "traversal.ambiguous_walks": "count",
    "traversal.recovered_per_walk": "ratio",
    "traversal.assemble_s": "s",
    "traversal.calls.contig_assm": "count",
    "traversal.contigs": "count",
    "traversal.contig_bp_per_genome_bp": "ratio",
    "traversal.chimeric_share": "ratio",
    # tracing itself: traced minus plain time; unattributed is the time of the
    # operation spans not covered by any stage span or aggregated call
    "trace.overhead_s": "s",
    "trace.build_overhead_s": "s",
    "trace.reconstruct_overhead_s": "s",
    "trace.assemble_overhead_s": "s",
    "trace.unattributed_s": "s",
}


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: build, reconstruct, assemble, stats, synth."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .boss import MAX_K, BossIndex
from .coloring import color_all
from .colormatrix import compress
from .container import IndexMeta, deserialize_index, read_index, section_sizes, write_index
from .errors import BadThreshold, CdbgError, IntegrityError
from .fastx import parse_reads, write_fasta
from .stages import stage
from .stats import compute_stats
from .synthetic import SyntheticConfig, generate_reads
from .traversal import assemble_all, reconstruct_all, verified_fraction

logger = logging.getLogger("cdbg")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTEGRITY = 3


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def make_parser() -> Parser:
    p = Parser(prog="cdbg", description="Colored de Bruijn graph read index")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="index a read file")
    b.add_argument("--input", required=True, help="FASTA/FASTQ read file")
    b.add_argument("--k", type=int, default=25, help="de Bruijn order (default 25)")
    b.add_argument("--output", required=True, help="index container path")

    r = sub.add_parser("reconstruct", help="rebuild reads from an index")
    r.add_argument("--index", required=True)
    r.add_argument("--output", required=True, help="one sequence per line")
    r.add_argument("--verify", help="original read file for membership checking")

    a = sub.add_parser("assemble", help="assemble contigs from an index")
    a.add_argument("--index", required=True)
    a.add_argument("--min-frac", type=float, default=0.5, dest="min_frac")
    a.add_argument("--output", required=True, help="FASTA of contigs")

    s = sub.add_parser("stats", help="print index statistics")
    s.add_argument("--index", required=True)
    s.add_argument("--json", action="store_true", help="print one JSON object instead")

    g = sub.add_parser("synth", help="generate a synthetic read set")
    g.add_argument("--genome-len", type=int, default=100_000)
    g.add_argument("--read-len", type=int, default=100)
    g.add_argument("--coverage", type=int, default=20)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument(
        "--error-rate", type=float, default=0.0, dest="error_rate",
        help="chance that a read base is substituted by another, seeded (default 0)",
    )
    g.add_argument("--output", required=True, help="FASTA of sampled reads")
    g.add_argument("--genome-out", help="optionally also write the genome FASTA")
    return p


def cmd_build(args) -> int:
    if not 3 <= args.k <= MAX_K:
        raise UsageError(f"--k {args.k} outside [3, {MAX_K}]")
    with stage("parse"):
        reads = parse_reads(args.input, k=args.k)
    logger.info(
        "parsed %d reads (%d rejected, %d shorter than k, %d duplicates)",
        len(reads), reads.n_rejected, reads.n_too_short, reads.n_duplicates,
    )
    boss = BossIndex.build(reads, args.k)  # logs the boss_sort and boss_derive stages
    colorable = boss.colorable  # derived with the graph, in boss_derive
    table = color_all(boss, colorable, reads)  # logs the scan and assign stages
    with stage("compress"):
        colors = compress(table, colorable)
    logger.info(
        "strings=%d nodes=%d edges=%d p=%d colors=%d implicit_nodes=%d",
        len(table.read_colors), boss.node_count, boss.edge_count, colorable.count,
        table.num_colors, len(colors.implicit),
    )
    meta = IndexMeta(plain_bytes=reads.plain_bytes)
    with stage("write"):
        index_bytes = write_index(args.output, boss, colors, meta)
    for line in compute_stats(boss, colors, meta, index_bytes).as_kv_lines():
        print(line)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    with stage("load"):
        boss, colors, meta = read_index(args.index)
    with stage("reconstruct"):
        report = reconstruct_all(boss, colors)
    logger.info(
        "walks=%d recovered=%d ambiguous=%d",
        sum(s.colors for s in report.per_start.values()),
        report.recovered_count,
        report.ambiguous_count,
    )
    if args.verify:
        with stage("verify"):
            report.verified_fraction = verified_fraction(report.recovered, parse_reads(args.verify))
    with stage("write"):
        with open(args.output, "w") as fh:
            for s in report.recovered:
                fh.write(s + "\n")
    print(f"recovered_sequences={report.recovered_count}")
    print(f"ambiguous_count={report.ambiguous_count}")
    if report.verified_fraction is not None:
        print(f"recovered_percentage={100.0 * report.verified_fraction:.2f}")
    return EXIT_OK


def cmd_assemble(args) -> int:
    if not 0.0 < args.min_frac <= 1.0:
        raise BadThreshold(f"--min-frac {args.min_frac} outside (0, 1]")
    with stage("load"):
        boss, colors, meta = read_index(args.index)
    with stage("assemble"):
        contigs = assemble_all(boss, colors, args.min_frac)
    logger.info("starts=%d", len(boss.starting_node_ids()))  # one walk each
    logger.info("contigs=%d", len(contigs))
    with stage("write"):
        write_fasta(args.output, contigs, prefix="contig")
    print(f"contigs={len(contigs)}")
    if contigs:
        print(f"longest={len(contigs[0])}")
    return EXIT_OK


def cmd_stats(args) -> int:
    data = Path(args.index).read_bytes()
    boss, colors, meta = deserialize_index(data)
    record = compute_stats(
        boss, colors, meta, len(data),
        section_bytes=section_sizes(data), graph_bytes=boss.structure_bytes(),
        color_bytes=colors.structure_bytes(),
    )
    if args.json:
        print(json.dumps(record.as_dict()))
        return EXIT_OK
    for line in record.as_kv_lines():
        print(line)
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        cfg = SyntheticConfig(
            genome_len=args.genome_len,
            read_len=args.read_len,
            coverage=args.coverage,
            seed=args.seed,
            error_rate=args.error_rate,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    genome, reads = generate_reads(cfg)
    write_fasta(args.output, reads, prefix="r")
    if args.genome_out:
        write_fasta(args.genome_out, [genome], prefix="genome")
    print(f"reads={len(reads)}")
    return EXIT_OK


_COMMANDS = {
    "build": cmd_build,
    "reconstruct": cmd_reconstruct,
    "assemble": cmd_assemble,
    "stats": cmd_stats,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, BadThreshold) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (CdbgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

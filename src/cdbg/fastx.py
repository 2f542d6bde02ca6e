"""Streaming FASTA/FASTQ input and FASTA output.

The format is sniffed from the first non-blank byte ('>' FASTA, '@'
FASTQ). The file is read as bytes, so a byte that is not UTF-8 cannot
stop the parse. Qualities and record identifiers are discarded; each
sequence goes to ReadSet as bytes, which rejects one that is not ASCII
acgt as a counted ``non_acgt`` read.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .errors import ParseError
from .sequence import ReadSet


def sniff_format(path: str | Path) -> str:
    with open(path, "rb") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith(b">"):
                return "fasta"
            if line.startswith(b"@"):
                return "fastq"
            raise ParseError("file starts with neither '>' nor '@'", line=1)
    raise ParseError("empty input file")


def iter_fasta(path: str | Path) -> Iterator[bytes]:
    """Every record's sequence, an empty one included, so that ReadSet
    counts it as rejected as it does an empty FASTQ record."""
    seq_parts: list[bytes] | None = None  # None before the first header
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(b">"):
                if seq_parts is not None:
                    yield b"".join(seq_parts)
                seq_parts = []
            elif seq_parts is None:
                raise ParseError("sequence data before first header", line=lineno)
            else:
                seq_parts.append(line)
    if seq_parts is not None:
        yield b"".join(seq_parts)


def iter_fastq(path: str | Path) -> Iterator[bytes]:
    with open(path, "rb") as fh:
        lineno = 0
        while True:
            header = fh.readline()
            if not header:
                return
            lineno += 1
            if not header.strip():
                continue
            if not header.startswith(b"@"):
                raise ParseError("record does not start with '@'", line=lineno)
            seq = fh.readline()
            plus = fh.readline()
            qual = fh.readline()
            if not qual:
                raise ParseError("truncated record", line=lineno)
            seq = seq.strip()
            if not plus.startswith(b"+"):
                raise ParseError("missing '+' separator", line=lineno + 2)
            if len(qual.strip()) != len(seq):
                raise ParseError("quality length differs from sequence", line=lineno + 3)
            lineno += 3
            yield seq


def parse_reads(path: str | Path, k: int | None = None) -> ReadSet:
    """Stream records from a FASTA/FASTQ file, its format sniffed, into a
    validated ReadSet."""
    records = iter_fasta(path) if sniff_format(path) == "fasta" else iter_fastq(path)
    return ReadSet.from_reads(records, k=k)


def write_fasta(path: str | Path, sequences: list[str], prefix: str = "seq") -> None:
    with open(path, "w") as fh:
        for i, s in enumerate(sequences, start=1):
            fh.write(f">{prefix}_{i}\n{s}\n")

"""Streaming FASTA/FASTQ input and FASTA output.

One pass reads a file: its first non-blank line sets the format ('>'
FASTA, '@' FASTQ). The file is read as bytes, so a byte that is not UTF-8
cannot stop the parse. Qualities and record identifiers are discarded;
each sequence goes to ReadSet as bytes, which rejects one that is not
ASCII acgt as a counted ``non_acgt`` read.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .errors import ParseError
from .sequence import ReadSet


def parse_reads(path: str | Path, k: int | None = None) -> ReadSet:
    """Stream records from a FASTA/FASTQ file into a validated ReadSet."""
    with open(path, "rb") as fh:
        return ReadSet.from_reads(_records(enumerate(fh, start=1)), k=k)


def _records(lines: Iterator[tuple[int, bytes]]) -> Iterator[bytes]:
    """Every record's sequence from (line number, line) pairs, an empty
    FASTA record included, so that ReadSet counts it as rejected as it
    does an empty FASTQ record."""
    for lineno, header in lines:
        if line := header.strip():
            break
    else:
        raise ParseError("empty input file")
    if line.startswith(b">"):
        parts: list[bytes] = []
        for _, raw in lines:
            line = raw.strip()
            if line.startswith(b">"):
                yield b"".join(parts)
                parts = []
            elif line:
                parts.append(line)
        yield b"".join(parts)
        return
    if not line.startswith(b"@"):
        raise ParseError("file starts with neither '>' nor '@'", line=lineno)
    while True:
        if not header.startswith(b"@"):
            raise ParseError("record does not start with '@'", line=lineno)
        seq, plus, qual = (next(lines, (0, b""))[1] for _ in range(3))
        if not qual:
            raise ParseError("truncated record", line=lineno)
        seq = seq.strip()
        if not plus.startswith(b"+"):
            raise ParseError("missing '+' separator", line=lineno + 2)
        if len(qual.strip()) != len(seq):
            raise ParseError("quality length differs from sequence", line=lineno + 3)
        yield seq
        for lineno, header in lines:
            if header.strip():
                break
        else:
            return


def write_fasta(path: str | Path, sequences: list[str], prefix: str = "seq") -> None:
    with open(path, "w") as fh:
        for i, s in enumerate(sequences, start=1):
            fh.write(f">{prefix}_{i}\n{s}\n")

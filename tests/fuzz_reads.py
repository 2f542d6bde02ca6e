"""Seeded fuzz of the read files that ``cdbg build`` parses, in-process.

Writes a small read set (a 200 bp synthetic genome at 4x, 30 bp reads) as
FASTA, with each sequence wrapped over lines, and as FASTQ. Each case
takes one of them, alternately, and edits it 1-3 times: a bit of one
byte flipped, a span of up to 40 bytes cut, or up to 8 bytes inserted,
drawn from the bytes that make up a record (``>@+``, line ends, bases)
or from any byte. The result is built with ``cli.main(["build", ...])``
at k=9, in this process. Every case must exit 0 (built) or 2 (a read
file refused with an error message) and raise nothing.

The process first caps its own address space, as
``tests/fuzz_container.py`` does. Prints one JSON object of outcome
counts and exits 0, or prints the case and the exit code or traceback of
the first other outcome and exits 1.

Usage: python tests/fuzz_reads.py SEED CASES
"""

import contextlib
import io
import json
import logging
import resource
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

ADDRESS_SPACE_CAP = 2 << 30  # bytes
RECORD_BYTES = np.frombuffer(b">@+\n\r acgtnACGT", dtype=np.uint8)


def read_files() -> tuple[bytes, bytes]:
    """The read set as FASTA, 20 bases a line, and as FASTQ."""
    from cdbg.synthetic import SyntheticConfig, generate_reads

    _, reads = generate_reads(SyntheticConfig(genome_len=200, read_len=30, coverage=4, seed=0))
    wrapped = ["\n".join(s[j : j + 20] for j in range(0, len(s), 20)) for s in reads]
    fasta = "".join(f">r{i}\n{s}\n" for i, s in enumerate(wrapped))
    fastq = "".join(f"@r{i}\n{s}\n+\n{'I' * len(s)}\n" for i, s in enumerate(reads))
    return fasta.encode(), fastq.encode()


def edited(data: bytes, rng: np.random.Generator) -> bytes:
    """data with 1-3 edits: a bit flipped, a span cut or bytes inserted."""
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        at, kind = int(rng.integers(len(out) + 1)), int(rng.integers(3))
        if kind == 0 and at < len(out):
            out[at] ^= 1 << int(rng.integers(8))
        elif kind == 1:
            del out[at : at + int(rng.integers(1, 41))]
        else:
            n = int(rng.integers(1, 9))
            pool = RECORD_BYTES if rng.integers(2) else np.arange(256, dtype=np.uint8)
            out[at:at] = rng.choice(pool, size=n).tobytes()
    return bytes(out)


def run_cases(seed: int, cases: int, workdir: Path) -> dict[str, int]:
    """Builds every case in workdir and counts the outcomes. Raises
    ``RuntimeError`` naming the case at the first exit that is neither 0
    nor 2, or from the first exception of a build."""
    from cdbg.cli import main

    files = read_files()
    rng = np.random.default_rng(seed)
    counts = {"built": 0, "refused": 0}
    reads, index = workdir / "reads", workdir / "index.cdbg"
    logging.disable(logging.CRITICAL)  # the build's stage lines
    try:
        for case in range(cases):
            reads.write_bytes(edited(files[case % 2], rng))
            quiet = io.StringIO()  # the build's stats lines and error message
            try:
                with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                    code = main(["build", "--input", str(reads), "--k", "9", "--output", str(index)])
            except Exception as exc:
                raise RuntimeError(f"case {case} of seed {seed} raised") from exc
            if code not in (0, 2):
                raise RuntimeError(f"case {case} of seed {seed}: exit {code}")
            counts["built" if code == 0 else "refused"] += 1
    finally:
        logging.disable(logging.NOTSET)
    return counts


def main(seed: int, cases: int) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    with tempfile.TemporaryDirectory() as workdir:
        try:
            counts = run_cases(seed, cases, Path(workdir))
        except Exception:
            traceback.print_exc()
            return 1
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))

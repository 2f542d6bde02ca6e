"""DNA strings, the dummy symbol, and read-set ingestion.

Sequences are plain lowercase ``str`` over ``acgt``; the dummy padding
symbol ``$`` only ever appears in graph node labels, never in reads.
Symbols are ranked ``$ < a < c < g < t`` and map to integer codes 1..5
(``$`` -> 1), which is also their ASCII order, so ordinary string
comparison of labels agrees with the code order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidAlphabet

logger = logging.getLogger(__name__)

DUMMY = "$"
ALPHABET = "acgt"

SYMBOL_CODES = {DUMMY: 1, "a": 2, "c": 3, "g": 4, "t": 5}
CODE_SYMBOLS = "\x00$acgt"  # code -> character, index 0 unused

_RC_TABLE = str.maketrans("acgt", "tgca")
_ENCODE_TABLE = bytes.maketrans(b"$acgt", bytes([1, 2, 3, 4, 5]))
_ACGT = ALPHABET.encode("ascii")


def reverse_complement(s: str) -> str:
    """Reverse ``s`` and exchange a<->t, c<->g. Rejects dummy symbols."""
    if DUMMY in s:
        raise InvalidAlphabet("reverse complement is undefined for dummy symbols")
    return s.translate(_RC_TABLE)[::-1]


def validate_read(raw: str | bytes, k: int | None = None) -> tuple[str | None, str | None]:
    """Normalize a raw read to lowercase acgt.

    The read is checked as bytes: its ends are stripped of ASCII
    whitespace, it is lowercased, and it is refused when deleting every
    ``acgt`` byte leaves any. A ``str`` is ASCII-encoded first, so one
    that is not ASCII is refused as ``"non_acgt"``.

    Returns ``(sequence, None)`` on acceptance or ``(None, reason)`` on
    rejection; rejection is a counted event, never fatal. ``reason`` is one
    of ``"empty"``, ``"non_acgt"``, ``"too_short"`` (the latter only when k
    is known).
    """
    if isinstance(raw, str):
        try:
            raw = raw.encode("ascii")
        except UnicodeEncodeError:
            return None, "non_acgt"
    seq = raw.strip().lower()
    if not seq:
        return None, "empty"
    if seq.translate(None, _ACGT):
        return None, "non_acgt"
    if k is not None and len(seq) < k:
        return None, "too_short"
    return seq.decode("ascii"), None


def encode(s: str) -> np.ndarray:
    """Map a string over ``$acgt`` to its uint8 code array (1..5)."""
    return np.frombuffer(s.encode("ascii").translate(_ENCODE_TABLE), dtype=np.uint8)


@dataclass
class ReadSet:
    """Deduplicated reads plus the derived double-stranded view.

    ``strings_with_rc`` interleaves every read with its reverse complement;
    a read equal to its own reverse complement is inserted once, so the
    derived view has size 2n minus the number of such palindromes.
    Exact duplicate reads are dropped at ingestion; substring containment
    between distinct reads is documented, not enforced.
    """

    reads: tuple[str, ...]
    n_rejected: int = 0
    n_duplicates: int = 0
    n_too_short: int = 0

    @classmethod
    def from_reads(cls, raw_reads: Iterable[str | bytes], k: int | None = None) -> "ReadSet":
        kept: dict[str, None] = {}
        rejected = 0
        duplicates = 0
        too_short = 0
        for raw in raw_reads:
            seq, reason = validate_read(raw, k=k)
            if seq is None:
                if reason == "too_short":
                    too_short += 1
                else:
                    rejected += 1
                continue
            if seq in kept:
                duplicates += 1
            else:
                kept[seq] = None
        if too_short:
            logger.warning("skipped %d reads shorter than k", too_short)
        return cls(
            reads=tuple(kept),
            n_rejected=rejected,
            n_duplicates=duplicates,
            n_too_short=too_short,
        )

    def __len__(self) -> int:
        return len(self.reads)

    @property
    def plain_bytes(self) -> int:
        """Size of the plain 1-byte-per-symbol representation of the reads."""
        return sum(len(r) for r in self.reads)

    def strings_with_rc(self) -> list[str]:
        out: list[str] = []
        for r in self.reads:
            out.append(r)
            rc = reverse_complement(r)
            if rc != r:
                out.append(rc)
        return out

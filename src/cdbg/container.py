"""On-disk index container: magic, version, k, length-prefixed sections, CRC.

All multi-byte integers are little-endian fixed-width. Sections are
length-prefixed so readers can skip tags they do not know. The trailing
CRC32 covers every preceding byte; any mismatch (or bad magic/version)
raises IntegrityError.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from ._binio import Reader, Writer
from .boss import BossIndex
from .colormatrix import CompressedColors
from .errors import IntegrityError

MAGIC = b"CDBG"
FORMAT_VERSION = 2


@dataclass
class IndexMeta:
    """Build-time facts that are not derivable from the structures."""

    plain_bytes: int = 0
    n_reads: int = 0
    n_rejected: int = 0
    n_too_short: int = 0
    n_strings: int = 0

    def serialize(self, w: Writer) -> None:
        w.u8(1)
        w.u64(self.plain_bytes)
        w.u64(self.n_reads)
        w.u64(self.n_rejected)
        w.u64(self.n_too_short)
        w.u64(self.n_strings)

    @classmethod
    def deserialize(cls, r: Reader) -> "IndexMeta":
        if r.u8() != 1:
            raise IntegrityError("unsupported meta section version")
        return cls(
            plain_bytes=r.u64(),
            n_reads=r.u64(),
            n_rejected=r.u64(),
            n_too_short=r.u64(),
            n_strings=r.u64(),
        )


def serialize_index(boss: BossIndex, colors: CompressedColors, meta: IndexMeta) -> bytes:
    sections: list[tuple[bytes, bytes]] = []
    for tag, obj in ((b"META", meta), (b"BOSS", boss), (b"COLR", colors)):
        w = Writer()
        obj.serialize(w)
        sections.append((tag, w.getvalue()))
    head = Writer()
    head.raw(MAGIC)
    head.u8(FORMAT_VERSION)
    head.u16(boss.k)
    head.u8(len(sections))
    for tag, payload in sections:
        head.raw(tag)
        head.u64(len(payload))
        head.raw(payload)
    body = head.getvalue()
    return body + struct.pack("<I", zlib.crc32(body))


def write_index(path: str | Path, boss: BossIndex, colors: CompressedColors, meta: IndexMeta) -> int:
    data = serialize_index(boss, colors, meta)
    Path(path).write_bytes(data)
    return len(data)


def deserialize_index(data: bytes) -> tuple[BossIndex, CompressedColors, IndexMeta]:
    if len(data) < len(MAGIC) + 8:
        raise IntegrityError("container too small")
    body, crc_bytes = data[:-4], data[-4:]
    if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(body):
        raise IntegrityError("checksum mismatch")
    r = Reader(body)
    if body[:4] != MAGIC:
        raise IntegrityError("bad magic")
    r = Reader(body, pos=4)
    if r.u8() != FORMAT_VERSION:
        raise IntegrityError("unsupported container version")
    k = r.u16()
    n_sections = r.u8()
    boss = colors = meta = None
    for _ in range(n_sections):
        tag = body[r._pos : r._pos + 4]
        r._pos += 4
        length = r.u64()
        payload = Reader(body[r._pos : r._pos + length])
        r._pos += length
        if tag == b"META":
            meta = IndexMeta.deserialize(payload)
        elif tag == b"BOSS":
            boss = BossIndex.deserialize(payload)
        elif tag == b"COLR":
            colors = CompressedColors.deserialize(payload)
        # unknown tags are skipped by construction
    if boss is None or colors is None or meta is None:
        raise IntegrityError("container misses a required section")
    if boss.k != k:
        raise IntegrityError("header k disagrees with graph section")
    if colors.N.n != boss.node_count:
        raise IntegrityError(f"colorable bitmap covers {colors.N.n} of {boss.node_count} nodes")
    return boss, colors, meta


def section_sizes(data: bytes) -> dict[str, int]:
    """Payload bytes of each section, by tag, as the container header
    declares them. Raises ``IntegrityError`` on a bad magic or a declared
    length that runs past the end of the data before the CRC."""
    body = data[:-4]
    if len(data) < len(MAGIC) + 8 or body[:4] != MAGIC:
        raise IntegrityError("not a cdbg container")
    r = Reader(body, pos=len(MAGIC) + 3)
    sizes = {}
    for _ in range(r.u8()):
        tag = r._take(4).decode("ascii", errors="replace")
        length = r.u64()
        if length > len(body) - r._pos:
            raise IntegrityError(f"section {tag} declares {length} bytes past the end of the data")
        sizes[tag] = length
        r._pos += length
    return sizes


def read_index(path: str | Path) -> tuple[BossIndex, CompressedColors, IndexMeta]:
    return deserialize_index(Path(path).read_bytes())

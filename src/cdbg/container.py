"""On-disk index container: magic, version, k, length-prefixed sections, CRC.

All multi-byte integers are little-endian fixed-width. Sections are
length-prefixed so readers can skip tags they do not know. The trailing
CRC32 covers every preceding byte; any mismatch (or bad magic/version)
raises IntegrityError.

The header's version is the only one in the file, and its k the only k.
Inside the sections a field is stored only when the loader cannot compute
it from the header or from the fields it has already read: no section,
bitvector or Elias-Fano part carries a version, no array or bitvector
carries a length the loader knows, and the graph section holds no count
that the loader derives from the edges (the node count, ``K``). The
color section holds no row for an implicit successor that shares no color
with a sibling, and one bit per implicit successor tells which rows are
there; the loader derives the implicit successors from the graph.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import InitVar, dataclass, fields
from pathlib import Path

from ._binio import Reader, Writer
from .boss import BossIndex
from .colormatrix import CompressedColors
from .errors import IntegrityError

MAGIC = b"CDBG"
FORMAT_VERSION = 7


@dataclass
class IndexMeta:
    """Build-time facts not derivable from the structures, one u64 each:
    the plain read bytes alone. The read and string counts are accepted
    and dropped, because the benchmark's pipeline still passes them."""

    plain_bytes: int = 0
    n_reads: InitVar[int] = 0
    n_rejected: InitVar[int] = 0
    n_too_short: InitVar[int] = 0
    n_strings: InitVar[int] = 0

    def serialize(self, w: Writer) -> None:
        for f in fields(self):
            w.u64(getattr(self, f.name))

    @classmethod
    def deserialize(cls, r: Reader) -> "IndexMeta":
        return cls(**{f.name: r.u64() for f in fields(cls)})


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


def _walk(data: bytes) -> tuple[int, int, list[tuple[str, bytes]]]:
    """The header's format version and k, and each section's tag and
    payload in file order. Raises ``IntegrityError`` on a container too
    small or with a bad magic, and on a declared section length that runs
    past the end of the data before the CRC."""
    if len(data) < len(MAGIC) + 8 or data[:4] != MAGIC:
        raise IntegrityError("not a cdbg container")
    r = Reader(data[:-4], pos=len(MAGIC))
    version, k = r.u8(), r.u16()
    sections = []
    for _ in range(r.u8()):
        tag, length = r._take(4).decode("ascii", errors="replace"), r.u64()
        if length > r.left():
            raise IntegrityError(f"section {tag} declares {length} bytes past the end of the data")
        sections.append((tag, r._take(length)))
    return version, k, sections


_SECTIONS = ("META", "BOSS", "COLR")


def _read(found: dict[str, bytes], tag: str, read):
    """The structures of section tag, read by read, which must consume it."""
    r = Reader(found[tag])
    obj = read(r)
    if not r.done():
        raise IntegrityError(f"section {tag} holds bytes past its structures")
    return obj


def deserialize_index(data: bytes) -> tuple[BossIndex, CompressedColors, IndexMeta]:
    """The index in data. The graph section is read before the color
    section, whose rows are checked against the graph's colorable nodes
    and implicit successors."""
    if int.from_bytes(data[-4:], "little") != zlib.crc32(memoryview(data)[:-4]):
        raise IntegrityError("checksum mismatch")
    version, k, sections = _walk(data)
    if version != FORMAT_VERSION:
        raise IntegrityError("unsupported container version")
    found = {tag: payload for tag, payload in sections if tag in _SECTIONS}  # unknown tags are skipped
    if len(found) < len(_SECTIONS):
        raise IntegrityError("container misses a required section")
    meta = _read(found, "META", IndexMeta.deserialize)
    boss = _read(found, "BOSS", lambda r: BossIndex.deserialize(r, k))
    colors = _read(
        found, "COLR",
        lambda r: CompressedColors.deserialize(r, boss.explicit_colorable, boss.implicit_candidates),
    )
    return boss, colors, meta


def section_sizes(data: bytes) -> dict[str, int]:
    """Payload bytes of each section, by tag, as the container header
    declares them. Raises ``IntegrityError`` as ``deserialize_index`` does
    on a bad magic or a declared length past the end of the data."""
    return {tag: len(payload) for tag, payload in _walk(data)[2]}


def read_index(path: str | Path) -> tuple[BossIndex, CompressedColors, IndexMeta]:
    return deserialize_index(Path(path).read_bytes())

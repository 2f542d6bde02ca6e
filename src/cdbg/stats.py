"""Index statistics: node/edge/color counts and the compression rate."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .boss import BossIndex
from .colormatrix import CompressedColors
from .container import IndexMeta


@dataclass
class StatsRecord:
    total_nodes: int
    solid_nodes: int
    edge_count: int
    colored_nodes: int  # the nodes with a stored colour row
    implicit_nodes: int  # the colourable nodes whose row is not stored
    num_colors: int
    index_bytes: int
    plain_bytes: int
    section_bytes: dict[str, int] | None = None  # payload bytes by section tag
    graph_bytes: dict[str, int] | None = None  # graph section bytes by structure
    color_bytes: dict[str, int] | None = None  # color section bytes by structure

    @property
    def compression_rate(self) -> float:
        return self.plain_bytes / self.index_bytes if self.index_bytes else 0.0

    @property
    def colored_fraction(self) -> float:
        return self.colored_nodes / self.total_nodes if self.total_nodes else 0.0

    @property
    def bits_per_edge(self) -> float:
        return 8 * self.index_bytes / self.edge_count if self.edge_count else 0.0

    def as_dict(self) -> dict:
        """The fields plus the derived ratios, for ``cdbg stats --json``."""
        return asdict(self) | {
            "compression_rate": self.compression_rate,
            "colored_fraction": self.colored_fraction,
            "bits_per_edge": self.bits_per_edge,
        }

    def as_kv_lines(self) -> list[str]:
        """One ``name=value`` line per field and ratio, for ``cdbg build``
        and ``cdbg stats``."""
        sections = [f"bytes_{tag}={n}" for tag, n in (self.section_bytes or {}).items()]
        sections += [f"bytes_BOSS_{name}={n}" for name, n in (self.graph_bytes or {}).items()]
        sections += [f"bytes_COLR_{name}={n}" for name, n in (self.color_bytes or {}).items()]
        return [
            f"total_nodes={self.total_nodes}",
            f"solid_nodes={self.solid_nodes}",
            f"edge_count={self.edge_count}",
            f"colored_nodes={self.colored_nodes}",
            f"implicit_nodes={self.implicit_nodes}",
            f"num_colors={self.num_colors}",
            f"index_bytes={self.index_bytes}",
            f"plain_bytes={self.plain_bytes}",
            f"compression_rate={self.compression_rate:.4f}",
            f"bits_per_edge={self.bits_per_edge:.4f}",
            f"colored_fraction={self.colored_fraction:.6f}",
        ] + sections


def compute_stats(
    boss: BossIndex,
    colors: CompressedColors,
    meta: IndexMeta,
    index_bytes: int,
    section_bytes: dict[str, int] | None = None,
    graph_bytes: dict[str, int] | None = None,
    color_bytes: dict[str, int] | None = None,
) -> StatsRecord:
    return StatsRecord(
        total_nodes=boss.node_count,
        solid_nodes=boss.solid_count,
        edge_count=boss.edge_count,
        colored_nodes=colors.p,
        implicit_nodes=len(colors.implicit),
        num_colors=colors.num_colors,
        index_bytes=index_bytes,
        plain_bytes=meta.plain_bytes,
        section_bytes=section_bytes,
        graph_bytes=graph_bytes,
        color_bytes=color_bytes,
    )

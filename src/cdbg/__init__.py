"""Succinct colored de Bruijn graph index for DNA sequencing reads."""

from .boss import BossIndex
from .coloring import DynamicColorTable, color_all, mark_colorable
from .colormatrix import CompressedColors, compress, get_colors
from .sequence import ReadSet, reverse_complement, validate_read
from .traversal import (
    ReconstructionReport,
    assemble_all,
    build_seqs,
    contig_assm,
    reconstruct_all,
)

__version__ = "0.1.0"

__all__ = [
    "BossIndex",
    "CompressedColors",
    "DynamicColorTable",
    "ReadSet",
    "ReconstructionReport",
    "assemble_all",
    "build_seqs",
    "color_all",
    "compress",
    "contig_assm",
    "get_colors",
    "mark_colorable",
    "reconstruct_all",
    "reverse_complement",
    "validate_read",
]

"""Whole-array helpers shared by the graph, the colouring and the traversal."""

from __future__ import annotations

import numpy as np


def _gather(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry indices of the given CSR rows, concatenated, and each row's length."""
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts), counts


def _unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of int keys by sort and neighbour mask: numpy 2's
    ``np.unique`` hashes int keys, which is several times slower here."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]

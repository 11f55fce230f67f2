"""repro.kernels — the numeric primitives, one NumPy function each.

Every numeric path in the library reduces to five primitives: the two
symbolic expansions (outer-product and Gustavson row-product), the
coalescing merge's symbolic half, and the two segmented reductions (the
merge's segmented sum and recipe replay's gather-multiply-sum).
:mod:`repro.spgemm.expansion`, :mod:`repro.spgemm.merge` and
:mod:`repro.plan.cache` call these functions directly.

The bit-identity invariant every caller relies on:

* expansions emit triplets in the canonical orders (pair order for the outer
  product, row order for Gustavson) with provenance indices that are plain
  integer arithmetic over the operands' index structure;
* the symbolic merge derives the *stable* sort permutation of the flat
  coordinate keys — stable sorts have a unique permutation;
* the reductions accumulate float64 values in ascending stream order (the
  order :func:`numpy.ufunc.at` applies repeated indices), so a recipe replay
  sums exactly as the cold merge did.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "active_name",
    "expand_outer_indices",
    "expand_row_indices",
    "merge_symbolic",
    "segmented_sum",
    "gather_multiply_sum",
]


def active_name() -> str:
    """Name of the kernel implementation (recorded by ``perfbench/run.py``)."""
    return "numpy"


def _segment_offsets(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments of the given sizes, return (segment id, offset within
    segment) for every element of the concatenation."""
    total = int(counts.sum())
    seg_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return seg_of, offsets


def expand_outer_indices(
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    b_indptr: np.ndarray,
    b_indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symbolic outer-product expansion over CSC(A) and CSR(B) structure.

    Returns ``(rows, cols, a_idx, b_idx)`` in pair order, then by (position
    in the A column, position in the B row) — the order an outer-product
    kernel would emit.  ``a_idx``/``b_idx`` are stored-entry positions.
    """
    na = np.diff(a_indptr)
    nb = np.diff(b_indptr)
    counts = na * nb
    pair_of, offsets = _segment_offsets(counts)

    nb_per = nb[pair_of]
    a_pos = offsets // np.maximum(nb_per, 1)
    b_pos = offsets % np.maximum(nb_per, 1)

    a_idx = a_indptr[pair_of] + a_pos
    b_idx = b_indptr[pair_of] + b_pos
    return a_indices[a_idx], b_indices[b_idx], a_idx, b_idx


def expand_row_indices(
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    b_indptr: np.ndarray,
    b_indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symbolic row-product (Gustavson) expansion over CSR(A), CSR(B).

    Returns ``(rows, cols, a_idx, b_idx)`` in output-row order, then by the
    A entry within the row, then by the B entry within the gathered row.
    """
    n_rows = len(a_indptr) - 1
    a_row_nnz = np.diff(a_indptr)
    b_row_nnz = np.diff(b_indptr)
    per_entry = b_row_nnz[a_indices]
    entry_of, offsets = _segment_offsets(per_entry)

    row_of_entry = np.repeat(np.arange(n_rows, dtype=np.int64), a_row_nnz)
    rows = row_of_entry[entry_of]
    b_rows = a_indices[entry_of]
    b_idx = b_indptr[b_rows] + offsets
    return rows, b_indices[b_idx], entry_of, b_idx


def merge_symbolic(
    rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]:
    """The symbolic half of the coalescing merge (non-empty streams only).

    Returns ``(order, group, n_groups, indptr, indices)``: the stable sort
    permutation over the triplet stream, the output-entry id of each sorted
    triplet, the unique-coordinate count, and the output CSR structure.
    """
    keys = rows.astype(np.int64) * np.int64(n_cols) + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]

    boundaries = np.empty(len(keys), dtype=bool)
    boundaries[0] = True
    boundaries[1:] = keys[1:] != keys[:-1]
    group = np.cumsum(boundaries) - 1

    unique_keys = keys[boundaries]
    out_rows = unique_keys // n_cols
    out_cols = unique_keys % n_cols
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_rows, minlength=n_rows), out=indptr[1:])
    return order, group, int(group[-1]) + 1, indptr, out_cols


def segmented_sum(
    vals: np.ndarray, order: np.ndarray, group: np.ndarray, n_groups: int
) -> np.ndarray:
    """Sum ``vals[order]`` by ``group`` in ascending stream order."""
    out = np.zeros(n_groups, dtype=np.float64)
    np.add.at(out, group, vals[order])
    return out


def gather_multiply_sum(
    a_data: np.ndarray,
    b_data: np.ndarray,
    a_gather: np.ndarray,
    b_gather: np.ndarray,
    group: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """Gather both operands, multiply, and sum by ``group`` in stream order."""
    out = np.zeros(n_groups, dtype=np.float64)
    np.add.at(out, group, a_data[a_gather] * b_data[b_gather])
    return out

"""Numeric merge: coalesce C-hat triplets into the final matrix C.

The merge we *execute* is a vectorised sort-based coalesce (stable and exact
in float64 given a deterministic summation order); the merge the simulator
*times* is the paper's dense-accumulator-with-atomics algorithm, whose costs
the trace builders model per output row.  Both produce identical values —
the test suite asserts it against both our reference and SciPy.

The merge factors into a *symbolic* half (sort permutation, duplicate
grouping, output structure — a pure function of the triplet coordinates) and
a *numeric* half (gather + segmented sum).  :func:`plan_merge` captures the
symbolic half as a reusable :class:`MergeRecipe` so iterative workloads with
a fixed sparsity structure pay for the sort once; :func:`merge_triplets`
remains the one-shot convenience wrapper over both halves.

The performance plane needs only the output *structure* — unique columns
per row — and :func:`symbolic_row_nnz` counts it from the operands' index
structure alone, without building the triplet stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.errors import ShapeMismatchError
from repro.sparse.csr import CSRMatrix

__all__ = ["MergeRecipe", "plan_merge", "merge_triplets", "symbolic_row_nnz"]


@dataclass(frozen=True)
class MergeRecipe:
    """The symbolic half of a merge: structure-only, reusable across values.

    Captures everything :func:`merge_triplets` derives from the triplet
    *coordinates* alone — the stable sort permutation, the duplicate
    grouping, and the output CSR structure — so that repeated merges of
    streams with identical coordinates (iterative workloads on a fixed
    sparsity pattern) can re-run only the numeric half via :meth:`apply`.

    Attributes:
        shape: output matrix shape.
        order: stable sort permutation over the triplet stream.
        group: output-entry id of each *sorted* triplet (summation target).
        n_groups: number of unique output coordinates.
        indptr: output CSR row pointers.
        indices: output CSR column indices (one per unique coordinate).
    """

    shape: tuple[int, int]
    order: np.ndarray
    group: np.ndarray
    n_groups: int
    indptr: np.ndarray
    indices: np.ndarray

    def apply(self, vals: np.ndarray) -> CSRMatrix:
        """Numeric half: sum ``vals`` into the captured output structure.

        Summation order is exactly :func:`merge_triplets`'s (stable sort then
        in-order accumulation), so the result is bit-identical to a cold
        merge of the same stream.
        """
        summed = kernels.segmented_sum(vals, self.order, self.group, self.n_groups)
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.copy(), summed)


def plan_merge(
    rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> MergeRecipe:
    """Capture the symbolic half of merging the given triplet coordinates."""
    n_rows, n_cols = shape
    if len(rows) == 0:
        zi = np.zeros(0, dtype=np.int64)
        return MergeRecipe(
            shape, zi, zi.copy(), 0, np.zeros(n_rows + 1, dtype=np.int64), zi.copy()
        )
    if rows.max() >= n_rows or cols.max() >= n_cols:
        raise ShapeMismatchError("triplet coordinate out of range")
    order, group, n_groups, indptr, indices = kernels.merge_symbolic(
        rows, cols, n_rows, n_cols
    )
    return MergeRecipe(shape, order, group, n_groups, indptr, indices)


def merge_triplets(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
    *,
    drop_zeros: bool = False,
) -> CSRMatrix:
    """Sum duplicate coordinates and return canonical CSR.

    ``drop_zeros`` is off by default: GPU merge kernels keep explicit zeros
    produced by cancellation, and so do we, so that nnz(C) accounting matches
    the work the kernels actually did.
    """
    if len(rows) == 0:
        return CSRMatrix.empty(shape)
    out = plan_merge(rows, cols, shape).apply(vals)
    if drop_zeros:
        keep = out.data != 0.0
        out_rows = np.repeat(np.arange(out.n_rows, dtype=np.int64), out.row_nnz())
        indptr = np.zeros(out.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(out_rows[keep], minlength=out.n_rows), out=indptr[1:])
        return CSRMatrix(shape, indptr, out.indices[keep], out.data[keep])
    return out


#: Products gathered per row block of the symbolic pass (each transient
#: index array of a block then takes 8 bytes per product, 2 MiB at most).
SYMBOLIC_BLOCK_PRODUCTS = 1 << 18
#: Cap on one block's ``block_rows × n_cols`` occupancy mask, in bytes.
SYMBOLIC_MASK_BYTES = 1 << 20
#: A block takes the dense mask when its products fill at least this share
#: of the mask's cells; sparser (typically wide) blocks sort their keys.
#: It also bounds a mask at ``8 / SYMBOLIC_DENSE_MIN_FILL`` times the bytes
#: of the block's key array, even for a single row wider than the cap.
SYMBOLIC_DENSE_MIN_FILL = 1 / 64


def symbolic_row_nnz(a_csr, b_csr, row_work: np.ndarray | None = None) -> np.ndarray:
    """Per-row count of unique output columns of ``A @ B`` — the symbolic pass.

    This is ``nnz(c_{i*})`` for every output row, which the trace builders
    need to model atomic collisions (``k_r - u_r``) and which B-Limiting's
    row classification uses.  It reads index structure only: A is walked in
    row blocks, each block gathers just B's column ids (no values, no
    provenance), and counts its unique columns per row exactly, either by
    scattering into a ``block_rows × n_cols`` occupancy mask or, for blocks
    too sparse for one, by sorting flat ``row * n_cols + col`` keys.

    ``a_csr``/``b_csr`` are CSR-like (``shape``, ``indptr``, ``indices``);
    stored entries count whatever their value, as the merge keeps explicit
    zeros.  ``row_work`` is the per-row product count
    (:func:`repro.plan.estimate.row_flops`), computed when not given; it
    sizes the blocks and picks each block's counting method.
    """
    n_rows, n_cols = a_csr.shape[0], b_csr.shape[1]
    out = np.zeros(n_rows, dtype=np.int64)
    if row_work is None:
        from repro.plan.estimate import row_flops

        row_work = row_flops(a_csr, b_csr)
    row_work = np.asarray(row_work, dtype=np.int64)
    ends = np.cumsum(row_work)
    if n_rows == 0 or ends[-1] == 0:
        return out
    a_indptr = np.asarray(a_csr.indptr, dtype=np.int64)
    a_indices = np.asarray(a_csr.indices, dtype=np.int64)
    b_indptr = np.asarray(b_csr.indptr, dtype=np.int64)
    b_indices = np.asarray(b_csr.indices, dtype=np.int64)
    b_row_nnz = np.diff(b_indptr)
    mask_rows = max(1, SYMBOLIC_MASK_BYTES // n_cols)
    dense_min = SYMBOLIC_DENSE_MIN_FILL * n_cols

    r0 = 0
    while r0 < n_rows:
        done = int(ends[r0 - 1]) if r0 else 0
        r1 = int(np.searchsorted(ends, done + SYMBOLIC_BLOCK_PRODUCTS, side="right"))
        r1 = max(r1, r0 + 1)
        dense_end = min(r1, r0 + mask_rows)
        dense = int(ends[dense_end - 1]) - done >= dense_min * (dense_end - r0)
        if dense:
            r1 = dense_end
        if ends[r1 - 1] > done:
            # Column ids of every product landing in rows r0..r1, in row order.
            js = a_indices[a_indptr[r0] : a_indptr[r1]]
            per_entry = b_row_nnz[js]
            first = np.cumsum(per_entry) - per_entry
            pos = np.arange(int(ends[r1 - 1]) - done, dtype=np.int64)
            pos += np.repeat(b_indptr[js] - first, per_entry)
            keys = np.repeat(np.arange(0, (r1 - r0) * n_cols, n_cols), row_work[r0:r1])
            keys += b_indices[pos]
            if dense:
                mask = np.zeros((r1 - r0, n_cols), dtype=bool)
                mask.ravel()[keys] = True
                out[r0:r1] = np.count_nonzero(mask, axis=1)
            else:
                keys.sort()
                first_of_key = np.empty(len(keys), dtype=bool)
                first_of_key[0] = True
                np.not_equal(keys[1:], keys[:-1], out=first_of_key[1:])
                out[r0:r1] = np.bincount(keys[first_of_key] // n_cols, minlength=r1 - r0)
        r0 = r1
    return out

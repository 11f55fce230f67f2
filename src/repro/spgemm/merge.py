"""Numeric merge: coalesce C-hat triplets into the final matrix C.

The merge we *execute* is the numeric kernel's merge step
(:func:`repro.kernels.merge`: a dense accumulator per row block, or a
stable sort for blocks too sparse for one, each entry summed in stream
order, exact in float64); the merge the simulator *times* is the paper's
dense-accumulator-with-atomics algorithm, whose costs the trace builders
model per output row.  Both produce identical values — the test suite
asserts it against both our reference and SciPy.  :func:`merge_triplets` is
the range-checked form over a caller's triplet stream
(:func:`repro.kernels.coalesce`), used by the reference product.

The performance plane needs only the output *structure* — unique columns
per row — and :func:`symbolic_row_nnz` counts it from the operands' index
structure alone, without building the triplet stream, over the same row
blocks as the numeric merge.  A numeric run reads the same counts off its
merged result instead (:meth:`repro.plan.ir.ExecutionPlan.run`).
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.errors import ShapeMismatchError
from repro.sparse.csr import CSRMatrix

__all__ = ["merge_triplets", "symbolic_row_nnz"]


def merge_triplets(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]
) -> CSRMatrix:
    """Sum duplicate coordinates and return canonical CSR.

    Explicit zeros produced by cancellation are kept: GPU merge kernels keep
    them too, so nnz(C) accounting matches the work the kernels actually did.
    """
    n_rows, n_cols = shape
    if len(rows) and (
        rows.min() < 0 or cols.min() < 0 or rows.max() >= n_rows or cols.max() >= n_cols
    ):
        raise ShapeMismatchError("triplet coordinate out of range")
    return CSRMatrix(shape, *kernels.coalesce(rows, cols, vals, shape))


def symbolic_row_nnz(a_csr, b_csr, row_work: np.ndarray | None = None) -> np.ndarray:
    """Per-row count of unique output columns of ``A @ B`` — the symbolic pass.

    This is ``nnz(c_{i*})`` for every output row, which the trace builders
    need to model atomic collisions (``k_r - u_r``) and bhSPARSE's lowering
    bins rows by.  It reads index structure only: A is walked in
    the numeric merge's row blocks (:func:`repro.kernels.row_blocks`), each
    block gathers just B's column ids (no values, no provenance), and counts
    its unique columns per row exactly, either by scattering into a
    ``block_rows × n_cols`` occupancy mask (dense blocks) or by sorting flat
    ``row * n_cols + col`` keys.

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
    a_indptr = np.asarray(a_csr.indptr, dtype=np.int64)
    a_indices = np.asarray(a_csr.indices, dtype=np.int64)
    b_indptr = np.asarray(b_csr.indptr, dtype=np.int64)
    b_indices = np.asarray(b_csr.indices, dtype=np.int64)
    b_row_nnz = np.diff(b_indptr)

    for start, stop, lo, hi, dense in kernels.row_blocks(np.cumsum(row_work), n_cols):
        if hi == lo:
            continue
        # Column ids of every product landing in rows start..stop, in row order.
        js = a_indices[a_indptr[start] : a_indptr[stop]]
        pos = kernels.expand_entries(b_indptr[js], b_row_nnz[js])
        keys = np.repeat(np.arange(0, (stop - start) * n_cols, n_cols), row_work[start:stop])
        keys += b_indices[pos]
        if dense:
            mask = np.zeros((stop - start, n_cols), dtype=bool)
            mask.ravel()[keys] = True
            out[start:stop] = np.count_nonzero(mask, axis=1)
        else:
            keys.sort()
            first_of_key = np.ones(len(keys), dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=first_of_key[1:])
            out[start:stop] = np.bincount(keys[first_of_key] // n_cols, minlength=stop - start)
    return out

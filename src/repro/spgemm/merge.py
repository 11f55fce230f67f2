"""Numeric merge: coalesce C-hat triplets into the final matrix C.

The merge we *execute* is the numeric kernel's merge step
(:func:`repro.kernels.stream`: a dense accumulator per row block, or a
stable sort for blocks too sparse for one, each entry summed in stream
order, exact in float64); the merge the simulator *times* is the paper's
dense-accumulator-with-atomics algorithm, whose costs the trace builders
model per output row.  Both produce identical values — the test suite
asserts it against both our reference and SciPy.  :func:`merge_triplets` is
the range-checked form over a caller's triplet stream
(:func:`repro.kernels.coalesce`), used by the reference product.

The performance plane needs only the output *structure* — unique columns
per row — and :func:`symbolic_row_nnz` counts it from the operands' index
structure alone: the numeric kernel's own walk over its row blocks, without
values.  A numeric run reads the same counts off its
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
    bins rows by.  It reads index structure only: the numeric kernel's walk
    over its row blocks (:func:`repro.kernels.row_nnz`) builds each block's
    flat ``row * n_cols + col`` keys without values and counts the unique
    ones per row exactly, either in a ``block_rows × n_cols`` occupancy mask
    (dense blocks) or by sorting them.

    ``a_csr``/``b_csr`` are CSR-like (``shape``, ``indptr``, ``indices``);
    stored entries count whatever their value, as the merge keeps explicit
    zeros.  ``row_work`` is the per-row product count
    (:func:`repro.plan.estimate.row_flops`), computed when not given; it
    sizes the blocks and picks each block's counting method.
    """
    ends = None if row_work is None else np.cumsum(row_work)
    return kernels.row_nnz(a_csr, b_csr, ends)

"""Workload estimates from the operands' index structure alone.

The paper's precalculation step sums, for every stored entry ``A[i, j]``,
the stored entries of row ``j`` of ``B``: the multiply's scalar-product
count.  :func:`multiply_flops` is that total (the quantity cost-aware
serving admission budgets against) and :func:`row_flops` its per-output-row
resolution (what the out-of-core panel planner sizes row panels from).
Neither needs a :class:`~repro.spgemm.base.MultiplyContext` or a CSC copy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "multiply_flops",
    "row_flops",
]

#: Flop estimates at or beyond this magnitude raise :class:`OverflowError`
#: from :func:`multiply_flops` — callers budgeting in int64 arithmetic (the
#: serving admission ledger) must handle the fallback explicitly rather than
#: silently wrapping.
FLOPS_OVERFLOW_LIMIT = 1 << 62


def multiply_flops(a, b) -> int:
    """Exact multiply work for ``C = A·B``: the number of scalar products.

    This is the paper's precalculated workload sum — for every stored entry
    ``A[i, j]`` the multiply touches every stored entry of row ``j`` of
    ``B``, so the total is ``sum(b_row_nnz[a.indices])``.  It is computed
    from index structure alone (O(nnz(A)) gather, no value arithmetic),
    cheap enough to run per-request at the serving trust boundary, and it is
    the quantity cost-aware admission budgets against.

    ``a`` and ``b`` are CSR-like (``indptr``/``indices`` plus ``shape``).
    A shape mismatch returns ``0`` — the multiply itself will reject the
    pair with a proper error, so admission should not double-report it.
    Estimates at or beyond ``FLOPS_OVERFLOW_LIMIT`` raise
    :class:`OverflowError` so budget arithmetic can't silently wrap.
    """
    if a.shape[1] != b.shape[0]:
        return 0
    indices = np.asarray(a.indices, dtype=np.int64)
    if indices.size == 0:
        return 0
    b_row_nnz = np.diff(np.asarray(b.indptr, dtype=np.int64))
    total = int(b_row_nnz[indices].sum(dtype=np.int64))
    # A negative total means the int64 accumulator wrapped mid-sum; either
    # way the estimate is unusable for ledger arithmetic.
    if total < 0 or total >= FLOPS_OVERFLOW_LIMIT:
        raise OverflowError(f"flop estimate {total} exceeds budget arithmetic range")
    return total


def row_flops(a, b) -> np.ndarray:
    """Per-output-row multiply work: products landing in each row of ``C``.

    The per-row resolution of :func:`multiply_flops` (its sum equals that
    total) and the same quantity as :attr:`MultiplyContext.row_work`, but
    computed from the operands' index structure alone — no context, no CSC
    conversion — so the out-of-core panel planner can size row panels of A
    against a memory budget before anything is expanded.
    """
    if a.shape[1] != b.shape[0]:
        return np.zeros(a.shape[0], dtype=np.int64)
    b_row_nnz = np.diff(np.asarray(b.indptr, dtype=np.int64))
    per_entry = b_row_nnz[np.asarray(a.indices, dtype=np.int64)]
    # Exact int64 prefix sums over A's entries; a row's work is a difference.
    prefix = np.zeros(len(per_entry) + 1, dtype=np.int64)
    np.cumsum(per_entry, out=prefix[1:])
    a_indptr = np.asarray(a.indptr, dtype=np.int64)
    return prefix[a_indptr[1:]] - prefix[a_indptr[:-1]]

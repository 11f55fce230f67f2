"""Numeric expansion: generate the intermediate matrix C-hat.

Both product formulations generate exactly the same multiset of triplets
``(i, j, a_ik * b_kj)`` — they differ in *grouping* (and hence in GPU load
shape, which the trace builders capture):

* :func:`expand_outer_indices` — grouped by inner index ``k``: column
  ``a_{*k}`` times row ``b_{k*}`` (Equation 2; one thread block per pair).
  :func:`expand_outer` adds the values; the reference product merges them.
* :func:`expand_row_indices` — grouped by output row ``i``: Gustavson's
  formulation (one thread group per row).

Both wrap the vectorised primitives in :mod:`repro.kernels`, whose
:func:`~repro.kernels.spgemm` runs either order for every scheme's plan.
"""

from __future__ import annotations

from repro import kernels
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import check_multipliable

__all__ = [
    "expand_outer",
    "expand_outer_indices",
    "expand_row_indices",
]


def expand_outer_indices(
    a_csc: CSCMatrix, b_csr: CSRMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symbolic outer-product expansion of ``A @ B``.

    Returns ``(rows, cols, a_idx, b_idx)`` in the same pair order as
    :func:`expand_outer`, where ``a_idx``/``b_idx`` index the stored entries
    of ``a_csc``/``b_csr`` whose product lands at each coordinate — the
    value-provenance arrays iterative replay caches so that new operand
    values reuse the expansion structure without recomputing it.
    """
    check_multipliable(a_csc.shape, b_csr.shape)
    return kernels.expand_outer_indices(
        a_csc.indptr, a_csc.indices, b_csr.indptr, b_csr.indices
    )


def expand_outer(a_csc: CSCMatrix, b_csr: CSRMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outer-product expansion of ``A @ B``.

    Returns ``(rows, cols, vals)`` of C-hat, ordered by pair ``k`` then by
    (position in a-column, position in b-row) — the order an outer-product
    kernel would emit.
    """
    rows, cols, a_idx, b_idx = expand_outer_indices(a_csc, b_csr)
    return rows, cols, a_csc.data[a_idx] * b_csr.data[b_idx]


def expand_row_indices(
    a_csr: CSRMatrix, b_csr: CSRMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symbolic row-product expansion of ``A @ B``.

    Returns ``(rows, cols, a_idx, b_idx)`` ordered by output row, then by
    the a-entry within the row, then by the b-entry — the order a
    row-product kernel would emit — where ``a_idx``/``b_idx`` index the
    stored entries of ``a_csr``/``b_csr``.
    """
    check_multipliable(a_csr.shape, b_csr.shape)
    return kernels.expand_row_indices(
        a_csr.indptr, a_csr.indices, b_csr.indptr, b_csr.indices
    )

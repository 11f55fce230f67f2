"""Numeric expansion: generate the intermediate matrix C-hat.

Both product formulations generate exactly the same multiset of triplets
``(i, j, a_ik * b_kj)`` — they differ in *grouping* (and hence in GPU load
shape, which the trace builders capture):

* outer product — grouped by inner index ``k``: column ``a_{*k}`` times row
  ``b_{k*}`` (Equation 2; one thread block per pair);
* row product — grouped by output row ``i``: Gustavson's formulation (one
  thread group per row).

Both are walks of :func:`repro.kernels.expand_entries` over A's stored
entries, and :func:`~repro.kernels.spgemm` runs either order for every
scheme's plan.  :func:`expand_outer` is the outer-product stream with
values over a CSC left operand, which the reference product merges.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import check_multipliable

__all__ = ["expand_outer"]


def expand_outer(a_csc: CSCMatrix, b_csr: CSRMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outer-product expansion of ``A @ B``.

    Returns ``(rows, cols, vals)`` of C-hat, ordered by pair ``k`` then by
    (position in a-column, position in b-row) — the order an outer-product
    kernel would emit.
    """
    check_multipliable(a_csc.shape, b_csr.shape)
    # The walk over A's entries in CSC order: pair by pair, rows ascending.
    pairs = np.repeat(np.arange(a_csc.n_cols, dtype=np.int64), np.diff(a_csc.indptr))
    counts = np.diff(b_csr.indptr)[pairs]
    b_idx = kernels.expand_entries(b_csr.indptr[pairs], counts)
    vals = np.repeat(a_csc.data, counts) * b_csr.data[b_idx]
    return np.repeat(a_csc.indices, counts), b_csr.indices[b_idx], vals

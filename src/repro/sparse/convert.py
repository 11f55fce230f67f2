"""Format conversions between COO, CSR and CSC.

Conversions between the compressed formats re-compress with one stable
argsort and preserve values exactly.  COO inputs are coalesced on the way in
by :func:`repro.kernels.coalesce` — keyed by (row, col) for CSR and by
(col, row) for CSC, duplicates summed in input order — so the compressed
formats are always canonical: no duplicate coordinates, indices sorted
within each row/column.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix

__all__ = [
    "coo_to_csr",
    "coo_to_csc",
    "csr_to_csc",
    "csc_to_csr",
    "csr_to_coo",
    "csc_to_coo",
]


def _compress(keys: np.ndarray, n_groups: int) -> np.ndarray:
    """Build an indptr array from sorted group keys."""
    counts = np.bincount(keys, minlength=n_groups)
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Convert a COO matrix to canonical CSR (coalesces duplicates)."""
    coo.validate()
    return CSRMatrix(coo.shape, *kernels.coalesce(coo.rows, coo.cols, coo.vals, coo.shape))


def coo_to_csc(coo: COOMatrix) -> CSCMatrix:
    """Convert a COO matrix to canonical CSC (coalesces duplicates)."""
    coo.validate()
    by_col = kernels.coalesce(coo.cols, coo.rows, coo.vals, (coo.n_cols, coo.n_rows))
    return CSCMatrix(coo.shape, *by_col)


def csr_to_csc(csr: CSRMatrix) -> CSCMatrix:
    """Re-compress a CSR matrix by column (stable, O(nnz log nnz) argsort)."""
    csr.validate()
    rows = np.repeat(np.arange(csr.n_rows, dtype=np.int64), csr.row_nnz())
    order = np.argsort(csr.indices, kind="stable")
    indptr = _compress(csr.indices[order], csr.n_cols)
    return CSCMatrix(csr.shape, indptr, rows[order], csr.data[order])


def csc_to_csr(csc: CSCMatrix) -> CSRMatrix:
    """Re-compress a CSC matrix by row (stable, O(nnz log nnz) argsort)."""
    csc.validate()
    cols = np.repeat(np.arange(csc.n_cols, dtype=np.int64), csc.col_nnz())
    order = np.argsort(csc.indices, kind="stable")
    indptr = _compress(csc.indices[order], csc.n_rows)
    return CSRMatrix(csc.shape, indptr, cols[order], csc.data[order])


def csr_to_coo(csr: CSRMatrix) -> COOMatrix:
    """Expand a CSR matrix to COO triplets."""
    return csr.to_coo()


def csc_to_coo(csc: CSCMatrix) -> COOMatrix:
    """Expand a CSC matrix to COO triplets."""
    return csc.to_coo()

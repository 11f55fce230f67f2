"""Compressed sparse column (CSC) matrix.

The outer-product spGEMM formulation (Equation 2 of the paper) iterates over
*columns* of the left operand ``A`` paired with *rows* of the right operand
``B``; CSC gives O(1) access to those columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.kernels import check_key_space

__all__ = ["CSCMatrix"]


@dataclass
class CSCMatrix:
    """A sparse matrix in compressed sparse column format.

    Attributes:
        shape: ``(n_rows, n_cols)``.
        indptr: int64 array of length ``n_cols + 1``; column ``j`` occupies the
            half-open slice ``indptr[j]:indptr[j+1]`` of ``indices``/``data``.
        indices: int64 row indices per stored entry.
        data: float64 values per stored entry.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "CSCMatrix":
        """Return a CSC matrix of the given shape with no stored entries."""
        return cls(
            shape,
            np.zeros(shape[1] + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        """Build a CSC matrix from a 2-D dense array, dropping exact zeros."""
        from repro.sparse.coo import COOMatrix

        return COOMatrix.from_dense(dense).to_csc()

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return len(self.data)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def col_nnz(self) -> np.ndarray:
        """Per-column stored-entry counts, shape ``(n_cols,)``."""
        return np.diff(self.indptr)

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(row_indices, values)`` views of column ``j``."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`SparseFormatError` on any structural inconsistency,
        or on a shape whose flat ``(row, col)`` keys would overflow int64."""
        n_rows, n_cols = self.shape
        check_key_space(n_rows, n_cols, error=SparseFormatError)
        if len(self.indptr) != n_cols + 1:
            raise SparseFormatError(
                f"indptr length {len(self.indptr)} != n_cols + 1 = {n_cols + 1}"
            )
        if self.indptr[0] != 0:
            raise SparseFormatError("indptr[0] must be 0")
        if self.indptr[-1] != self.nnz:
            raise SparseFormatError(f"indptr[-1]={self.indptr[-1]} != nnz={self.nnz}")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise SparseFormatError("indices/data length mismatch")
        if self.nnz:
            if self.indices.min() < 0 or self.indices.max() >= n_rows:
                raise SparseFormatError("row index out of range")
            if not np.all(np.isfinite(self.data)):
                raise SparseFormatError("non-finite value in CSC matrix")
            # Duplicate row indices within a column silently double-count
            # downstream (outer-product expansion emits one product per
            # stored entry), so they are a format error; sum_duplicates()
            # canonicalises.
            col_of = np.repeat(np.arange(n_cols, dtype=np.int64), np.diff(self.indptr))
            keys = np.sort(col_of * n_rows + self.indices)
            dup = np.nonzero(keys[1:] == keys[:-1])[0]
            if len(dup):
                col = int(keys[dup[0]] // n_rows)
                raise SparseFormatError(
                    f"duplicate row indices within column {col} "
                    "(use sum_duplicates() to canonicalise)"
                )

    def sum_duplicates(self) -> "CSCMatrix":
        """Return a canonical copy: duplicate ``(row, col)`` entries summed,
        row indices sorted within each column."""
        return self.to_coo().to_csc()

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> "COOMatrix":  # noqa: F821
        """Convert to COO format."""
        from repro.sparse.coo import COOMatrix

        cols = np.repeat(np.arange(self.n_cols, dtype=np.int64), self.col_nnz())
        return COOMatrix(self.shape, self.indices.copy(), cols, self.data.copy())

    def to_csr(self) -> "CSRMatrix":  # noqa: F821
        """Convert to CSR format (O(nnz) counting sort)."""
        from repro.sparse.convert import csc_to_csr

        return csc_to_csr(self)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense float64 array (small matrices only)."""
        out = np.zeros(self.shape, dtype=np.float64)
        cols = np.repeat(np.arange(self.n_cols, dtype=np.int64), self.col_nnz())
        np.add.at(out, (self.indices, cols), self.data)
        return out

    def transpose(self) -> "CSCMatrix":
        """Return the transpose, itself in CSC format."""
        from repro.sparse.convert import csc_to_csr

        csr = csc_to_csr(self)
        return CSCMatrix((self.n_cols, self.n_rows), csr.indptr, csr.indices, csr.data)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def allclose(self, other: "CSCMatrix", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Value comparison via CSR canonical form."""
        if self.shape != other.shape:
            raise ShapeMismatchError(f"shape {self.shape} != {other.shape}")
        return self.to_csr().allclose(other.to_csr(), rtol=rtol, atol=atol)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"

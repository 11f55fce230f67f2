"""Coordinate-format (COO) sparse matrix.

COO is the interchange format of this library: generators produce COO, and the
compressed formats (:class:`~repro.sparse.csr.CSRMatrix`,
:class:`~repro.sparse.csc.CSCMatrix`) are built from it.  Entries may be
unsorted and may contain duplicates until :meth:`COOMatrix.coalesce` is called,
which sums them through the numeric kernel's merge
(:func:`repro.kernels.coalesce`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.errors import ShapeMismatchError, SparseFormatError

__all__ = ["COOMatrix"]


@dataclass
class COOMatrix:
    """A sparse matrix in coordinate (triplet) format.

    Attributes:
        shape: ``(n_rows, n_cols)``.
        rows: int64 array of row indices, one per stored entry.
        cols: int64 array of column indices, one per stored entry.
        vals: float64 array of values, one per stored entry.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        self.cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        self.vals = np.ascontiguousarray(self.vals, dtype=np.float64)
        if not (self.rows.ndim == self.cols.ndim == self.vals.ndim == 1):
            raise SparseFormatError("COO component arrays must be 1-D")
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise SparseFormatError(
                f"COO component lengths differ: rows={len(self.rows)} "
                f"cols={len(self.cols)} vals={len(self.vals)}"
            )
        n_rows, n_cols = self.shape
        if n_rows < 0 or n_cols < 0:
            raise SparseFormatError(f"negative shape {self.shape}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "COOMatrix":
        """Return a COO matrix of the given shape with no stored entries."""
        zero = np.zeros(0, dtype=np.int64)
        return cls(shape, zero, zero.copy(), np.zeros(0, dtype=np.float64))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from a 2-D dense array, dropping exact zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise SparseFormatError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape, rows.astype(np.int64), cols.astype(np.int64), dense[rows, cols])

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries (duplicates counted separately)."""
        return len(self.vals)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    # ------------------------------------------------------------------
    # Validation and normalisation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`SparseFormatError` if any index is out of range or
        any value is not finite."""
        self._check_range()
        if not np.all(np.isfinite(self.vals)):
            raise SparseFormatError("non-finite value in COO matrix")

    def _check_range(self) -> None:
        """Raise :class:`SparseFormatError` if any index is out of range."""
        n_rows, n_cols = self.shape
        if self.nnz == 0:
            return
        if self.rows.min() < 0 or self.rows.max() >= n_rows:
            raise SparseFormatError("row index out of range")
        if self.cols.min() < 0 or self.cols.max() >= n_cols:
            raise SparseFormatError("column index out of range")

    def coalesce(self, drop_zeros: bool = True) -> "COOMatrix":
        """Return an equivalent COO matrix with duplicates summed.

        Entries are sorted by (row, col) and duplicates summed in input
        order (:func:`repro.kernels.coalesce`).  When ``drop_zeros`` is
        true, entries that sum to exactly zero are removed.  Raises
        :class:`SparseFormatError` if any index is out of range.
        """
        self._check_range()
        indptr, cols, vals = kernels.coalesce(self.rows, self.cols, self.vals, self.shape)
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(indptr))
        if drop_zeros:
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        return COOMatrix(self.shape, rows, cols, vals)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_csr(self) -> "CSRMatrix":  # noqa: F821 - forward ref, resolved below
        """Convert to CSR (duplicates are coalesced first)."""
        from repro.sparse.convert import coo_to_csr

        return coo_to_csr(self)

    def to_csc(self) -> "CSCMatrix":  # noqa: F821
        """Convert to CSC (duplicates are coalesced first)."""
        from repro.sparse.convert import coo_to_csc

        return coo_to_csc(self)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense float64 array (small matrices only)."""
        self.validate()
        out = np.zeros(self.shape, dtype=np.float64)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def transpose(self) -> "COOMatrix":
        """Return the transpose as a new COO matrix (no copy of values order)."""
        return COOMatrix(
            (self.n_cols, self.n_rows), self.cols.copy(), self.rows.copy(), self.vals.copy()
        )

    # ------------------------------------------------------------------
    # Arithmetic helpers used by tests and examples
    # ------------------------------------------------------------------
    def allclose(self, other: "COOMatrix", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Value-wise comparison after coalescing both operands."""
        if self.shape != other.shape:
            raise ShapeMismatchError(f"shape {self.shape} != {other.shape}")
        a = self.coalesce()
        b = other.coalesce()
        if a.nnz != b.nnz:
            return False
        return (
            bool(np.array_equal(a.rows, b.rows))
            and bool(np.array_equal(a.cols, b.cols))
            and bool(np.allclose(a.vals, b.vals, rtol=rtol, atol=atol))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"

"""Compressed sparse row (CSR) matrix.

CSR is the working format of every spGEMM scheme in this library: the paper's
algorithms consume CSR for the right operand (rows of ``B``) and CSC for the
left operand (columns of ``A``) in the outer-product formulation, and CSR for
both the input and the output of the row-product formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.kernels import check_key_space

__all__ = ["CSRMatrix"]


@dataclass
class CSRMatrix:
    """A sparse matrix in compressed sparse row format.

    Attributes:
        shape: ``(n_rows, n_cols)``.
        indptr: int64 array of length ``n_rows + 1``; row ``i`` occupies the
            half-open slice ``indptr[i]:indptr[i+1]`` of ``indices``/``data``.
        indices: int64 column indices per stored entry.
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
    def empty(cls, shape: tuple[int, int]) -> "CSRMatrix":
        """Return a CSR matrix of the given shape with no stored entries."""
        return cls(
            shape,
            np.zeros(shape[0] + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build a CSR matrix from a 2-D dense array, dropping exact zeros."""
        from repro.sparse.coo import COOMatrix

        return COOMatrix.from_dense(dense).to_csr()

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """Return the n-by-n identity matrix."""
        return cls(
            (n, n),
            np.arange(n + 1, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            np.ones(n, dtype=np.float64),
        )

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

    def row_nnz(self) -> np.ndarray:
        """Per-row stored-entry counts, shape ``(n_rows,)``."""
        return np.diff(self.indptr)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(column_indices, values)`` views of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`SparseFormatError` on any structural inconsistency,
        or on a shape whose flat ``(row, col)`` keys would overflow int64."""
        n_rows, n_cols = self.shape
        check_key_space(n_rows, n_cols, error=SparseFormatError)
        if len(self.indptr) != n_rows + 1:
            raise SparseFormatError(
                f"indptr length {len(self.indptr)} != n_rows + 1 = {n_rows + 1}"
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
            if self.indices.min() < 0 or self.indices.max() >= n_cols:
                raise SparseFormatError("column index out of range")
            if not np.all(np.isfinite(self.data)):
                raise SparseFormatError("non-finite value in CSR matrix")
            # Duplicate column indices within a row silently double-count
            # downstream (histogram-based symbolic expansion, merge sizing),
            # so they are a format error; sum_duplicates() canonicalises.
            row_of = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(self.indptr))
            keys = np.sort(row_of * n_cols + self.indices)
            dup = np.nonzero(keys[1:] == keys[:-1])[0]
            if len(dup):
                row = int(keys[dup[0]] // n_cols)
                raise SparseFormatError(
                    f"duplicate column indices within row {row} "
                    "(use sum_duplicates() to canonicalise)"
                )

    def sum_duplicates(self) -> "CSRMatrix":
        """Return a canonical copy: duplicate ``(row, col)`` entries summed,
        column indices sorted within each row."""
        return self.to_coo().to_csr()

    def has_sorted_indices(self) -> bool:
        """True when column indices are strictly increasing within each row."""
        if self.nnz <= 1:
            return True
        diffs = np.diff(self.indices)
        row_starts = self.indptr[1:-1]
        row_starts = row_starts[(row_starts > 0) & (row_starts < self.nnz)]
        interior = np.ones(len(diffs), dtype=bool)
        interior[row_starts - 1] = False  # boundary between consecutive rows
        return bool(np.all(diffs[interior] > 0))

    def sort_indices(self) -> "CSRMatrix":
        """Return a copy with column indices sorted within each row."""
        row_of = np.repeat(np.arange(self.n_rows, dtype=np.int64), self.row_nnz())
        order = np.lexsort((self.indices, row_of))
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices[order], self.data[order])

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> "COOMatrix":  # noqa: F821
        """Convert to COO format."""
        from repro.sparse.coo import COOMatrix

        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), self.row_nnz())
        return COOMatrix(self.shape, rows, self.indices.copy(), self.data.copy())

    def to_csc(self) -> "CSCMatrix":  # noqa: F821
        """Convert to CSC format (O(nnz) counting sort)."""
        from repro.sparse.convert import csr_to_csc

        return csr_to_csc(self)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense float64 array (small matrices only)."""
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), self.row_nnz())
        np.add.at(out, (rows, self.indices), self.data)
        return out

    def transpose(self) -> "CSRMatrix":
        """Return the transpose, itself in CSR format."""
        from repro.sparse.convert import csr_to_csc

        csc = csr_to_csc(self)
        return CSRMatrix((self.n_cols, self.n_rows), csc.indptr, csc.indices, csc.data)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def allclose(self, other: "CSRMatrix", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Structural + value comparison; both operands are index-sorted first."""
        if self.shape != other.shape:
            raise ShapeMismatchError(f"shape {self.shape} != {other.shape}")
        a = self if self.has_sorted_indices() else self.sort_indices()
        b = other if other.has_sorted_indices() else other.sort_indices()
        return (
            bool(np.array_equal(a.indptr, b.indptr))
            and bool(np.array_equal(a.indices, b.indices))
            and bool(np.allclose(a.data, b.data, rtol=rtol, atol=atol))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

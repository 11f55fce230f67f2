"""Structural operations shared by the spGEMM schemes and the bench harness."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeMismatchError
from repro.kernels import check_key_space
from repro.sparse.csr import CSRMatrix

__all__ = [
    "check_multipliable",
    "scale",
    "spmv",
    "add",
]


def check_multipliable(a_shape: tuple[int, int], b_shape: tuple[int, int]) -> None:
    """Raise :class:`ShapeMismatchError` unless ``a_shape @ b_shape`` is defined
    and its output's flat coordinate keys fit in int64."""
    if a_shape[1] != b_shape[0]:
        raise ShapeMismatchError(
            f"cannot multiply {a_shape[0]}x{a_shape[1]} by {b_shape[0]}x{b_shape[1]}"
        )
    check_key_space(a_shape[0], b_shape[1])


def scale(m: CSRMatrix, factor: float) -> CSRMatrix:
    """Return ``factor * m`` as a new CSR matrix."""
    return CSRMatrix(m.shape, m.indptr.copy(), m.indices.copy(), m.data * float(factor))


def spmv(m: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product ``m @ x`` (used by examples, e.g. PageRank)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.n_cols,):
        raise ShapeMismatchError(f"vector length {x.shape} incompatible with {m.shape}")
    products = m.data * x[m.indices]
    out = np.zeros(m.n_rows, dtype=np.float64)
    row_of = np.repeat(np.arange(m.n_rows, dtype=np.int64), m.row_nnz())
    np.add.at(out, row_of, products)
    return out


def add(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Sparse matrix addition ``a + b``."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape {a.shape} != {b.shape}")
    from repro.sparse.coo import COOMatrix

    ca, cb = a.to_coo(), b.to_coo()
    merged = COOMatrix(
        a.shape,
        np.concatenate([ca.rows, cb.rows]),
        np.concatenate([ca.cols, cb.cols]),
        np.concatenate([ca.vals, cb.vals]),
    )
    return merged.to_csr()

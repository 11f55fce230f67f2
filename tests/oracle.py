"""The suite's one numeric oracle: scipy's product, compared bit for bit.

The kernel sums each output entry's products from +0.0 in ascending (tie
rank, expansion position): ascending k in pair order; in row order, the
order in which A's row stores its columns.  scipy's ``A @ B`` sums them in
A's stored order.  So every scheme's product is scipy's bit for bit, with
the inner index permuted as the plan sums (:func:`tie_rank`) and the
library's explicit zeros dropped (:func:`drop_zeros`), since scipy stores
no entry that sums to exactly zero.  scipy is imported at module top:
without the test extra the suite errors instead of skipping its numeric
checks.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import kernels
from repro.sparse.csr import CSRMatrix
from repro.spgemm.base import DEFAULT_LOWERING_CONFIG, MultiplyContext

__all__ = [
    "assert_identical",
    "assert_scipy_product",
    "drop_zeros",
    "scipy_product",
    "tie_rank",
]


def scipy_product(a: CSRMatrix, b: CSRMatrix, rank: np.ndarray | None = None) -> CSRMatrix:
    """scipy's ``a @ b`` with sorted indices (it drops exact zeros).

    scipy adds each entry's products in the order A's row stores them.
    Given a per-pair tie ``rank``, this multiplies ``A[:, p]`` (rows sorted)
    by ``B[p, :]`` instead, ``p`` the stable argsort of the rank: the sum in
    ascending (tie rank, k).
    """
    left = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    right = sp.csr_matrix((b.data, b.indices, b.indptr), shape=b.shape)
    if rank is not None:
        p = np.argsort(rank, kind="stable")
        left = left[:, p].tocsr()
        left.sort_indices()
        right = right[p, :].tocsr()
    c = (left @ right).tocsr()
    c.sort_indices()
    return CSRMatrix(c.shape, c.indptr, c.indices, c.data)


def tie_rank(algo, a: CSRMatrix, b: CSRMatrix) -> np.ndarray | None:
    """The per-pair rank that makes :func:`scipy_product` sum as ``algo``'s
    plan for ``a @ b`` does: the plan's tie rank; all zero for a pair-order
    plan without one, which sums in ascending k whatever order A's rows
    store their columns in; None for a row-order plan without one, which
    sums in stored order as scipy does.  (Only the Block Reorganizer's
    pair-order plans carry tie ranks.)"""
    ctx = MultiplyContext.build(a, b)
    plan = algo.lower(ctx, DEFAULT_LOWERING_CONFIG)
    rank = plan.tie_rank(len(ctx.pair_work))
    if rank is None and plan.order == kernels.PAIR_ORDER:
        rank = np.zeros(len(ctx.pair_work), dtype=np.int64)
    return rank


def drop_zeros(m: CSRMatrix) -> CSRMatrix:
    """``m`` without its stored zeros (+0.0 and -0.0)."""
    keep = m.data != 0.0
    row_of = np.repeat(np.arange(m.n_rows), m.row_nnz())[keep]
    indptr = np.zeros(m.n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=m.n_rows), out=indptr[1:])
    return CSRMatrix(m.shape, indptr, m.indices[keep], m.data[keep])


def assert_identical(got: CSRMatrix, want: CSRMatrix) -> None:
    """Same shape, and the same dtype and bits in all three arrays."""
    assert tuple(got.shape) == tuple(want.shape)
    for field in ("indptr", "indices", "data"):
        x, y = getattr(got, field), getattr(want, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field


def assert_scipy_product(c: CSRMatrix, a: CSRMatrix, b: CSRMatrix, algo=None) -> None:
    """``c`` is ``a @ b`` as ``algo`` sums it: scipy's product, permuted by
    the plan's tie rank (unpermuted without ``algo``), explicit zeros
    dropped."""
    rank = None if algo is None else tie_rank(algo, a, b)
    assert_identical(drop_zeros(c), scipy_product(a, b, rank))

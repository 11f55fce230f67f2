"""Numeric engine tests: expansion orders and merge correctness."""

import numpy as np
import pytest

from repro import kernels
from repro.errors import ShapeMismatchError
from repro.sparse.csr import CSRMatrix
from repro.spgemm.expansion import expand_outer
from repro.spgemm.merge import merge_triplets, symbolic_row_nnz


def expand_row(a, b):
    """Row-order triplets with values: the walk over A's entries in CSR order."""
    counts = b.row_nnz()[a.indices]
    b_idx = kernels.expand_entries(b.indptr[a.indices], counts)
    rows = np.repeat(np.repeat(np.arange(a.n_rows), a.row_nnz()), counts)
    return rows, b.indices[b_idx], np.repeat(a.data, counts) * b.data[b_idx]


class TestExpandOuter:
    def test_triplet_count(self, square_csr):
        a_csc = square_csr.to_csc()
        rows, cols, vals = expand_outer(a_csc, square_csr)
        expected = int((a_csc.col_nnz() * square_csr.row_nnz()).sum())
        assert len(rows) == len(cols) == len(vals) == expected

    def test_matches_dense_product(self, square_csr):
        rows, cols, vals = expand_outer(square_csr.to_csc(), square_csr)
        c = merge_triplets(rows, cols, vals, (square_csr.n_rows, square_csr.n_cols))
        dense = square_csr.to_dense()
        assert np.allclose(c.to_dense(), dense @ dense)

    def test_pair_grouping_order(self):
        """Triplets come out grouped by inner index k."""
        a = CSRMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        rows, cols, vals = expand_outer(a.to_csc(), a)
        # First 4 products come from k=0 (column 0 x row 0), etc.
        assert len(rows) == 8
        k0 = set(zip(rows[:4].tolist(), cols[:4].tolist()))
        assert k0 == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_empty_matrix(self):
        empty = CSRMatrix.empty((4, 4))
        rows, cols, vals = expand_outer(empty.to_csc(), empty)
        assert len(rows) == 0

    def test_rectangular(self, rng):
        a = CSRMatrix.from_dense((rng.random((6, 9)) < 0.4) * rng.random((6, 9)))
        b = CSRMatrix.from_dense((rng.random((9, 5)) < 0.4) * rng.random((9, 5)))
        rows, cols, vals = expand_outer(a.to_csc(), b)
        c = merge_triplets(rows, cols, vals, (6, 5))
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense())


class TestExpandRow:
    def test_same_multiset_as_outer(self, square_csr):
        ro, co, vo = expand_outer(square_csr.to_csc(), square_csr)
        rr, cr, vr = expand_row(square_csr, square_csr)
        assert len(ro) == len(rr)
        # Same multiset of triplets in different order.
        def key(r, c, v):
            return np.lexsort((v, c, r))

        oo, orr = key(ro, co, vo), key(rr, cr, vr)
        assert np.array_equal(ro[oo], rr[orr])
        assert np.array_equal(co[oo], cr[orr])
        assert np.allclose(vo[oo], vr[orr])

    def test_row_grouping_order(self, square_csr):
        rows, _, _ = expand_row(square_csr, square_csr)
        assert np.all(np.diff(rows) >= 0)  # grouped by output row

    def test_matches_dense_product(self, square_csr):
        rows, cols, vals = expand_row(square_csr, square_csr)
        c = merge_triplets(rows, cols, vals, square_csr.shape)
        dense = square_csr.to_dense()
        assert np.allclose(c.to_dense(), dense @ dense)


class TestMerge:
    def test_coalesces_duplicates(self):
        rows = np.array([0, 0, 1])
        cols = np.array([1, 1, 0])
        vals = np.array([2.0, 3.0, 4.0])
        c = merge_triplets(rows, cols, vals, (2, 2))
        assert c.nnz == 2
        assert c.to_dense()[0, 1] == pytest.approx(5.0)

    def test_keeps_explicit_zeros_by_default(self):
        rows = np.array([0, 0])
        cols = np.array([0, 0])
        vals = np.array([1.0, -1.0])
        assert merge_triplets(rows, cols, vals, (1, 1)).nnz == 1

    def test_empty(self):
        z = np.zeros(0, dtype=np.int64)
        c = merge_triplets(z, z, np.zeros(0), (3, 3))
        assert c.nnz == 0
        c.validate()

    def test_out_of_range_rejected(self):
        """Too large, and negative (which a flat key would alias into range)."""
        for row, col, shape in ((5, 0, (2, 2)), (1, -1, (2, 3)), (-1, 0, (2, 3))):
            with pytest.raises(ShapeMismatchError):
                merge_triplets(np.array([row]), np.array([col]), np.array([5.0]), shape)

    def test_output_canonical(self, square_csr):
        rows, cols, vals = expand_outer(square_csr.to_csc(), square_csr)
        c = merge_triplets(rows, cols, vals, square_csr.shape)
        c.validate()
        assert c.has_sorted_indices()

    def test_symbolic_row_nnz(self, square_csr):
        rows, cols, vals = expand_outer(square_csr.to_csc(), square_csr)
        c = merge_triplets(rows, cols, vals, square_csr.shape)
        assert np.array_equal(symbolic_row_nnz(square_csr, square_csr), c.row_nnz())

    def test_row_nnz_empty(self):
        a = CSRMatrix.empty((3, 3))
        assert np.array_equal(symbolic_row_nnz(a, a), np.zeros(3, np.int64))

    def test_large_dimension_no_overflow(self):
        """Keys use int64: coordinates near 250k x 250k must not collide."""
        n = 250_000
        rows = np.array([n - 1, n - 2])
        cols = np.array([n - 1, n - 1])
        c = merge_triplets(rows, cols, np.array([1.0, 2.0]), (n, n))
        assert c.nnz == 2

"""The numeric kernel's two steps: the expansion orders and the merge.

:func:`repro.kernels.spgemm` expands A's stored entries in pair order
(outer product: grouped by inner index k) or row order (Gustavson: grouped
by output row) and merges each row block's products into canonical CSR;
its gathers record the walk, so the tests read the order off them.
:func:`repro.kernels.coalesce` is the same merge over a caller's triplets,
and :func:`repro.kernels.row_nnz` the symbolic pass.  Products are checked
against scipy bit for bit.
"""

import numpy as np
import pytest

from repro import kernels
from repro.errors import SparseFormatError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

from .oracle import assert_identical, assert_scipy_product, scipy_product


def _product(a, b, order) -> tuple[CSRMatrix, tuple]:
    """The kernel's ``a @ b`` in ``order`` and its gathers."""
    indptr, indices, data, gathers = kernels.spgemm(a, b, order, gathers=True)
    return CSRMatrix((a.n_rows, b.n_cols), indptr, indices, data), gathers


def _walked_pairs(a, gathers) -> np.ndarray:
    """``(row, stored entry of A, stored entry of B)`` of each product, in
    stream order."""
    a_entries, counts, b_gather, _ = gathers
    row_of = np.repeat(np.arange(a.n_rows), a.row_nnz())
    entry = np.repeat(a_entries, counts)
    return np.stack([row_of[entry], entry, b_gather])


class TestExpandOuter:
    def test_triplet_count(self, square_csr):
        _, (a_entries, counts, b_gather, group) = _product(
            square_csr, square_csr, kernels.PAIR_ORDER
        )
        expected = int((square_csr.to_csc().col_nnz() * square_csr.row_nnz()).sum())
        assert counts.sum() == len(b_gather) == len(group) == expected
        assert len(a_entries) == square_csr.nnz

    def test_matches_dense_product(self, square_csr):
        c, _ = _product(square_csr, square_csr, kernels.PAIR_ORDER)
        assert_scipy_product(c, square_csr, square_csr)

    def test_pair_grouping_order(self):
        """Products come out grouped by inner index k."""
        a = CSRMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        _, gathers = _product(a, a, kernels.PAIR_ORDER)
        # A's column 0 (its entries 0 and 2, by row), then column 1.
        assert gathers[0].tolist() == [0, 2, 1, 3]
        # The first 4 products (k = 0: column 0 x row 0) reach every entry of C.
        rows, _, b_entries = _walked_pairs(a, gathers)[:, :4]
        cells = set(zip(rows.tolist(), a.indices[b_entries].tolist()))
        assert cells == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert sorted(gathers[3][:4].tolist()) == [0, 1, 2, 3]

    def test_empty_matrix(self):
        empty = CSRMatrix.empty((4, 4))
        c, gathers = _product(empty, empty, kernels.PAIR_ORDER)
        assert c.nnz == 0 and c.indptr.tolist() == [0] * 5
        assert all(len(g) == 0 for g in gathers)

    def test_rectangular(self, rng):
        a = CSRMatrix.from_dense((rng.random((6, 9)) < 0.4) * rng.random((6, 9)))
        b = CSRMatrix.from_dense((rng.random((9, 5)) < 0.4) * rng.random((9, 5)))
        c, _ = _product(a, b, kernels.PAIR_ORDER)
        assert c.shape == (6, 5)
        assert_scipy_product(c, a, b)


class TestExpandRow:
    def test_same_multiset_as_outer(self, square_csr):
        """Both orders form the same products, in a different order, and
        on sorted rows sum them to the same bits."""
        outer, pair_gathers = _product(square_csr, square_csr, kernels.PAIR_ORDER)
        row, row_gathers = _product(square_csr, square_csr, kernels.ROW_ORDER)
        walked_outer = _walked_pairs(square_csr, pair_gathers)
        walked_row = _walked_pairs(square_csr, row_gathers)
        assert walked_outer.shape == walked_row.shape
        assert not np.array_equal(walked_outer, walked_row)
        for walked in (walked_outer, walked_row):
            walked[:] = walked[:, np.lexsort(walked[::-1])]
        np.testing.assert_array_equal(walked_outer, walked_row)
        assert_identical(outer, row)

    def test_row_grouping_order(self, square_csr):
        _, gathers = _product(square_csr, square_csr, kernels.ROW_ORDER)
        rows = _walked_pairs(square_csr, gathers)[0]
        assert np.all(np.diff(rows) >= 0)  # grouped by output row

    def test_matches_dense_product(self, square_csr):
        c, _ = _product(square_csr, square_csr, kernels.ROW_ORDER)
        assert_scipy_product(c, square_csr, square_csr)


class TestMerge:
    def test_coalesces_duplicates(self):
        rows = np.array([0, 0, 1])
        cols = np.array([1, 1, 0])
        vals = np.array([2.0, 3.0, 4.0])
        indptr, indices, data = kernels.coalesce(rows, cols, vals, (2, 2))
        assert indptr.tolist() == [0, 1, 2]
        assert indices.tolist() == [1, 0] and data.tolist() == [5.0, 4.0]

    def test_keeps_explicit_zeros_by_default(self):
        """Sums that cancel stay stored, in a caller's triplets and in a
        product (GPU merge kernels keep them too)."""
        indptr, indices, data = kernels.coalesce(
            np.array([0, 0]), np.array([0, 0]), np.array([1.0, -1.0]), (1, 1)
        )
        assert indptr.tolist() == [0, 1] and data.tolist() == [0.0]
        a = CSRMatrix((1, 2), [0, 2], [0, 1], [1.0, 1.0])
        b = CSRMatrix((2, 1), [0, 1, 2], [0, 0], [1.0, -1.0])
        for order in (kernels.PAIR_ORDER, kernels.ROW_ORDER):
            c, _ = _product(a, b, order)
            assert c.nnz == 1 and c.data.tolist() == [0.0]

    def test_empty(self):
        z = np.zeros(0, dtype=np.int64)
        c = CSRMatrix((3, 3), *kernels.coalesce(z, z, np.zeros(0), (3, 3)))
        assert c.nnz == 0
        c.validate()

    def test_out_of_range_rejected(self):
        """Too large, and negative (which a flat key would alias into
        range): triplets are range-checked before they reach the merge."""
        for row, col, shape in ((5, 0, (2, 2)), (1, -1, (2, 3)), (-1, 0, (2, 3))):
            coo = COOMatrix(shape, np.array([row]), np.array([col]), np.array([5.0]))
            for convert in (coo.to_csr, coo.to_csc, coo.coalesce):
                with pytest.raises(SparseFormatError, match="out of range"):
                    convert()

    def test_output_canonical(self, square_csr):
        for order in (kernels.PAIR_ORDER, kernels.ROW_ORDER):
            c, _ = _product(square_csr, square_csr, order)
            c.validate()
            assert c.has_sorted_indices()

    def test_row_nnz_counts_the_merged_entries(self, square_csr, rng):
        """The symbolic pass counts the merged product's entries per row,
        on square and rectangular operands (positive values never cancel,
        so scipy stores them all)."""
        b = CSRMatrix.from_dense((rng.random((60, 7)) < 0.3) * rng.random((60, 7)))
        for right in (square_csr, b):
            counts = kernels.row_nnz(square_csr, right)
            np.testing.assert_array_equal(counts, scipy_product(square_csr, right).row_nnz())
            c, _ = _product(square_csr, right, kernels.PAIR_ORDER)
            np.testing.assert_array_equal(counts, c.row_nnz())

    def test_row_nnz_empty(self):
        """No stored entries, square or rectangular: no entries counted."""
        for shape_a, shape_b in (((3, 3), (3, 3)), ((3, 5), (5, 2)), ((0, 4), (4, 6))):
            a, b = CSRMatrix.empty(shape_a), CSRMatrix.empty(shape_b)
            np.testing.assert_array_equal(kernels.row_nnz(a, b), np.zeros(shape_a[0], np.int64))

    def test_large_dimension_no_overflow(self):
        """Keys use int64: coordinates near 250k x 250k must not collide, in
        a caller's triplets or in a product."""
        n = 250_000
        rows = np.array([n - 1, n - 2])
        cols = np.array([n - 1, n - 1])
        indptr, indices, _ = kernels.coalesce(rows, cols, np.array([1.0, 2.0]), (n, n))
        assert len(indices) == 2 and indptr[-1] == 2
        a = CSRMatrix((n, n), np.r_[np.zeros(n - 1, int), 1, 2], [n - 1, n - 1], [1.0, 2.0])
        b = CSRMatrix((n, n), np.r_[np.zeros(n, int), 1], [n - 1], [3.0])
        for order in (kernels.PAIR_ORDER, kernels.ROW_ORDER):
            c, _ = _product(a, b, order)
            assert c.nnz == 2 and c.indices.tolist() == [n - 1, n - 1]
            assert c.data.tolist() == [3.0, 6.0]

"""Unit tests for the CSR format."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.sparse.csr import CSRMatrix


class TestConstruction:
    def test_from_dense_roundtrip(self, small_dense):
        assert np.allclose(CSRMatrix.from_dense(small_dense).to_dense(), small_dense)

    def test_empty(self):
        m = CSRMatrix.empty((4, 6))
        assert m.nnz == 0
        assert len(m.indptr) == 5
        m.validate()

    def test_identity(self):
        eye = CSRMatrix.identity(5)
        assert np.allclose(eye.to_dense(), np.eye(5))
        eye.validate()

    def test_row_access(self, small_dense):
        m = CSRMatrix.from_dense(small_dense)
        for i in range(m.n_rows):
            cols, vals = m.row(i)
            dense_row = np.zeros(m.n_cols)
            dense_row[cols] = vals
            assert np.allclose(dense_row, small_dense[i])

    def test_row_nnz(self, small_dense):
        m = CSRMatrix.from_dense(small_dense)
        assert np.array_equal(m.row_nnz(), (small_dense != 0).sum(axis=1))


class TestValidation:
    def test_bad_indptr_length(self):
        with pytest.raises(SparseFormatError, match="indptr length"):
            CSRMatrix((3, 3), np.zeros(3, np.int64), np.zeros(0, np.int64), np.zeros(0)).validate()

    def test_indptr_not_starting_at_zero(self):
        m = CSRMatrix((1, 3), np.array([1, 1]), np.zeros(0, np.int64), np.zeros(0))
        with pytest.raises(SparseFormatError, match="indptr\\[0\\]"):
            m.validate()

    def test_indptr_end_mismatch(self):
        m = CSRMatrix((1, 3), np.array([0, 2]), np.array([0]), np.array([1.0]))
        with pytest.raises(SparseFormatError, match="indptr\\[-1\\]"):
            m.validate()

    def test_decreasing_indptr(self):
        m = CSRMatrix(
            (3, 3), np.array([0, 2, 1, 2]), np.array([0, 1]), np.array([1.0, 2.0])
        )
        with pytest.raises(SparseFormatError, match="non-decreasing"):
            m.validate()

    def test_column_out_of_range(self):
        m = CSRMatrix((1, 2), np.array([0, 1]), np.array([5]), np.array([1.0]))
        with pytest.raises(SparseFormatError, match="column index"):
            m.validate()

    def test_non_finite(self):
        m = CSRMatrix((1, 2), np.array([0, 1]), np.array([0]), np.array([np.inf]))
        with pytest.raises(SparseFormatError, match="non-finite"):
            m.validate()

    def test_duplicate_columns_rejected(self):
        m = CSRMatrix((2, 3), np.array([0, 3, 4]), np.array([0, 1, 1, 2]), np.ones(4))
        with pytest.raises(SparseFormatError, match="duplicate column indices within row 0"):
            m.validate()

    def test_duplicate_reports_offending_row(self):
        m = CSRMatrix((3, 3), np.array([0, 1, 1, 3]), np.array([2, 0, 0]), np.ones(3))
        with pytest.raises(SparseFormatError, match="row 2"):
            m.validate()

    def test_shape_beyond_int64_keys_rejected(self):
        """5 x 2**62 flat keys wrap in int64: (4, 0) would collide with (0, 0)."""
        m = CSRMatrix((5, 2**62), [0, 1, 1, 1, 1, 2], [0, 0], [1.0, 2.0])
        with pytest.raises(SparseFormatError, match="2\\*\\*63"):
            m.validate()

    def test_sum_duplicates_canonicalises(self):
        m = CSRMatrix(
            (2, 3), np.array([0, 3, 4]), np.array([1, 0, 1, 2]),
            np.array([1.0, 2.0, 3.0, 4.0]),
        )
        dense = m.to_dense()  # np.add.at sums the duplicates
        s = m.sum_duplicates()
        s.validate()
        assert s.nnz == 3
        assert np.allclose(s.to_dense(), dense)


class TestSorting:
    def test_sorted_after_conversion(self, small_csr):
        assert small_csr.has_sorted_indices()

    def test_unsorted_detected_and_fixed(self):
        m = CSRMatrix((1, 4), np.array([0, 3]), np.array([2, 0, 1]), np.array([1.0, 2.0, 3.0]))
        assert not m.has_sorted_indices()
        s = m.sort_indices()
        assert s.has_sorted_indices()
        assert np.allclose(s.to_dense(), m.to_dense())

    def test_trailing_empty_rows(self):
        # Regression: boundary handling when the last rows are empty.
        m = CSRMatrix((3, 3), np.array([0, 2, 2, 2]), np.array([0, 1]), np.array([1.0, 2.0]))
        assert m.has_sorted_indices()

    def test_single_entry(self):
        m = CSRMatrix((1, 1), np.array([0, 1]), np.array([0]), np.array([1.0]))
        assert m.has_sorted_indices()


class TestTransforms:
    def test_transpose(self, small_csr, small_dense):
        assert np.allclose(small_csr.transpose().to_dense(), small_dense.T)

    def test_transpose_twice_identity(self, small_csr):
        assert small_csr.transpose().transpose().allclose(small_csr)

    def test_to_coo_roundtrip(self, small_csr):
        assert small_csr.to_coo().to_csr().allclose(small_csr)

    def test_to_csc_roundtrip(self, small_csr):
        assert small_csr.to_csc().to_csr().allclose(small_csr)

    def test_allclose_shape_mismatch(self, small_csr):
        with pytest.raises(ShapeMismatchError):
            small_csr.allclose(CSRMatrix.empty((1, 1)))

    def test_allclose_tolerance(self, small_csr):
        near = CSRMatrix(small_csr.shape, small_csr.indptr.copy(),
                       small_csr.indices.copy(), small_csr.data * (1 + 1e-12))
        assert small_csr.allclose(near)

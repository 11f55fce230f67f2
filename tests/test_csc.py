"""Unit tests for the CSC format."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.sparse.csc import CSCMatrix


class TestConstruction:
    def test_from_dense_roundtrip(self, small_dense):
        assert np.allclose(CSCMatrix.from_dense(small_dense).to_dense(), small_dense)

    def test_empty(self):
        m = CSCMatrix.empty((4, 6))
        assert m.nnz == 0
        assert len(m.indptr) == 7
        m.validate()

    def test_col_access(self, small_dense):
        m = CSCMatrix.from_dense(small_dense)
        for j in range(m.n_cols):
            rows, vals = m.col(j)
            dense_col = np.zeros(m.n_rows)
            dense_col[rows] = vals
            assert np.allclose(dense_col, small_dense[:, j])

    def test_col_nnz(self, small_dense):
        m = CSCMatrix.from_dense(small_dense)
        assert np.array_equal(m.col_nnz(), (small_dense != 0).sum(axis=0))


class TestValidation:
    def test_bad_indptr_length(self):
        m = CSCMatrix((3, 3), np.zeros(3, np.int64), np.zeros(0, np.int64), np.zeros(0))
        with pytest.raises(SparseFormatError, match="indptr length"):
            m.validate()

    def test_row_out_of_range(self):
        m = CSCMatrix((2, 1), np.array([0, 1]), np.array([7]), np.array([1.0]))
        with pytest.raises(SparseFormatError, match="row index"):
            m.validate()

    def test_end_mismatch(self):
        m = CSCMatrix((3, 1), np.array([0, 5]), np.array([0]), np.array([1.0]))
        with pytest.raises(SparseFormatError, match="indptr\\[-1\\]"):
            m.validate()

    def test_non_finite(self):
        m = CSCMatrix((2, 1), np.array([0, 1]), np.array([0]), np.array([-np.inf]))
        with pytest.raises(SparseFormatError, match="non-finite"):
            m.validate()

    def test_duplicate_rows_rejected(self):
        m = CSCMatrix((3, 2), np.array([0, 3, 4]), np.array([0, 1, 1, 2]), np.ones(4))
        with pytest.raises(SparseFormatError, match="duplicate row indices within column 0"):
            m.validate()

    def test_shape_beyond_int64_keys_rejected(self):
        m = CSCMatrix((2**62, 5), [0, 1, 1, 1, 1, 2], [0, 0], [1.0, 2.0])
        with pytest.raises(SparseFormatError, match="2\\*\\*63"):
            m.validate()

    def test_sum_duplicates_canonicalises(self):
        m = CSCMatrix(
            (3, 2), np.array([0, 3, 4]), np.array([1, 0, 1, 2]),
            np.array([1.0, 2.0, 3.0, 4.0]),
        )
        dense = m.to_dense()  # np.add.at sums the duplicates
        s = m.sum_duplicates()
        s.validate()
        assert s.nnz == 3
        assert np.allclose(s.to_dense(), dense)


class TestTransforms:
    def test_transpose(self, small_dense):
        m = CSCMatrix.from_dense(small_dense)
        assert np.allclose(m.transpose().to_dense(), small_dense.T)

    def test_to_coo_roundtrip(self, small_dense):
        m = CSCMatrix.from_dense(small_dense)
        assert np.allclose(m.to_coo().to_dense(), small_dense)

    def test_to_csr_roundtrip(self, small_dense):
        m = CSCMatrix.from_dense(small_dense)
        assert np.allclose(m.to_csr().to_dense(), small_dense)

    def test_allclose(self, small_dense):
        a = CSCMatrix.from_dense(small_dense)
        b = CSCMatrix.from_dense(small_dense)
        assert a.allclose(b)

    def test_allclose_shape_mismatch(self, small_dense):
        a = CSCMatrix.from_dense(small_dense)
        with pytest.raises(ShapeMismatchError):
            a.allclose(CSCMatrix.empty((1, 1)))

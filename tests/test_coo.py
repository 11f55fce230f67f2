"""Unit tests for the COO format."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.sparse.coo import COOMatrix


class TestConstruction:
    def test_from_dense_roundtrip(self, small_dense):
        coo = COOMatrix.from_dense(small_dense)
        assert np.allclose(coo.to_dense(), small_dense)

    def test_from_dense_drops_zeros(self, small_dense):
        coo = COOMatrix.from_dense(small_dense)
        assert coo.nnz == np.count_nonzero(small_dense)
        assert np.all(coo.vals != 0.0)

    def test_empty(self):
        coo = COOMatrix.empty((5, 7))
        assert coo.nnz == 0
        assert coo.shape == (5, 7)
        assert coo.to_dense().shape == (5, 7)

    def test_component_length_mismatch_raises(self):
        with pytest.raises(SparseFormatError, match="lengths differ"):
            COOMatrix((2, 2), np.array([0]), np.array([0, 1]), np.array([1.0]))

    def test_non_1d_raises(self):
        with pytest.raises(SparseFormatError, match="1-D"):
            COOMatrix((2, 2), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))

    def test_from_dense_rejects_1d(self):
        with pytest.raises(SparseFormatError, match="2-D"):
            COOMatrix.from_dense(np.ones(4))

    def test_dtype_normalisation(self):
        coo = COOMatrix((2, 2), np.array([0], np.int32), np.array([1], np.int16),
                        np.array([2], np.float32))
        assert coo.rows.dtype == np.int64
        assert coo.cols.dtype == np.int64
        assert coo.vals.dtype == np.float64


class TestValidation:
    def test_validate_ok(self, small_coo):
        small_coo.validate()

    def test_row_out_of_range(self):
        coo = COOMatrix((2, 2), np.array([2]), np.array([0]), np.array([1.0]))
        with pytest.raises(SparseFormatError, match="row index"):
            coo.validate()

    def test_negative_col(self):
        coo = COOMatrix((2, 2), np.array([0]), np.array([-1]), np.array([1.0]))
        with pytest.raises(SparseFormatError, match="column index"):
            coo.validate()

    def test_non_finite_value(self):
        coo = COOMatrix((2, 2), np.array([0]), np.array([0]), np.array([np.nan]))
        with pytest.raises(SparseFormatError, match="non-finite"):
            coo.validate()

    def test_negative_shape(self):
        with pytest.raises(SparseFormatError, match="negative"):
            COOMatrix((-1, 2), np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))


class TestCoalesce:
    def test_sums_duplicates(self):
        coo = COOMatrix(
            (3, 3),
            np.array([1, 1, 0]),
            np.array([2, 2, 0]),
            np.array([1.0, 2.5, 4.0]),
        )
        out = coo.coalesce()
        assert out.nnz == 2
        dense = out.to_dense()
        assert dense[1, 2] == pytest.approx(3.5)
        assert dense[0, 0] == pytest.approx(4.0)

    def test_sorted_output(self, rng):
        n = 50
        coo = COOMatrix(
            (20, 20),
            rng.integers(0, 20, n),
            rng.integers(0, 20, n),
            rng.random(n),
        )
        out = coo.coalesce()
        keys = out.rows * 20 + out.cols
        assert np.all(np.diff(keys) > 0)

    def test_drop_zeros(self):
        coo = COOMatrix((2, 2), np.array([0, 0]), np.array([1, 1]), np.array([1.0, -1.0]))
        assert coo.coalesce(drop_zeros=True).nnz == 0
        assert coo.coalesce(drop_zeros=False).nnz == 1

    def test_shape_beyond_int64_keys_rejected(self):
        """Row 4's entry must not fold into row 0 through a wrapped key."""
        coo = COOMatrix((5, 2**62), rows=[0, 4], cols=[0, 0], vals=[1.0, 2.0])
        with pytest.raises(ShapeMismatchError, match="int64"):
            coo.to_csr()

    def test_empty_coalesce(self):
        assert COOMatrix.empty((3, 3)).coalesce().nnz == 0

    @pytest.mark.parametrize("row, col", [(0, 3), (0, -1), (2, 0), (-1, 0)])
    def test_out_of_range_coordinate_rejected(self, row, col):
        """Column 3 of a 2 x 3 matrix must not fold into row 1's column 0,
        and a negative index must not reach the merge."""
        coo = COOMatrix((2, 3), rows=[row, 1], cols=[col, 0], vals=[1.0, 2.0])
        with pytest.raises(SparseFormatError, match="out of range"):
            coo.coalesce()
        with pytest.raises(SparseFormatError, match="out of range"):
            coo.allclose(coo)

    def test_preserves_total_sum(self, rng):
        n = 200
        coo = COOMatrix(
            (15, 15), rng.integers(0, 15, n), rng.integers(0, 15, n), rng.random(n)
        )
        assert coo.coalesce(drop_zeros=False).vals.sum() == pytest.approx(coo.vals.sum())


class TestTransforms:
    def test_transpose(self, small_coo, small_dense):
        assert np.allclose(small_coo.transpose().to_dense(), small_dense.T)

    def test_transpose_shape(self):
        coo = COOMatrix.empty((3, 7))
        assert coo.transpose().shape == (7, 3)

    def test_allclose_self(self, small_coo):
        assert small_coo.allclose(small_coo)

    def test_allclose_detects_difference(self, small_coo):
        other = COOMatrix(
            small_coo.shape, small_coo.rows.copy(), small_coo.cols.copy(),
            small_coo.vals * 1.001,
        )
        assert not small_coo.allclose(other)

    def test_allclose_shape_mismatch(self, small_coo):
        with pytest.raises(ShapeMismatchError):
            small_coo.allclose(COOMatrix.empty((1, 1)))

    def test_allclose_ignores_entry_order(self, small_coo):
        perm = np.random.default_rng(0).permutation(small_coo.nnz)
        shuffled = COOMatrix(
            small_coo.shape, small_coo.rows[perm], small_coo.cols[perm], small_coo.vals[perm]
        )
        assert small_coo.allclose(shuffled)

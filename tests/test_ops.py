"""Tests for structural operations (workload precalculation etc.)."""

import numpy as np
import pytest

from repro import kernels
from repro.errors import ShapeMismatchError
from repro.plan.estimate import multiply_flops, row_flops
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import add, check_multipliable, scale, spmv
from repro.spgemm.base import MultiplyContext


class TestShapeChecks:
    def test_compatible(self):
        check_multipliable((3, 4), (4, 5))

    def test_incompatible(self):
        with pytest.raises(ShapeMismatchError):
            check_multipliable((3, 4), (5, 4))


class TestExpansionWork:
    def test_pair_work_matches_definition(self, square_csr):
        """The context's pair work, counted from CSR, is the CSC definition."""
        a_csc = square_csr.to_csc()
        work = MultiplyContext.build(square_csr).pair_work
        expected = a_csc.col_nnz() * square_csr.row_nnz()
        assert np.array_equal(work, expected)

    def test_total_equals_expansion_size(self, square_csr):
        """nnz(C-hat) must equal the number of products the kernel forms
        (one gathered entry of B per product)."""
        for order in (kernels.PAIR_ORDER, kernels.ROW_ORDER):
            gathers = kernels.spgemm(square_csr, square_csr, order, gathers=True)[3]
            assert multiply_flops(square_csr, square_csr) == len(gathers[2])

    def test_row_work_sums_to_total(self, square_csr):
        total = multiply_flops(square_csr, square_csr)
        assert row_flops(square_csr, square_csr).sum() == total

    def test_row_work_per_row(self):
        # A = [[1, 1], [0, 1]]; B rows have 2 and 1 entries.
        a = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
        work = row_flops(a, a)
        # row 0 of C: uses B rows 0 (2 entries) and 1 (1 entry) -> 3.
        assert work[0] == 3
        # row 1 of C: uses B row 1 -> 1.
        assert work[1] == 1


class TestArithmetic:
    def test_scale(self, small_csr):
        assert np.allclose(scale(small_csr, 2.5).to_dense(), 2.5 * small_csr.to_dense())

    def test_spmv(self, square_csr, rng):
        x = rng.random(square_csr.n_cols)
        assert np.allclose(spmv(square_csr, x), square_csr.to_dense() @ x)

    def test_spmv_shape_mismatch(self, square_csr):
        with pytest.raises(ShapeMismatchError):
            spmv(square_csr, np.ones(square_csr.n_cols + 1))

    def test_add(self, small_csr):
        out = add(small_csr, small_csr)
        assert np.allclose(out.to_dense(), 2.0 * small_csr.to_dense())

    def test_add_shape_mismatch(self, small_csr):
        with pytest.raises(ShapeMismatchError):
            add(small_csr, CSRMatrix.empty((1, 1)))

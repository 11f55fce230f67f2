"""The numeric primitives in :mod:`repro.kernels`.

Checks that the spgemm wrappers return exactly what the kernels compute,
that the merge's segmented sum and replay's gather-multiply-sum agree bit
for bit, and the merge's edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.sparse.convert import csr_to_csc
from repro.spgemm.expansion import expand_outer_indices, expand_row_indices
from repro.spgemm.merge import plan_merge

from .conftest import random_csr


@pytest.fixture()
def matrices():
    rng = np.random.default_rng(321)
    a = random_csr(rng, 50, 40, 0.12)
    b = random_csr(rng, 40, 35, 0.15)
    return a, b


class TestRegistry:
    def test_default_is_numpy(self):
        assert kernels.active_name() == "numpy"


class TestNumpyBackendParity:
    """The kernels equal what the spgemm wrappers return, bit for bit."""

    def test_expansions_match_spgemm(self, matrices):
        a, b = matrices
        a_csc = csr_to_csc(a)
        ref = expand_outer_indices(a_csc, b)
        got = kernels.expand_outer_indices(
            a_csc.indptr, a_csc.indices, b.indptr, b.indices
        )
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(np.asarray(r), np.asarray(g))
        ref = expand_row_indices(a, b)
        got = kernels.expand_row_indices(a.indptr, a.indices, b.indptr, b.indices)
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(np.asarray(r), np.asarray(g))

    def test_merge_and_sums_match_spgemm(self, matrices):
        a, b = matrices
        rows, cols, a_idx, b_idx = expand_row_indices(a, b)
        recipe = plan_merge(rows, cols, (a.n_rows, b.n_cols))
        order, group, n_groups, indptr, indices = kernels.merge_symbolic(
            rows, cols, a.n_rows, b.n_cols
        )
        np.testing.assert_array_equal(recipe.order, order)
        np.testing.assert_array_equal(recipe.group, group)
        assert recipe.n_groups == n_groups
        np.testing.assert_array_equal(recipe.indptr, indptr)
        np.testing.assert_array_equal(recipe.indices, indices)

        vals = a.data[a_idx] * b.data[b_idx]
        np.testing.assert_array_equal(
            kernels.segmented_sum(vals, order, group, n_groups),
            recipe.apply(vals).data,
        )
        np.testing.assert_array_equal(
            kernels.gather_multiply_sum(
                a.data, b.data, a_idx[order], b_idx[order], group, n_groups
            ),
            recipe.apply(vals).data,
        )

    def test_empty_stream_merge(self):
        order, group, n_groups, indptr, indices = kernels.merge_symbolic(
            np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), 3, 3
        )
        assert n_groups == 1
        np.testing.assert_array_equal(indptr, [0, 1, 1, 1])

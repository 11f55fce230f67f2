"""The numeric primitives in :mod:`repro.kernels`.

Checks that the numeric kernel equals the merge of either expansion and
replays bit for bit from its own gathers, that the tie rank and the
expansion order decide the summation order, and the merge's edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.errors import ShapeMismatchError
from repro.sparse.convert import csr_to_csc
from repro.sparse.csr import CSRMatrix
from repro.spgemm.merge import merge_triplets

from .conftest import random_csr


@pytest.fixture()
def matrices():
    rng = np.random.default_rng(321)
    a = random_csr(rng, 50, 40, 0.12)
    b = random_csr(rng, 40, 35, 0.15)
    return a, b


def _identical(x: CSRMatrix, y: CSRMatrix) -> bool:
    return (
        x.indptr.tobytes() == y.indptr.tobytes()
        and x.indices.tobytes() == y.indices.tobytes()
        and x.data.tobytes() == y.data.tobytes()
    )


def _spgemm(a, b, order, rank=None) -> CSRMatrix:
    indptr, indices, data, _ = kernels.spgemm(a, b, order, rank)
    return CSRMatrix((a.n_rows, b.n_cols), indptr, indices, data)


#: One output entry fed by three pairs whose float64 sum depends on order:
#: (1e16 + 1) + 1 rounds to 1e16, (1 + 1) + 1e16 is exactly 1e16 + 2.
_BIG = 1e16


class TestRegistry:
    def test_default_is_numpy(self):
        assert kernels.active_name() == "numpy"


class TestNumpyBackendParity:
    """The kernel equals the merge of its own expansions, bit for bit."""

    def test_merge_and_sums_match_spgemm(self, matrices, monkeypatch):
        """In either order the kernel is the merge of that order's walk over
        A's entries, and its gathers replay to the same bits, also a few
        products at a time."""
        a, b = matrices
        shape = (a.n_rows, b.n_cols)
        default_chunk = kernels.REPLAY_PRODUCTS
        a_csc = csr_to_csc(a)
        walks = {
            # CSR order: row by row, each row's entries as stored.
            kernels.ROW_ORDER: (np.repeat(np.arange(a.n_rows), a.row_nnz()), a.indices, a.data),
            # CSC order: pair by pair, each column's entries by row.
            kernels.PAIR_ORDER: (
                a_csc.indices, np.repeat(np.arange(a.n_cols), a_csc.col_nnz()), a_csc.data
            ),
        }
        for order, (rows, ks, a_vals) in walks.items():
            counts = b.row_nnz()[ks]
            b_idx = kernels.expand_entries(b.indptr[ks], counts)
            want = merge_triplets(
                np.repeat(rows, counts),
                b.indices[b_idx],
                np.repeat(a_vals, counts) * b.data[b_idx],
                shape,
            )
            indptr, indices, data, gathers = kernels.spgemm(a, b, order, gathers=True)
            assert _identical(CSRMatrix(shape, indptr, indices, data), want)
            a_gather, b_gather, group = gathers
            for chunk in (default_chunk, 7):
                monkeypatch.setattr(kernels, "REPLAY_PRODUCTS", chunk)
                replayed = kernels.gather_reduce(
                    a.data, b.data, a_gather, b_gather, group, len(indices)
                )
                assert replayed.tobytes() == data.tobytes()

    def test_empty_stream_merge(self):
        block = kernels.RowBlock(start=0, stop=3, lo=0, hi=1, dense=False)
        one = kernels.Expansion(np.zeros(1, dtype=np.int64), np.ones(1), None, None, [block])
        indptr, indices, data, gathers = kernels.merge(one, (3, 3))
        assert len(indices) == 1 and gathers is None
        np.testing.assert_array_equal(indptr, [0, 1, 1, 1])
        a = CSRMatrix.empty((3, 4))
        indptr, indices, data, gathers = kernels.spgemm(
            a, CSRMatrix.empty((4, 2)), kernels.PAIR_ORDER, gathers=True
        )
        np.testing.assert_array_equal(indptr, [0, 0, 0, 0])
        assert len(indices) == len(data) == 0
        assert all(len(g) == 0 for g in gathers)


class TestSummationOrder:
    def _three_pairs(self, a_cols):
        """A is one row storing columns ``a_cols``; B maps pair k to 1e16, 1, 1."""
        a = CSRMatrix((1, 3), [0, 3], a_cols, [1.0, 1.0, 1.0])
        b = CSRMatrix((3, 1), [0, 1, 2, 3], [0, 0, 0], [_BIG, 1.0, 1.0])
        return a, b

    @pytest.mark.parametrize("order", [kernels.PAIR_ORDER, kernels.ROW_ORDER])
    def test_tie_rank_sums_lower_ranks_first(self, order):
        a, b = self._three_pairs([0, 1, 2])
        assert _spgemm(a, b, order).data[0] == _BIG
        assert _spgemm(a, b, order, np.zeros(3, dtype=np.int64)).data[0] == _BIG
        ranked = _spgemm(a, b, order, np.array([1, 0, 0]))
        assert ranked.data[0] == _BIG + 2

    def test_expansion_order_matters_when_rows_store_columns_out_of_order(self):
        """Pair order sums ascending k; row order sums in stored order."""
        a, b = self._three_pairs([1, 2, 0])
        assert _spgemm(a, b, kernels.PAIR_ORDER).data[0] == _BIG
        assert _spgemm(a, b, kernels.ROW_ORDER).data[0] == _BIG + 2

    def test_key_space_counts_tie_ranks(self):
        """2 x 2**62 keys fit in int64 exactly, with or without a tie rank:
        the rank orders the walk, not the keys."""
        a = CSRMatrix((2, 1), [0, 1, 2], [0, 0], [1.0, 2.0])
        b = CSRMatrix((1, 2**62), [0, 1], [2**62 - 1], [3.0])
        for rank in (None, np.array([1])):
            for order in (kernels.PAIR_ORDER, kernels.ROW_ORDER):
                c = _spgemm(a, b, order, rank)
                assert c.indptr.tolist() == [0, 1, 2] and c.data.tolist() == [3.0, 6.0]
                assert c.indices.tolist() == [2**62 - 1] * 2
        with pytest.raises(ShapeMismatchError, match="int64 key"):
            kernels.spgemm(CSRMatrix.empty((3, 1)), CSRMatrix.empty((1, 2**62)), "pairs")

    def test_unknown_order_rejected(self, matrices):
        a, b = matrices
        with pytest.raises(ValueError):
            kernels.spgemm(a, b, "diagonal")

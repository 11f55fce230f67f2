"""The numeric primitives in :mod:`repro.kernels`.

Checks that the numeric kernel in either order is scipy's product and
replays bit for bit from its own gathers, that its row blocks join to its
result, that the row cut is the greedy loop over rows, that the tie rank
and the expansion order decide the summation order, and the merge's edge
cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.errors import ShapeMismatchError
from repro.plan.estimate import row_flops
from repro.sparse.csr import CSRMatrix
from repro.sparse.random import power_law
from repro.spgemm.semiring import MAX_TIMES, MIN_PLUS, OR_AND

from .conftest import random_csr
from .oracle import assert_scipy_product


@pytest.fixture()
def matrices():
    rng = np.random.default_rng(321)
    a = random_csr(rng, 50, 40, 0.12)
    b = random_csr(rng, 40, 35, 0.15)
    return a, b


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
    """The kernel is scipy's product and replays to its own bits."""

    def test_merge_and_sums_match_spgemm(self, matrices, monkeypatch):
        """In either order the kernel is scipy's product (both sum each
        entry in ascending k on sorted rows), and its gathers replay to the
        same bits, also a few products at a time."""
        a, b = matrices
        shape = (a.n_rows, b.n_cols)
        default_chunk = kernels.REPLAY_PRODUCTS
        for order in (kernels.ROW_ORDER, kernels.PAIR_ORDER):
            indptr, indices, data, gathers = kernels.spgemm(a, b, order, gathers=True)
            assert_scipy_product(CSRMatrix(shape, indptr, indices, data), a, b)
            a_entries, counts, b_gather, group = gathers
            # A's side is one position and one product count per entry.
            assert len(a_entries) == len(counts) == a.nnz
            np.testing.assert_array_equal(np.sort(a_entries), np.arange(a.nnz))
            np.testing.assert_array_equal(counts, b.row_nnz()[a.indices[a_entries]])
            assert len(b_gather) == len(group) == counts.sum()
            for chunk in (default_chunk, 7):
                monkeypatch.setattr(kernels, "REPLAY_PRODUCTS", chunk)
                replayed = kernels.gather_reduce(a.data, b.data, *gathers, len(indices))
                assert replayed.tobytes() == data.tobytes()

    def test_empty_stream_merge(self):
        zero = np.zeros(1, dtype=np.int64)
        indptr, indices, data = kernels.coalesce(zero, zero, np.ones(1), (3, 3))
        assert len(indices) == 1
        np.testing.assert_array_equal(indptr, [0, 1, 1, 1])
        a = CSRMatrix.empty((3, 4))
        assert kernels.spgemm(a, CSRMatrix.empty((4, 2)), kernels.ROW_ORDER)[3] is None
        indptr, indices, data, gathers = kernels.spgemm(
            a, CSRMatrix.empty((4, 2)), kernels.PAIR_ORDER, gathers=True
        )
        np.testing.assert_array_equal(indptr, [0, 0, 0, 0])
        assert len(indices) == len(data) == 0
        assert all(len(g) == 0 for g in gathers)


class TestStream:
    """The kernel handles one row block at a time."""

    @pytest.mark.parametrize("order", [kernels.PAIR_ORDER, kernels.ROW_ORDER])
    def test_blocks_join_to_spgemm_and_time_both_steps(self, matrices, order, monkeypatch):
        """Under a small cut the stream yields ascending, contiguous blocks
        whose rows join to the kernel's result, and each step's time is
        summed over the blocks."""
        a, b = matrices
        monkeypatch.setattr(kernels, "BLOCK_PRODUCTS", 40)
        rank = np.arange(a.n_cols) % 3
        indptr, indices, data, _ = kernels.spgemm(a, b, order, rank)
        steps = {}
        parts = list(kernels.stream(a, b, order, rank, steps=steps))
        assert len(parts) > 1 and set(steps) == {"expansion", "merge"}
        assert all(seconds > 0 for seconds in steps.values())
        assert [blk.start for blk, *_ in parts] == [0] + [blk.stop for blk, *_ in parts[:-1]]
        assert parts[-1][0].stop == a.n_rows
        np.testing.assert_array_equal(np.concatenate([p[1] for p in parts]), np.diff(indptr))
        assert np.concatenate([p[2] for p in parts]).tobytes() == indices.tobytes()
        assert np.concatenate([p[3] for p in parts]).tobytes() == data.tobytes()


    @pytest.mark.parametrize("order", [kernels.PAIR_ORDER, kernels.ROW_ORDER])
    def test_b_without_columns(self, order):
        """A zero-column B gives an empty C of the right shape, and the
        symbolic pass counts no entries."""
        a = CSRMatrix((3, 2), [0, 1, 2, 2], [0, 1], [1.0, 2.0])
        b = CSRMatrix.empty((2, 0))
        indptr, indices, data, gathers = kernels.spgemm(a, b, order, gathers=True)
        np.testing.assert_array_equal(indptr, [0, 0, 0, 0])
        assert len(indices) == len(data) == len(gathers[2]) == 0
        np.testing.assert_array_equal(kernels.row_nnz(a, b), [0, 0, 0])


class TestRowBlocks:
    @pytest.mark.parametrize("divisor", [1, 3, 7, 50, 10**9])
    def test_cut_equals_the_greedy_row_loop(self, divisor):
        """Without ``n_cols``, each block takes rows while its work fits,
        and at least one row: the greedy loop over rows, kept here as the
        reference."""
        a = power_law(n=300, nnz=1500, seed=divisor % 97).to_csr()
        work = row_flops(a, a)
        budget = max(1, int(work.sum()) // divisor)
        want, lo, acc = [], 0, 0
        for i, w in enumerate(work.tolist()):
            if i > lo and acc + w > budget:
                want.append((lo, i, acc, acc > budget))
                lo, acc = i, 0
            acc += w
        want.append((lo, a.n_rows, acc, acc > budget))
        blocks = kernels.row_blocks(np.cumsum(work), max_products=budget)
        got = [(b.start, b.stop, b.hi - b.lo, b.hi - b.lo > budget) for b in blocks]
        assert got == want


def _replay_matches_kernel(a, b, order, **algebra):
    """The kernel's gathers replay, on A's and B's values, to its own bits."""
    indptr, indices, data, gathers = kernels.spgemm(a, b, order, gathers=True, **algebra)
    replayed = kernels.gather_reduce(a.data, b.data, *gathers, len(indices), **algebra)
    assert replayed.tobytes() == data.tobytes()
    return data


class TestCompactReplay:
    """Replay keeps A's side per stored entry and chunks whole entries."""

    @pytest.mark.parametrize("order", [kernels.PAIR_ORDER, kernels.ROW_ORDER])
    def test_b_row_longer_than_a_chunk(self, order, monkeypatch):
        """An entry emitting more products than a chunk holds is a chunk by
        itself, between chunks of short entries."""
        rng = np.random.default_rng(7)
        monkeypatch.setattr(kernels, "REPLAY_PRODUCTS", 7)
        b = random_csr(rng, 12, 30, 0.2)
        dense = b.to_dense()
        dense[4] = rng.standard_normal(30)  # 30 products per entry of column 4
        b = CSRMatrix.from_dense(dense)
        a = random_csr(rng, 9, 12, 0.4)
        a_dense = a.to_dense()
        a_dense[:, 4] = rng.standard_normal(9)
        a = CSRMatrix.from_dense(a_dense)
        assert b.row_nnz().max() > kernels.REPLAY_PRODUCTS
        _replay_matches_kernel(a, b, order)

    @pytest.mark.parametrize("order", [kernels.PAIR_ORDER, kernels.ROW_ORDER])
    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_entries_pointing_at_empty_b_rows(self, order, chunk, monkeypatch):
        """Entries that emit no products (first, last and in between) keep
        their place in the walk and replay nothing."""
        monkeypatch.setattr(kernels, "REPLAY_PRODUCTS", chunk)
        a = CSRMatrix((3, 4), [0, 3, 5, 7], [0, 1, 3, 1, 2, 0, 3], np.arange(1.0, 8.0))
        # B's rows 0 and 3 are empty.
        b = CSRMatrix((4, 3), [0, 0, 2, 5, 5], [0, 2, 0, 1, 2], [2.0, -3.0, 5.0, 7.0, -1.0])
        indptr, indices, _, (_, counts, _, _) = kernels.spgemm(a, b, order, gathers=True)
        assert (counts == 0).sum() == 4
        data = _replay_matches_kernel(a, b, order)
        c = CSRMatrix((3, 3), indptr, indices, data)
        assert_scipy_product(c, a, b)
        empty = CSRMatrix.empty((4, 3))
        indptr, indices, data, gathers = kernels.spgemm(a, empty, order, gathers=True)
        assert len(data) == 0 and (gathers[1] == 0).all() and len(gathers[0]) == a.nnz
        assert kernels.gather_reduce(a.data, empty.data, *gathers, 0).shape == (0,)

    @pytest.mark.parametrize("semiring", [MIN_PLUS, MAX_TIMES, OR_AND], ids=lambda s: s.name)
    def test_semiring_replay(self, semiring, matrices, monkeypatch):
        """Another algebra replays through the same gathers, also a few
        entries at a time."""
        a, b = matrices
        for chunk in (kernels.REPLAY_PRODUCTS, 7):
            monkeypatch.setattr(kernels, "REPLAY_PRODUCTS", chunk)
            _replay_matches_kernel(a, b, kernels.PAIR_ORDER, **semiring.algebra)


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

"""Property-based tests (hypothesis) on the core invariants.

Strategies generate small random sparse matrices; the invariants cover the
format layer (round-trips), the numeric engine (all schemes agree with a
dense reference), the structure-only symbolic pass (exact row counts on
adversarial operands), the paths that reuse or split a cold multiply
(plan-cache replay, semiring replay and chunked execution are bit-identical
to it), the Block Reorganizer's transformations (splitting and gathering
are result-preserving / work-conserving) and the scheduler.
"""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runner import paper_algorithms
from repro.core.classify import classify_pairs
from repro.core.gathering import plan_gathering
from repro.core.reorganizer import BlockReorganizer, ReorganizerOptions
from repro.core.splitting import plan_splitting
from repro.gpusim.scheduler import list_schedule
from repro.metrics.lbi import load_balancing_index
from repro.oocore import BYTES_PER_PRODUCT, chunked_multiply
from repro.plan.estimate import row_flops
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.spgemm import merge
from repro.spgemm.base import MultiplyContext
from repro.spgemm.merge import symbolic_row_nnz
from repro.spgemm.outerproduct import OuterProductSpGEMM
from repro.spgemm.rowproduct import RowProductSpGEMM
from repro.spgemm.semiring import MIN_PLUS, semiring_spgemm
from repro.spgemm.session import IterativeSession


@st.composite
def sparse_matrices(draw, max_dim=24, square=True):
    """Random small COO matrices, possibly with duplicate coordinates."""
    n_rows = draw(st.integers(1, max_dim))
    n_cols = n_rows if square else draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, n_rows * n_cols))
    rows = draw(
        st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return COOMatrix(
        (n_rows, n_cols),
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=np.float64),
    )


@st.composite
def csr_structures(draw, n_rows, n_cols):
    """Canonical CSR (sorted, duplicate-free columns) with adversarial content.

    Each cell is absent, an explicitly stored zero or a value; an optional
    hub row stores every column.  All-absent draws give zero-nnz matrices.
    """
    cells = draw(
        st.lists(
            st.sampled_from([0, 0, 1, 2]), min_size=n_rows * n_cols, max_size=n_rows * n_cols
        )
    )
    grid = np.array(cells, dtype=np.int64).reshape(n_rows, n_cols)
    hub = draw(st.none() | st.integers(0, n_rows - 1))
    if hub is not None:
        grid[hub] = np.maximum(grid[hub], 2)
    rows, cols = np.nonzero(grid)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    data = np.where(grid[rows, cols] == 1, 0.0, 1.5)
    return CSRMatrix((n_rows, n_cols), indptr, cols, data)


@st.composite
def multiply_operands(draw, max_dim=16):
    """``(A, B)`` pairs: general non-square, 1×N·N×1 and N×1·1×N shapes."""
    form = draw(st.sampled_from(["general", "inner", "outer"]))
    m, k, n = (draw(st.integers(1, max_dim)) for _ in range(3))
    if form == "inner":
        m = n = 1
    elif form == "outer":
        k = 1
    return draw(csr_structures(m, k)), draw(csr_structures(k, n))


class TestFormatProperties:
    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_csr_roundtrip(self, coo):
        assert np.allclose(coo.to_csr().to_dense(), coo.to_dense())

    @given(sparse_matrices(square=False))
    @settings(max_examples=60, deadline=None)
    def test_csc_roundtrip(self, coo):
        assert np.allclose(coo.to_csc().to_dense(), coo.to_dense())

    @given(sparse_matrices(square=False))
    @settings(max_examples=60, deadline=None)
    def test_csr_csc_agree(self, coo):
        assert np.allclose(coo.to_csr().to_csc().to_dense(), coo.to_csc().to_dense())

    @given(sparse_matrices(square=False))
    @settings(max_examples=60, deadline=None)
    def test_transpose_involution(self, coo):
        csr = coo.to_csr()
        assert csr.transpose().transpose().allclose(csr)

    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_coalesce_idempotent(self, coo):
        once = coo.coalesce()
        twice = once.coalesce()
        assert once.allclose(twice)


class TestSpGEMMProperties:
    @given(sparse_matrices())
    @settings(max_examples=40, deadline=None)
    def test_all_schemes_match_dense(self, coo):
        a = coo.to_csr()
        dense = a.to_dense() @ a.to_dense()
        ctx = MultiplyContext.build(a)
        for algo in (RowProductSpGEMM(), OuterProductSpGEMM(), BlockReorganizer()):
            assert np.allclose(algo.multiply(ctx).to_dense(), dense, atol=1e-9)

    @given(sparse_matrices(), st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_reorganizer_invariant_to_splitting_factor(self, coo, factor):
        a = coo.to_csr()
        ctx = MultiplyContext.build(a)
        opts = ReorganizerOptions(splitting_factor=factor, alpha=1.0)
        c = BlockReorganizer(options=opts).multiply(ctx)
        dense = a.to_dense() @ a.to_dense()
        assert np.allclose(c.to_dense(), dense, atol=1e-9)

    @given(sparse_matrices())
    @settings(max_examples=30, deadline=None)
    def test_trace_conserves_work(self, coo):
        from repro.gpusim.config import TITAN_XP

        ctx = MultiplyContext.build(coo.to_csr())
        trace = BlockReorganizer().build_trace(ctx, TITAN_XP)
        exp_ops = sum(p.blocks.total_ops for p in trace.phases if p.stage == "expansion")
        assert exp_ops == ctx.total_work


class TestSymbolicPassProperties:
    @given(multiply_operands(), st.integers(1, 40), st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_counts_match_reference_and_scipy(self, operands, block_products, mask_bytes):
        """Default, all-dense and all-sorted counting, over many small
        blocks and on int32 index arrays, equals the merged product's
        stored entries and scipy's."""
        sp = pytest.importorskip("scipy.sparse")
        a, b = operands
        expected = MultiplyContext.build(a, b).reference_c.row_nnz()
        # Unit values never cancel, so scipy's stored entries are the structure.
        a32, b32 = (
            sp.csr_matrix(
                (np.ones(m.nnz), m.indices.astype(np.int32), m.indptr.astype(np.int32)),
                shape=m.shape,
            )
            for m in (a, b)
        )
        assert np.array_equal(np.diff((a32 @ b32).tocsr().indptr), expected)
        assert np.array_equal(symbolic_row_nnz(a, b), expected)
        for fill in (0.0, float("inf")):
            with mock.patch.multiple(
                merge,
                SYMBOLIC_DENSE_MIN_FILL=fill,
                SYMBOLIC_BLOCK_PRODUCTS=block_products,
                SYMBOLIC_MASK_BYTES=mask_bytes,
            ):
                assert np.array_equal(symbolic_row_nnz(a, b), expected)
                assert np.array_equal(symbolic_row_nnz(a32, b32), expected)


def _with_values(m: CSRMatrix, rng: np.random.Generator) -> CSRMatrix:
    """Same structure, fresh values: positive, explicit zeros and -0.0."""
    data = rng.uniform(0.5, 2.0, m.nnz)
    data[rng.random(m.nnz) < 0.15] = 0.0
    data[rng.random(m.nnz) < 0.1] = -0.0
    return CSRMatrix(m.shape, m.indptr, m.indices, data)


def _assert_identical(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    assert got.indptr.tobytes() == want.indptr.tobytes()
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.data.tobytes() == want.data.tobytes()


class TestReplayProperties:
    @given(multiply_operands(), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_replay_semiring_and_chunked_match_cold(self, operands, seed):
        """For every scheme: a plan-cache replay with fresh values equals a
        cold multiply on them, a MIN_PLUS replay equals the cold semiring
        product, and all of it equals scipy.  Split into row panels (with
        spills) the product equals the in-memory one."""
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(seed)
        a, b = operands
        a2, b2 = _with_values(a, rng), _with_values(b, rng)
        expected = (
            sp.csr_matrix((a2.data, a2.indices, a2.indptr), shape=a2.shape)
            @ sp.csr_matrix((b2.data, b2.indices, b2.indptr), shape=b2.shape)
        ).toarray()
        semiring_cold = semiring_spgemm(a2, b2, MIN_PLUS)
        panelled = np.count_nonzero(row_flops(a2, b2)) >= 2
        # hypothesis runs examples inside one test call, so a function-scoped
        # tmp_path would be shared; each example gets its own spill base.
        with tempfile.TemporaryDirectory() as spill_dir:
            for algo in paper_algorithms():
                session = IterativeSession(algo)
                session.multiply(a, b)
                replayed = session.multiply(a2, b2)
                assert session.stats.numeric_replays == 1, algo.name
                cold = algo.multiply(MultiplyContext.build(a2, b2))
                _assert_identical(replayed, cold)
                assert np.allclose(cold.to_dense(), expected, rtol=1e-12, atol=0.0), algo.name

                session.semiring_multiply(a, b, MIN_PLUS)
                _assert_identical(session.semiring_multiply(a2, b2, MIN_PLUS), semiring_cold)

                # A one-product budget gives every row with work a panel of
                # its own and forces spills.
                chunked, stats = chunked_multiply(
                    algo, a2, b2, mem_budget=BYTES_PER_PRODUCT, spill_dir=spill_dir
                )
                if panelled:
                    assert stats.n_panels >= 2, algo.name
                assert stats.spill_count <= stats.n_panels, algo.name
                if algo.name == "block-reorganizer":
                    # Classifies per panel, so sums may re-associate (the
                    # strict xfail in test_oocore.py pins this).
                    assert chunked.indptr.tobytes() == cold.indptr.tobytes()
                    assert chunked.indices.tobytes() == cold.indices.tobytes()
                    assert np.allclose(chunked.data, cold.data, rtol=1e-12, atol=0.0)
                else:
                    _assert_identical(chunked, cold)
            assert os.listdir(spill_dir) == []


class TestReorganizerPlanProperties:
    @given(
        st.lists(st.integers(1, 2000), min_size=1, max_size=100),
        st.lists(st.integers(1, 2000), min_size=1, max_size=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_classification_partitions_active_pairs(self, na, nb):
        n = min(len(na), len(nb))
        na = np.array(na[:n], dtype=np.int64)
        nb = np.array(nb[:n], dtype=np.int64)
        classes = classify_pairs(na * nb, nb)
        combined = (
            classes.dominator.astype(int)
            + classes.underloaded.astype(int)
            + classes.normal.astype(int)
        )
        assert np.array_equal(combined, (na * nb > 0).astype(int))

    @given(
        st.lists(st.integers(1, 5000), min_size=1, max_size=50),
        st.integers(1, 128),
    )
    @settings(max_examples=60, deadline=None)
    def test_splitting_conserves_column_entries(self, na, n_sms):
        na = np.array(na, dtype=np.int64)
        nb = np.full(len(na), 64, dtype=np.int64)
        mask = np.ones(len(na), dtype=bool)
        plan = plan_splitting(na, nb, mask, n_sms)
        for i in range(len(na)):
            assert plan.na[plan.pair_ids == i].sum() == na[i]
        assert np.all(plan.na > 0)

    @given(
        st.lists(st.integers(1, 100), min_size=1, max_size=200),
        st.lists(st.integers(1, 31), min_size=1, max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_gathering_conserves_ops(self, na, nb):
        n = min(len(na), len(nb))
        na = np.array(na[:n], dtype=np.int64)
        nb = np.array(nb[:n], dtype=np.int64)
        plan = plan_gathering(na, nb, np.ones(n, dtype=bool))
        assert plan.ops.sum() == (na * nb).sum()
        assert plan.partitions.sum() == n
        assert np.all(plan.effective_threads <= 32)


class TestSchedulerProperties:
    @given(
        st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=0, max_size=300),
        st.integers(1, 64),
        st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_work_conservation_and_bounds(self, durations, n_sms, residency):
        d = np.array(durations, dtype=np.float64)
        result = list_schedule(d, n_sms, residency)
        assert result.sm_busy.sum() == pytest.approx(d.sum(), rel=1e-9, abs=1e-6)
        if len(d):
            lower = max(d.max(), d.sum() / (n_sms * residency))
            assert result.makespan >= lower - 1e-6
            assert result.makespan <= 2.0 * lower + 1e-6
        # (>= 0: denormal durations can underflow the mean to exactly 0.)
        assert 0.0 <= load_balancing_index(result.sm_busy) <= 1.0

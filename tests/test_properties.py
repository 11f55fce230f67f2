"""Property-based tests (hypothesis) on the core invariants.

Strategies generate small random sparse matrices; the invariants cover the
format layer (round-trips), the numeric engine (every scheme's product is
scipy's, bit for bit), the structure-only symbolic pass (exact row counts on
adversarial operands, and the same counts left by a numeric run), the
paths that reuse or split a cold multiply
(plan-cache replay, semiring replay and chunked execution are bit-identical
to it, also on rows storing their columns out of order), the exact oracle
(the kernel in both orders, tie ranks included, is scipy's product with the
inner index permuted by the rank, bit for bit), semiring products
(PLUS_TIMES is the numeric product and scipy's, bit for bit), the Block
Reorganizer's transformations (splitting and gathering are
result-preserving / work-conserving) and the scheduler.
"""

import json
import os
import tempfile
import urllib.error
import urllib.request
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.bench.runner import paper_algorithms
from repro.core.classify import classify_pairs
from repro.core.gathering import plan_gathering
from repro.core.reorganizer import BlockReorganizer, ReorganizerOptions
from repro.core.splitting import plan_splitting
from repro.gpusim.scheduler import list_schedule
from repro.metrics.lbi import load_balancing_index
from repro.oocore import BYTES_PER_PRODUCT, chunked_multiply
from repro.plan.cache import PlanCache
from repro.plan.estimate import row_flops
from repro.runtime import Runtime, RuntimeConfig
from repro.serve import ServeConfig, ServerThread, csr_from_wire, csr_to_wire
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.random import power_law
from repro.spgemm.base import DEFAULT_LOWERING_CONFIG, MultiplyContext
from repro.spgemm.outerproduct import OuterProductSpGEMM
from repro.spgemm.semiring import MAX_TIMES, MIN_PLUS, OR_AND, PLUS_TIMES, semiring_spgemm

from .oracle import assert_identical, assert_scipy_product, drop_zeros, scipy_product, tie_rank


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
        """Every scheme's product is scipy's (permuted by the plan's tie
        rank), bit for bit modulo exact zeros."""
        a = coo.to_csr()
        ctx = MultiplyContext.build(a)
        for algo in paper_algorithms():
            assert_scipy_product(algo.multiply(ctx), a, a, algo)

    @given(sparse_matrices(), st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_reorganizer_invariant_to_splitting_factor(self, coo, factor):
        """Whatever the splitting factor, the Block Reorganizer's product is
        scipy's permuted by its plan's tie rank, bit for bit modulo exact
        zeros."""
        a = coo.to_csr()
        ctx = MultiplyContext.build(a)
        algo = BlockReorganizer(options=ReorganizerOptions(splitting_factor=factor, alpha=1.0))
        assert_scipy_product(algo.multiply(ctx), a, a, algo)

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
    def test_counts_match_reference_and_scipy(self, operands, block_products, mask_cells):
        """Default, all-dense and all-sorted counting, over many small
        blocks and on int32 index arrays, equals the stored entries of
        scipy's product (on unit values, which never cancel, scipy's stored
        entries are the structure) and of the merged numeric product."""
        a, b = operands
        a32, b32 = (_int32(CSRMatrix(m.shape, m.indptr, m.indices, np.ones(m.nnz))) for m in (a, b))
        expected = np.diff(scipy_product(a32, b32).indptr)
        assert np.array_equal(kernels.row_nnz(a, b), expected)
        assert np.array_equal(kernels.row_nnz(a32, b32), expected)
        indptr = kernels.spgemm(a, b, kernels.PAIR_ORDER)[0]
        assert np.array_equal(np.diff(indptr), expected)
        for fill in (0.0, float("inf")):
            with mock.patch.multiple(
                kernels,
                DENSE_MIN_FILL=fill,
                BLOCK_PRODUCTS=block_products,
                BLOCK_CELLS=mask_cells,
            ):
                assert np.array_equal(kernels.row_nnz(a, b), expected)
                assert np.array_equal(kernels.row_nnz(a32, b32), expected)

    @given(
        multiply_operands(),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["sorted", "shuffled", "int32"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_numeric_run_counts_what_the_symbolic_pass_counts(self, operands, seed, form):
        """For every scheme, a plan run leaves ``ctx.c_row_nnz`` equal to the
        symbolic pass's counts (the merged result's row counts, explicit and
        cancelled zeros included), and ``pair_work``, counted from CSR, equal
        to the CSC-based count: on signed unit values, whose sums cancel
        often, on rows storing columns out of order and on int32 index
        arrays."""
        rng = np.random.default_rng(seed)
        a, b = (_unit_values(m, rng) for m in operands)
        if form == "shuffled":
            a, b = _shuffle_rows(a, rng), _shuffle_rows(b, rng)
        elif form == "int32":
            a, b = _int32(a), _int32(b)
        expected = kernels.row_nnz(a, b)
        pair_work = a.to_csc().col_nnz() * b.row_nnz()
        for algo in paper_algorithms():
            ctx = MultiplyContext.build(a, b)
            c = algo.lower(ctx, DEFAULT_LOWERING_CONFIG).execute(ctx)
            assert np.array_equal(ctx.c_row_nnz, expected), algo.name
            assert np.array_equal(np.diff(c.indptr), expected), algo.name
            assert np.array_equal(ctx.pair_work, pair_work), algo.name


def _unit_values(m: CSRMatrix, rng: np.random.Generator) -> CSRMatrix:
    """Same structure, values drawn from -1, +1, 0 and -0.0."""
    data = rng.choice(np.array([-1.0, 1.0, 0.0, -0.0]), m.nnz)
    return CSRMatrix(m.shape, m.indptr, m.indices, data)


def _int32(m: CSRMatrix) -> CSRMatrix:
    """``m`` holding int32 index arrays, as scipy's matrices do (a
    :class:`CSRMatrix` casts its arrays to int64 when constructed)."""
    out = CSRMatrix(m.shape, m.indptr, m.indices, m.data)
    out.indptr, out.indices = m.indptr.astype(np.int32), m.indices.astype(np.int32)
    return out


def _with_values(m: CSRMatrix, rng: np.random.Generator, low: float = 0.5) -> CSRMatrix:
    """Same structure, fresh values: uniform from ``low`` to 2 (positive by
    default), explicit zeros and -0.0."""
    data = rng.uniform(low, 2.0, m.nnz)
    data[rng.random(m.nnz) < 0.15] = 0.0
    data[rng.random(m.nnz) < 0.1] = -0.0
    return CSRMatrix(m.shape, m.indptr, m.indices, data)


def _shuffle_rows(m: CSRMatrix, rng: np.random.Generator) -> CSRMatrix:
    """Same matrix with each row's stored entries in a random order."""
    row_of = np.repeat(np.arange(m.n_rows), m.row_nnz())
    order = np.lexsort((rng.random(m.nnz), row_of))
    return CSRMatrix(m.shape, m.indptr, m.indices[order], m.data[order])


class TestReplayProperties:
    @given(multiply_operands(), st.integers(0, 2**32 - 1), st.sampled_from(["int64", "int32"]))
    @settings(max_examples=25, deadline=None)
    def test_replay_semiring_and_chunked_match_cold(self, operands, seed, form):
        """For every scheme: a plan-cache replay with fresh values equals a
        cold multiply on them, a MIN_PLUS replay equals the cold semiring
        product, and the product equals scipy's, bit for bit modulo exact
        zeros (permuted by the plan's tie rank for the Block Reorganizer).
        Run out of core in one-product row blocks (with spills) the product
        equals the in-memory one.  Also on int32 index arrays."""
        rng = np.random.default_rng(seed)
        a, b = operands
        a2, b2 = _with_values(a, rng), _with_values(b, rng)
        if form == "int32":
            a, b, a2, b2 = (_int32(m) for m in (a, b, a2, b2))
        semiring_cold = semiring_spgemm(a2, b2, MIN_PLUS)
        split = np.count_nonzero(row_flops(a2, b2)) >= 2
        # hypothesis runs examples inside one test call, so a function-scoped
        # tmp_path would be shared; each example gets its own spill base.
        with tempfile.TemporaryDirectory() as spill_dir:
            for algo in paper_algorithms():
                cache = PlanCache(algo)
                cache.multiply(a, b)
                replayed = cache.multiply(a2, b2)
                assert cache.stats.hits == 1, algo.name
                cold = algo.multiply(MultiplyContext.build(a2, b2))
                assert_identical(replayed, cold)
                assert_scipy_product(cold, a2, b2, algo)

                cache.semiring_multiply(a, b, MIN_PLUS)
                assert_identical(cache.semiring_multiply(a2, b2, MIN_PLUS), semiring_cold)

                # A one-product budget gives every row with work a block of
                # its own and forces spills.
                chunked, stats = chunked_multiply(
                    algo, a2, b2, mem_budget=BYTES_PER_PRODUCT, spill_dir=spill_dir
                )
                if split:
                    assert stats.n_panels >= 2, algo.name
                assert stats.spill_count <= stats.n_panels, algo.name
                assert_identical(chunked, cold)
            assert os.listdir(spill_dir) == []

    @given(multiply_operands(), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_rows_storing_columns_out_of_order(self, operands, seed):
        """Operands whose CSR rows store columns out of order (the wire
        format does not sort them): cold, replay and chunked agree bit for
        bit; row-ordered schemes sum in stored order exactly as scipy does;
        pair-ordered schemes ignore the storage order."""
        rng = np.random.default_rng(seed)
        a, b = (_shuffle_rows(m, rng) for m in operands)
        a1, b1 = _with_values(a, rng), _with_values(b, rng)
        a2, b2 = _with_values(a, rng), _with_values(b, rng)
        want = scipy_product(a2, b2)
        with tempfile.TemporaryDirectory() as spill_dir:
            for algo in paper_algorithms():
                cache = PlanCache(algo)
                cache.multiply(a1, b1)
                replayed = cache.multiply(a2, b2)
                assert cache.stats.hits == 1, algo.name
                cold = algo.multiply(MultiplyContext.build(a2, b2))
                assert_identical(replayed, cold)
                chunked, _ = chunked_multiply(
                    algo, a2, b2, mem_budget=BYTES_PER_PRODUCT, spill_dir=spill_dir
                )
                assert_identical(chunked, cold)
                if algo.name in ("outer-product", "block-reorganizer"):
                    ctx = MultiplyContext.build(a2.sort_indices(), b2.sort_indices())
                    assert_identical(cold, algo.multiply(ctx))
                else:
                    # scipy drops entries that cancel to exactly zero.
                    assert_identical(drop_zeros(cold), want)


class TestSemiringProperties:
    @given(multiply_operands(), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_plus_times_is_the_numeric_product_and_replays_match(self, operands, seed):
        """On signed values with explicit zeros and -0.0, PLUS_TIMES equals
        scipy's product and the outer-product numeric product with exact
        zeros dropped, bit for bit; for every semiring a plan-cache replay
        with fresh values equals the cold product."""
        rng = np.random.default_rng(seed)
        a, b = operands
        a1, b1 = _with_values(a, rng, low=-2.0), _with_values(b, rng, low=-2.0)
        a2, b2 = _with_values(a, rng, low=-2.0), _with_values(b, rng, low=-2.0)
        plus_times = semiring_spgemm(a2, b2, PLUS_TIMES)
        assert_identical(plus_times, scipy_product(a2, b2))
        numeric = OuterProductSpGEMM().multiply(MultiplyContext.build(a2, b2))
        assert_identical(plus_times, drop_zeros(numeric))
        for semiring in (PLUS_TIMES, MIN_PLUS, OR_AND, MAX_TIMES):
            cache = PlanCache(OuterProductSpGEMM())
            cache.semiring_multiply(a1, b1, semiring)
            replayed = cache.semiring_multiply(a2, b2, semiring)
            assert cache.stats.hits == 1, semiring.name
            assert_identical(replayed, semiring_spgemm(a2, b2, semiring))


class TestExactOracle:
    """The kernel sums each entry in ascending (tie rank, k): in both
    orders, with a random per-pair rank on signed values, it equals scipy's
    rank-permuted product bit for bit, modulo exact zeros."""

    @staticmethod
    def _check(operands, seed):
        rng = np.random.default_rng(seed)
        a, b = (_with_values(m, rng, low=-2.0) for m in operands)
        rank = rng.integers(0, 3, a.n_cols)
        want = scipy_product(a, b, rank)
        for order in (kernels.PAIR_ORDER, kernels.ROW_ORDER):
            indptr, indices, data, _ = kernels.spgemm(a, b, order, rank)
            got = CSRMatrix((a.n_rows, b.n_cols), indptr, indices, data)
            assert_identical(drop_zeros(got), want)

    @given(multiply_operands(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_ranked_sum_is_rank_permuted_scipy(self, operands, seed):
        self._check(operands, seed)

    @given(
        multiply_operands(),
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 64),
        st.sampled_from([0.0, float("inf")]),
    )
    @settings(max_examples=80, deadline=None)
    def test_all_dense_and_all_sorted_blocks(self, operands, seed, block_products, cells, fill):
        """The same sums when every block takes the mask, or every block
        sorts, over many tiny blocks."""
        with mock.patch.multiple(
            kernels, DENSE_MIN_FILL=fill, BLOCK_PRODUCTS=block_products, BLOCK_CELLS=cells
        ):
            self._check(operands, seed)

    def test_block_reorganizer_ranked_power_law(self):
        """A power-law operand whose plan carries tie ranks: the Block
        Reorganizer equals the rank-permuted scipy product, and not the
        plain one, so the oracle tells the two sums apart."""
        a = power_law(n=1000, nnz=6000, seed=1).to_csr()
        a = _with_values(a, np.random.default_rng(0), low=-2.0)
        algo = BlockReorganizer()
        rank = tie_rank(algo, a, a)
        assert rank is not None and np.any(rank)
        c = drop_zeros(algo.multiply(MultiplyContext.build(a, a)))
        assert_identical(c, scipy_product(a, a, rank))
        assert c.data.tobytes() != scipy_product(a, a).data.tobytes()


def _http(url: str, body: dict | None = None) -> tuple[int, dict]:
    """GET ``url``, or POST ``body`` to it as JSON: the status and JSON reply."""
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(url, data, {"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestServedProperties:
    def test_served_products_are_scipys(self):
        """Operands posted to ``/v1/multiply`` on an in-process server, with
        explicit and signed zeros, rows storing columns out of order and
        rectangular shapes, come back as scipy's product bit for bit,
        rank-permuted where the plan has a tie rank.  After each request the
        flop ledger and the queue are empty."""
        runtime = Runtime(RuntimeConfig(plan_cache_entries=4))
        thread = ServerThread(runtime, ServeConfig(port=0))
        host, port = thread.start()
        base = f"http://{host}:{port}"

        @given(
            multiply_operands(),
            st.integers(0, 2**32 - 1),
            st.booleans(),
            st.sampled_from(["block-reorganizer", "row-product"]),
        )
        @settings(max_examples=40, deadline=None)
        def check(operands, seed, shuffled, name):
            rng = np.random.default_rng(seed)
            a, b = (_with_values(m, rng, low=-2.0) for m in operands)
            if shuffled:
                a, b = _shuffle_rows(a, rng), _shuffle_rows(b, rng)
            body = {"algorithm": name, "a": csr_to_wire(a), "b": csr_to_wire(b)}
            status, reply = _http(base + "/v1/multiply", body)
            assert status == 200, reply
            assert_scipy_product(csr_from_wire(reply["result"]), a, b, runtime.algorithm(name))
            _, stats = _http(base + "/stats")
            assert stats["serving"]["inflight_flops"] == 0
            assert stats["serving"]["queue_depth"] == 0

        try:
            check()
        finally:
            thread.stop()
        assert runtime.closed


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

"""Algorithm-level tests: numeric equivalence and trace sanity for every
spGEMM scheme (baselines, libraries, Block Reorganizer)."""

import numpy as np
import pytest

from repro import kernels
from repro.core.reorganizer import BlockReorganizer
from repro.gpusim.config import TITAN_XP
from repro.gpusim.simulator import GPUSimulator
from repro.sparse.csr import CSRMatrix
from repro.spgemm.base import MultiplyContext
from repro.spgemm.libraries import BhSparseSpGEMM, CuspSpGEMM, CuSparseSpGEMM, MklSpGEMM
from repro.spgemm.outerproduct import OuterProductSpGEMM
from repro.spgemm.rowproduct import RowProductSpGEMM

from .oracle import assert_identical, assert_scipy_product, scipy_product

ALL_ALGORITHMS = [
    RowProductSpGEMM,
    OuterProductSpGEMM,
    CuSparseSpGEMM,
    CuspSpGEMM,
    BhSparseSpGEMM,
    MklSpGEMM,
    BlockReorganizer,
]


@pytest.fixture
def ctx(square_csr):
    return MultiplyContext.build(square_csr)


@pytest.fixture
def skewed_ctx(skewed_csr):
    return MultiplyContext.build(skewed_csr)


class TestContext:
    def test_pair_work(self, ctx, square_csr):
        expected = square_csr.to_csc().col_nnz() * square_csr.row_nnz()
        assert np.array_equal(ctx.pair_work, expected)

    def test_row_work_sums_to_total(self, ctx):
        assert ctx.row_work.sum() == ctx.total_work

    def test_c_row_nnz_matches_reference(self, ctx, square_csr):
        """The symbolic pass counts scipy's stored entries (positive values
        never cancel, so scipy stores the whole structure)."""
        want = scipy_product(square_csr, square_csr)
        assert np.array_equal(ctx.c_row_nnz, want.row_nnz())

    def test_b_defaults_to_a(self, square_csr):
        ctx = MultiplyContext.build(square_csr)
        assert ctx.b_csr is square_csr

    def test_incompatible_shapes(self, square_csr, small_csr):
        from repro.errors import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            MultiplyContext.build(square_csr, small_csr)

    def test_single_expansion_for_symbolic_and_numeric(self, square_csr, monkeypatch):
        """The symbolic pass reads structure only: ``c_row_nnz`` runs no
        numeric kernel, and the lazy ``reference_c`` runs it exactly once
        after it."""
        calls = []
        real = kernels.spgemm

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "spgemm", counting)
        ctx = MultiplyContext.build(square_csr)
        ctx.c_row_nnz
        ctx.nnz_c
        assert calls == []
        ctx.reference_c
        ctx.reference_c
        assert len(calls) == 1


class TestReference:
    """``MultiplyContext.reference_c``, the product the benchmark's oracle
    reads: the kernel in pair order, which is scipy's product."""

    def test_against_dense(self, rng):
        """Dense operands with signed values, whose sums cancel and round."""
        a = CSRMatrix.from_dense(rng.uniform(-2.0, 2.0, (12, 9)))
        b = CSRMatrix.from_dense(rng.uniform(-2.0, 2.0, (9, 7)))
        assert_scipy_product(MultiplyContext.build(a, b).reference_c, a, b)

    def test_against_scipy(self, square_csr):
        assert_scipy_product(MultiplyContext.build(square_csr).reference_c, square_csr, square_csr)

    def test_identity(self, square_csr):
        eye = CSRMatrix.identity(square_csr.n_rows)
        assert_identical(MultiplyContext.build(square_csr, eye).reference_c, square_csr)


@pytest.mark.parametrize("algo_cls", ALL_ALGORITHMS, ids=lambda c: c.name)
class TestEveryAlgorithm:
    def test_numeric_equals_reference(self, algo_cls, ctx, square_csr):
        algo = algo_cls()
        assert_scipy_product(algo.multiply(ctx), square_csr, square_csr, algo)

    def test_numeric_on_skewed(self, algo_cls, skewed_ctx, skewed_csr):
        algo = algo_cls()
        assert_scipy_product(algo.multiply(skewed_ctx), skewed_csr, skewed_csr, algo)

    def test_simulation_runs(self, algo_cls, ctx):
        sim = GPUSimulator(TITAN_XP)
        stats = algo_cls().simulate(ctx, sim)
        assert stats.total_seconds > 0
        assert stats.gflops > 0

    def test_trace_work_conserved(self, algo_cls, ctx):
        """Expansion phases of GPU schemes account for every product."""
        algo = algo_cls()
        trace = algo.build_trace(ctx, TITAN_XP)
        if not trace.phases:  # the CPU (MKL) scheme has no GPU trace
            return
        total = trace.total_ops()
        assert total >= ctx.total_work * 0.99  # binning may double-count a little

    def test_planes_are_shared_executors(self, algo_cls):
        """Schemes customise ``lower`` only; both planes run through the
        shared plan executors in the base class."""
        assert "multiply" not in algo_cls.__dict__
        assert "build_trace" not in algo_cls.__dict__
        assert "lower" in algo_cls.__dict__


class TestTraceShapes:
    def test_outer_one_block_per_nonempty_pair(self, ctx):
        trace = OuterProductSpGEMM().build_trace(ctx, TITAN_XP)
        n_pairs = int(np.count_nonzero(ctx.pair_work))
        assert len(trace.phases[0].blocks) == n_pairs

    def test_outer_fixed_block_size(self, ctx):
        trace = OuterProductSpGEMM(fixed_block_size=128).build_trace(ctx, TITAN_XP)
        assert np.all(trace.phases[0].blocks.threads == 128)

    def test_row_trace_has_merge_override(self, ctx):
        trace = RowProductSpGEMM().build_trace(ctx, TITAN_XP)
        merge = [p for p in trace.phases if p.stage == "merge"][0]
        assert merge.instr_override is not None

    def test_mkl_all_host_time(self, ctx):
        trace = MklSpGEMM().build_trace(ctx, TITAN_XP)
        assert trace.phases == []
        assert trace.host_seconds > 0

    def test_mkl_bigger_cpu_is_faster(self, ctx):
        from repro.gpusim.config import XEON_E5_2698V4

        small = MklSpGEMM().cpu_seconds(ctx)
        big = MklSpGEMM(cpu=XEON_E5_2698V4).cpu_seconds(ctx)
        assert big <= small

    def test_cusp_sort_dominates_traffic(self, ctx):
        trace = CuspSpGEMM().build_trace(ctx, TITAN_XP)
        by_name = {p.name: p.blocks for p in trace.phases}
        sort_bytes = by_name["sort"].unique_bytes.sum() + by_name["sort"].write_bytes.sum()
        exp_bytes = by_name["expand"].unique_bytes.sum() + by_name["expand"].write_bytes.sum()
        assert sort_bytes > 3.0 * exp_bytes

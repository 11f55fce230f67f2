"""End-to-end integration tests on catalog stand-ins.

One regular and one irregular dataset go through the complete pipeline:
generation -> context -> every algorithm's numeric plane (equality against
SciPy) -> simulation -> the paper's headline orderings.
"""

import pytest

from repro.bench.runner import get_context
from repro.core.reorganizer import BlockReorganizer
from repro.gpusim.config import TESLA_V100, TITAN_XP
from repro.gpusim.simulator import GPUSimulator
from repro.spgemm.outerproduct import OuterProductSpGEMM
from repro.spgemm.rowproduct import RowProductSpGEMM

from .oracle import assert_scipy_product


@pytest.fixture(scope="module")
def caida_ctx():
    return get_context("as_caida")


@pytest.fixture(scope="module")
def poisson_ctx():
    return get_context("poisson3da")


class TestNumericAgainstScipy:
    @pytest.mark.parametrize("dataset", ["poisson3da", "as_caida"])
    def test_reference_matches_scipy(self, dataset):
        """The benchmark oracle's product is scipy's, bit for bit."""
        ctx = get_context(dataset)
        assert_scipy_product(ctx.reference_c, ctx.a_csr, ctx.b_csr)

    def test_all_algorithms_agree_on_caida(self, caida_ctx):
        a = caida_ctx.a_csr
        for algo in (RowProductSpGEMM(), OuterProductSpGEMM(), BlockReorganizer()):
            assert_scipy_product(algo.multiply(caida_ctx), a, a, algo)


class TestHeadlineOrderings:
    def test_reorganizer_wins_on_skewed(self, caida_ctx):
        sim = GPUSimulator(TITAN_XP)
        row = RowProductSpGEMM().simulate(caida_ctx, sim).total_seconds
        outer = OuterProductSpGEMM().simulate(caida_ctx, sim).total_seconds
        br = BlockReorganizer().simulate(caida_ctx, sim).total_seconds
        assert br < row < outer  # paper Fig 8: as-caida ordering

    def test_reorganizer_wins_on_regular(self, poisson_ctx):
        sim = GPUSimulator(TITAN_XP)
        row = RowProductSpGEMM().simulate(poisson_ctx, sim).total_seconds
        br = BlockReorganizer().simulate(poisson_ctx, sim).total_seconds
        assert br < row

    def test_sm_utilization_recovers_on_skewed(self, caida_ctx):
        sim = GPUSimulator(TITAN_XP)
        outer = OuterProductSpGEMM().simulate(caida_ctx, sim)
        br = BlockReorganizer().simulate(caida_ctx, sim)
        assert outer.sm_utilization("expansion") < 0.45  # paper: < 20% on as-caida
        assert br.sm_utilization("expansion") > 2 * outer.sm_utilization("expansion")

    def test_bigger_gpu_runs_faster(self, caida_ctx):
        br = BlockReorganizer()
        t_small = br.simulate(caida_ctx, GPUSimulator(TITAN_XP)).kernel_seconds
        t_big = br.simulate(caida_ctx, GPUSimulator(TESLA_V100)).kernel_seconds
        assert t_big < t_small

    def test_gflops_in_paper_band(self, caida_ctx, poisson_ctx):
        sim = GPUSimulator(TITAN_XP)
        for ctx in (caida_ctx, poisson_ctx):
            for algo in (RowProductSpGEMM(), BlockReorganizer()):
                gf = algo.simulate(ctx, sim).gflops
                assert 0.1 < gf < 40.0


class TestCrossDatasetConsistency:
    def test_ab_pair_multiplication(self):
        ctx = get_context("ab15")
        algo = BlockReorganizer()
        assert_scipy_product(algo.multiply(ctx), ctx.a_csr, ctx.b_csr, algo)

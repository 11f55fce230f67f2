"""Block Reorganizer pipeline tests."""

import numpy as np
import pytest

from repro.core.reorganizer import BlockReorganizer, ReorganizerOptions
from repro.errors import ConfigurationError
from repro.gpusim.config import TITAN_XP
from repro.gpusim.simulator import GPUSimulator
from repro.spgemm.base import MultiplyContext
from repro.spgemm.outerproduct import OuterProductSpGEMM

from .oracle import assert_scipy_product


@pytest.fixture
def skewed_ctx(skewed_csr):
    return MultiplyContext.build(skewed_csr)


@pytest.fixture
def regular_ctx(regular_csr):
    return MultiplyContext.build(regular_csr)


@pytest.fixture(scope="module")
def perf_skewed_ctx():
    """A skewed matrix big enough that kernel work dominates launch overhead
    (the paper notes the Block Reorganizer loses on tiny inputs, where its
    preprocessing and extra kernel launches dominate — that regime is covered
    by the Figure 16 s1 bench instead)."""
    from repro.sparse.random import power_law

    ctx = MultiplyContext.build(power_law(4000, 60_000, seed=21).to_csr())
    ctx.c_row_nnz
    return ctx


class TestOptions:
    def test_defaults_match_paper(self):
        opts = ReorganizerOptions()
        assert opts.beta == 10.0
        assert opts.limiting_factor == 4
        assert opts.enable_splitting and opts.enable_gathering and opts.enable_limiting

    def test_invalid_max_threads(self):
        with pytest.raises(ConfigurationError):
            ReorganizerOptions(max_threads=100)


class TestNumericPlane:
    @pytest.mark.parametrize(
        "opts",
        [
            ReorganizerOptions(),
            ReorganizerOptions(enable_splitting=False),
            ReorganizerOptions(enable_gathering=False),
            ReorganizerOptions(enable_limiting=False),
            ReorganizerOptions(splitting_factor=8),
            ReorganizerOptions(alpha=0.5),
        ],
        ids=["all", "no-split", "no-gather", "no-limit", "factor8", "alpha.5"],
    )
    def test_matches_reference_on_skewed(self, opts, skewed_ctx, skewed_csr):
        algo = BlockReorganizer(options=opts)
        assert_scipy_product(algo.multiply(skewed_ctx), skewed_csr, skewed_csr, algo)

    def test_matches_reference_on_regular(self, regular_ctx, regular_csr):
        algo = BlockReorganizer()
        assert_scipy_product(algo.multiply(regular_ctx), regular_csr, regular_csr, algo)


class TestTrace:
    def test_phase_structure_on_skewed(self, skewed_ctx):
        trace = BlockReorganizer(options=ReorganizerOptions(alpha=0.5)).build_trace(
            skewed_ctx, TITAN_XP
        )
        names = [p.name for p in trace.phases]
        assert "expansion-gathered" in names
        assert any(n.startswith("merge") for n in names)

    def test_expansion_ops_conserved(self, skewed_ctx):
        trace = BlockReorganizer().build_trace(skewed_ctx, TITAN_XP)
        total = sum(
            p.blocks.total_ops for p in trace.phases if p.stage == "expansion"
        )
        assert total == skewed_ctx.total_work

    def test_merge_ops_conserved(self, skewed_ctx):
        trace = BlockReorganizer().build_trace(skewed_ctx, TITAN_XP)
        total = sum(p.blocks.total_ops for p in trace.phases if p.stage == "merge")
        assert total == skewed_ctx.total_work

    def test_split_host_cost_charged(self, skewed_ctx):
        with_split = BlockReorganizer(options=ReorganizerOptions(alpha=0.5))
        trace = with_split.build_trace(skewed_ctx, TITAN_XP)
        if trace.meta["n_dominators"]:
            assert trace.host_seconds > 0

    def test_limited_phase_has_extra_smem(self, skewed_ctx):
        trace = BlockReorganizer().build_trace(skewed_ctx, TITAN_XP)
        limited = [p for p in trace.phases if p.name == "merge-limited"]
        normal = [p for p in trace.phases if p.name == "merge"]
        if limited and len(limited[0].blocks) and normal and len(normal[0].blocks):
            assert limited[0].blocks.smem_bytes[0] > normal[0].blocks.smem_bytes[0]

    def test_gathered_blocks_are_warp_sized(self, skewed_ctx):
        trace = BlockReorganizer().build_trace(skewed_ctx, TITAN_XP)
        gathered = [p for p in trace.phases if p.name == "expansion-gathered"]
        if gathered and len(gathered[0].blocks):
            assert np.all(gathered[0].blocks.threads == 32)

    def test_meta_counts(self, skewed_ctx):
        trace = BlockReorganizer().build_trace(skewed_ctx, TITAN_XP)
        assert "n_dominators" in trace.meta
        assert "n_underloaded" in trace.meta
        active = int(np.count_nonzero(skewed_ctx.pair_work))
        assert (
            trace.meta["n_dominators"]
            + trace.meta["n_underloaded"]
            + trace.meta["n_normal"]
            == active
        )


class TestPerformanceShape:
    def test_beats_outer_baseline_on_skewed(self, perf_skewed_ctx):
        sim = GPUSimulator(TITAN_XP)
        outer = OuterProductSpGEMM().simulate(perf_skewed_ctx, sim).total_seconds
        br = BlockReorganizer().simulate(perf_skewed_ctx, sim).total_seconds
        assert br < outer

    def test_improves_expansion_lbi_on_skewed(self, perf_skewed_ctx):
        sim = GPUSimulator(TITAN_XP)
        outer = OuterProductSpGEMM().simulate(perf_skewed_ctx, sim)
        br = BlockReorganizer().simulate(perf_skewed_ctx, sim)
        assert br.lbi("expansion") >= outer.lbi("expansion")

    def test_splitting_factor_sweep_monotone_lbi(self, perf_skewed_ctx):
        sim = GPUSimulator(TITAN_XP)
        lbis = []
        for factor in (1, 8, 64):
            algo = BlockReorganizer(
                options=ReorganizerOptions(splitting_factor=factor, alpha=0.5)
            )
            stats = algo.simulate(perf_skewed_ctx, sim)
            dom = [p for p in stats.phases if p.name == "expansion-dominator"]
            if not dom:
                pytest.skip("no dominators in this draw")
            lbis.append(stats.lbi("expansion"))
        assert lbis[-1] >= lbis[0] - 0.05

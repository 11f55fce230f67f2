"""Metrics tests: LBI, GFLOPS, profiling reports."""

import numpy as np
import pytest

from repro.gpusim.config import TITAN_XP
from repro.gpusim.simulator import GPUSimulator
from repro.metrics.gflops import FLOPS_PER_PRODUCT, gflops
from repro.metrics.lbi import load_balancing_index
from repro.metrics.profiling import profile_report
from repro.spgemm.base import MultiplyContext
from repro.spgemm.outerproduct import OuterProductSpGEMM


class TestLBI:
    def test_balanced(self):
        assert load_balancing_index(np.full(30, 100.0)) == pytest.approx(1.0)

    def test_single_busy_sm(self):
        cycles = np.zeros(30)
        cycles[0] = 100.0
        assert load_balancing_index(cycles) == pytest.approx(1 / 30)

    def test_equal_loads_never_round_above_one(self):
        # The mean of these three equal values rounds one ulp above them.
        assert load_balancing_index(np.full(3, 699051.5144476306)) == 1.0

    def test_idle_gpu(self):
        assert load_balancing_index(np.zeros(30)) == 1.0

    def test_empty(self):
        assert load_balancing_index(np.zeros(0)) == 1.0

    def test_range(self, rng):
        for _ in range(20):
            lbi = load_balancing_index(rng.random(30) * 100)
            assert 0.0 < lbi <= 1.0

    def test_equation3_definition(self, rng):
        cycles = rng.random(16) * 50 + 1
        expected = (cycles / cycles.max()).sum() / 16
        assert load_balancing_index(cycles) == pytest.approx(expected)


class TestGflops:
    def test_definition(self):
        assert gflops(1_000_000, 1e-3) == pytest.approx(FLOPS_PER_PRODUCT * 1e9 / 1e9 / 1.0 * 1e-3 * 1e3)
        assert gflops(500_000_000, 1.0) == pytest.approx(1.0)

    def test_zero_time(self):
        assert gflops(100, 0.0) == 0.0


class TestProfileReport:
    def test_report_fields(self, square_csr):
        ctx = MultiplyContext.build(square_csr)
        stats = OuterProductSpGEMM().simulate(ctx, GPUSimulator(TITAN_XP))
        report = profile_report(stats)
        assert report.algorithm == "outer-product"
        assert report.gpu == "TITAN Xp"
        assert report.total_seconds > 0
        names = {s.stage for s in report.stages}
        assert names == {"expansion", "merge"}
        exp = report.stage("expansion")
        assert 0 < exp.lbi <= 1.0
        assert 0 <= exp.sync_stall_pct <= 100.0
        assert exp.l2_read_gbs >= 0

    def test_unknown_stage_raises(self, square_csr):
        ctx = MultiplyContext.build(square_csr)
        stats = OuterProductSpGEMM().simulate(ctx, GPUSimulator(TITAN_XP))
        with pytest.raises(KeyError):
            profile_report(stats).stage("bogus")

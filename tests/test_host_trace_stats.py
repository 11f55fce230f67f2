"""Tests for the host cost model, kernel traces and stats containers."""

import dataclasses

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpusim.block import BlockArrayBuilder
from repro.gpusim.config import TITAN_XP, XEON_E5_2640V4, XEON_E5_2698V4
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.host import (
    device_precalc_cycles,
    host_classification_seconds,
    host_split_seconds,
)
from repro.gpusim.simulator import GPUSimulator
from repro.gpusim.stats import KernelStats
from repro.gpusim.trace import KernelPhase, KernelTrace


def _blocks(n=4):
    b = BlockArrayBuilder()
    b.add_blocks(
        threads=64,
        effective_threads=np.full(n, 64),
        iters=np.full(n, 5.0),
        ops=np.full(n, 320),
        unique_bytes=np.full(n, 100.0),
        write_bytes=np.full(n, 100.0),
        working_set=np.full(n, 100.0),
        transactions=np.full(n, 5.0),
    )
    return b.build()


class TestHostCosts:
    def test_classification_linear_in_pairs(self):
        one = host_classification_seconds(DEFAULT_COSTS, 1000)
        two = host_classification_seconds(DEFAULT_COSTS, 2000)
        assert two == pytest.approx(2 * one)

    def test_split_linear_in_entries(self):
        one = host_split_seconds(DEFAULT_COSTS, 10_000)
        two = host_split_seconds(DEFAULT_COSTS, 20_000)
        assert two == pytest.approx(2 * one)

    def test_faster_cpu_is_faster(self):
        slow = host_split_seconds(DEFAULT_COSTS, 10_000, cpu=XEON_E5_2640V4)
        fast = host_split_seconds(DEFAULT_COSTS, 10_000, cpu=XEON_E5_2698V4)
        assert fast < slow

    def test_precalc_includes_extra_elements(self):
        base = device_precalc_cycles(DEFAULT_COSTS, 1000, 1000)
        more = device_precalc_cycles(DEFAULT_COSTS, 1000, 1000, extra_elements=5000)
        assert more > base


class TestTrace:
    def test_phase_stage_validated(self):
        with pytest.raises(SimulationError, match="stage"):
            KernelPhase("x", "bogus", _blocks())

    def test_n_blocks(self):
        trace = KernelTrace(
            "t",
            [KernelPhase("a", "expansion", _blocks(3)), KernelPhase("b", "merge", _blocks(2))],
        )
        assert trace.n_blocks == 5

    def test_total_ops_counts_expansion_only(self):
        trace = KernelTrace(
            "t",
            [KernelPhase("a", "expansion", _blocks(3)), KernelPhase("b", "merge", _blocks(2))],
        )
        assert trace.total_ops() == 3 * 320


class TestKernelStats:
    def _stats(self):
        sim = GPUSimulator(TITAN_XP)
        trace = KernelTrace(
            "t",
            [
                KernelPhase("e", "expansion", _blocks(30)),
                KernelPhase("m", "merge", _blocks(10)),
            ],
            host_seconds=1e-6,
            device_setup_cycles=500.0,
        )
        return sim.run(trace)

    def test_kernel_cycles_includes_setup(self):
        stats = self._stats()
        phase_sum = sum(p.makespan_cycles for p in stats.phases)
        assert stats.kernel_cycles == pytest.approx(phase_sum + 500.0)

    def test_total_seconds_includes_host(self):
        stats = self._stats()
        assert stats.total_seconds == pytest.approx(stats.kernel_seconds + 1e-6)

    def test_stage_filtering(self):
        stats = self._stats()
        total = stats.stage_cycles("expansion") + stats.stage_cycles("merge")
        assert stats.kernel_cycles == pytest.approx(total + 500.0)

    def test_sm_busy_stage_filter(self):
        stats = self._stats()
        both = stats.sm_busy_cycles()
        exp = stats.sm_busy_cycles("expansion")
        mrg = stats.sm_busy_cycles("merge")
        assert np.allclose(both, exp + mrg)

    def test_lbi_bounds(self):
        stats = self._stats()
        assert 0.0 < stats.lbi() <= 1.0
        # Equal loads on TITAN Xp's 30 SMs whose mean rounds one ulp above them.
        equal = np.full(TITAN_XP.n_sms, 748310.3892336814)
        phase = dataclasses.replace(stats.phases[0], sm_busy_cycles=equal)
        assert phase.lbi == 1.0
        assert KernelStats(algorithm="x", config=TITAN_XP, phases=[phase]).lbi() == 1.0

    def test_empty_stats(self):
        stats = KernelStats(algorithm="x", config=TITAN_XP)
        assert stats.total_ops == 0
        assert stats.gflops == 0.0
        assert stats.lbi() == 1.0
        assert stats.sync_stall_pct == 0.0
        assert stats.l2_read_gbs() == 0.0

    def test_phase_throughput_getters(self):
        stats = self._stats()
        p = stats.phases[0]
        assert p.seconds(TITAN_XP) > 0
        assert p.l2_read_gbs(TITAN_XP) >= 0
        assert p.l2_write_gbs(TITAN_XP) >= 0

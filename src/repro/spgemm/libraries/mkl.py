"""MKL-like comparator: multithreaded CPU Gustavson.

An analytic cost model for Intel MKL's ``mkl_sparse_sp2m``-style CSR×CSR:
per-product hash/accumulator work on every core in parallel, bounded below by
host memory bandwidth.  No GPU trace is involved; ``simulate`` synthesises a
:class:`KernelStats` whose time lives in ``host_seconds`` so the bench
harness can treat all algorithms uniformly.  The paper measures MKL at 0.48x
of the GPU row-product baseline on average.
"""

from __future__ import annotations

import numpy as np

from repro import kernels, obs
from repro.gpusim.block import BlockArray
from repro.gpusim.config import CPUConfig, GPUConfig, XEON_E5_2640V4
from repro.gpusim.simulator import GPUSimulator
from repro.gpusim.stats import KernelStats, PhaseStats
from repro.gpusim.trace import PHASE_EXPANSION, PHASE_MERGE
from repro.plan.ir import Coverage, ExecutionPlan, PlanPhase
from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm

__all__ = ["MklSpGEMM"]


class MklSpGEMM(SpGEMMAlgorithm):
    """Analytic multicore Gustavson (MKL model)."""

    name = "mkl"

    #: CPU cycles per intermediate product (gather + hash insert + FMA).
    cycles_per_product = 10.0
    #: effective bytes per product against host DRAM.
    bytes_per_product = 22.0
    #: one-time parallel region spin-up.
    parallel_overhead_s = 25e-6

    def __init__(self, *args, cpu: CPUConfig = XEON_E5_2640V4, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cpu = cpu

    def cpu_seconds(self, ctx: MultiplyContext) -> float:
        """Analytic execution time on the configured host CPU."""
        t = ctx.total_work
        compute = t * self.cycles_per_product / (self.cpu.cores * self.cpu.clock_hz)
        memory = t * self.bytes_per_product / (self.cpu.dram_bandwidth_gbs * 1e9)
        # Parallel Gustavson scales with rows; the heaviest row bounds one core.
        heaviest = float(ctx.row_work.max()) if len(ctx.row_work) else 0.0
        straggler = heaviest * self.cycles_per_product / self.cpu.clock_hz
        return max(compute, memory, straggler) + self.parallel_overhead_s

    def lower(self, ctx: MultiplyContext, config: GPUConfig) -> ExecutionPlan:
        """Host-only plan: Gustavson expansion + coalesce on the CPU.

        Both phases are ``device=False`` with empty block arrays, so
        ``to_trace`` yields an empty trace with all time in ``host_seconds``
        while the numeric kernel still runs in row order.
        """
        empty = BlockArray.empty()
        return ExecutionPlan(
            algorithm=self.name,
            phases=[
                PlanPhase(
                    "cpu-expand", PHASE_EXPANSION, empty,
                    covers=Coverage("all"), device=False,
                ),
                PlanPhase(
                    "cpu-merge", PHASE_MERGE, empty,
                    covers=Coverage("all"), device=False,
                ),
            ],
            order=kernels.ROW_ORDER,
            host_seconds=self.cpu_seconds(ctx),
            meta={"cpu": self.cpu.name, "total_work": ctx.total_work},
        )

    def simulate(self, ctx: MultiplyContext, simulator: GPUSimulator) -> KernelStats:
        """Synthesise stats directly (no GPU phases to schedule)."""
        # The other schemes get their simulate span from GPUSimulator.run;
        # this host-only comparator records its own so traces cover all seven.
        with obs.span(f"host.run[{self.name}]", "simulate") as sp:
            stats = KernelStats(
                algorithm=self.name,
                config=simulator.config,
                host_seconds=self.cpu_seconds(ctx),
                meta={"cpu": self.cpu.name},
            )
            sp.add(ops=int(ctx.total_work))
        # Record the useful work as a zero-duration expansion phase so GFLOPS
        # accounting works uniformly across algorithms.
        stats.phases.append(
            PhaseStats(
                name="cpu-gustavson",
                stage="expansion",
                n_blocks=0,
                makespan_cycles=0.0,
                sm_busy_cycles=np.zeros(simulator.config.n_sms),
                sm_finish_cycles=np.zeros(simulator.config.n_sms),
                total_ops=ctx.total_work,
                dram_bytes=ctx.total_work * self.bytes_per_product,
                l2_read_bytes=0.0,
                l2_write_bytes=0.0,
                sync_stall_cycles=0.0,
                busy_cycles=0.0,
                residency=1,
                l2_hit=0.0,
                l1_hit=0.0,
            )
        )
        return stats

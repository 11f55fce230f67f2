"""Simulation result containers: the simulator's answer to ``nvprof``.

:class:`PhaseStats` corresponds to profiling one kernel launch;
:class:`KernelStats` aggregates a whole spGEMM run.  Field names follow the
counters the paper plots: per-SM cycles (Fig 3a), sync-stall percentage
(Fig 13), L2 read/write throughput (Figs 12 and 14), expansion/merge split
(Fig 3c), GFLOPS (Fig 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.config import GPUConfig
from repro.metrics.lbi import load_balancing_index

__all__ = ["PhaseStats", "KernelStats"]


@dataclass
class PhaseStats:
    """Profile of one kernel phase."""

    name: str
    stage: str
    n_blocks: int
    makespan_cycles: float
    sm_busy_cycles: np.ndarray
    sm_finish_cycles: np.ndarray
    total_ops: int
    dram_bytes: float
    l2_read_bytes: float
    l2_write_bytes: float
    sync_stall_cycles: float
    busy_cycles: float
    residency: int
    l2_hit: float
    l1_hit: float

    @property
    def lbi(self) -> float:
        """Load Balancing Index (Equation 3): mean SM time / max SM time."""
        return load_balancing_index(self.sm_busy_cycles)

    @property
    def sync_stall_pct(self) -> float:
        """Share of SM-cycles lost to barrier/lock-step idling, in percent."""
        if self.busy_cycles <= 0:
            return 0.0
        return 100.0 * self.sync_stall_cycles / self.busy_cycles

    def seconds(self, config: GPUConfig) -> float:
        return self.makespan_cycles / config.clock_hz

    def l2_read_gbs(self, config: GPUConfig) -> float:
        """L2 read throughput in GB/s over this phase."""
        t = self.seconds(config)
        return self.l2_read_bytes / t / 1e9 if t > 0 else 0.0

    def l2_write_gbs(self, config: GPUConfig) -> float:
        """L2 write throughput in GB/s over this phase."""
        t = self.seconds(config)
        return self.l2_write_bytes / t / 1e9 if t > 0 else 0.0


@dataclass
class KernelStats:
    """Profile of a complete spGEMM execution on one GPU."""

    algorithm: str
    config: GPUConfig
    phases: list[PhaseStats] = field(default_factory=list)
    host_seconds: float = 0.0
    device_setup_cycles: float = 0.0
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------
    @property
    def kernel_cycles(self) -> float:
        """GPU cycles across all phases plus device-side setup."""
        return sum(p.makespan_cycles for p in self.phases) + self.device_setup_cycles

    @property
    def kernel_seconds(self) -> float:
        return self.kernel_cycles / self.config.clock_hz

    @property
    def total_seconds(self) -> float:
        """End-to-end time including host preprocessing (the paper's metric:
        everything but the host-device transfer)."""
        return self.kernel_seconds + self.host_seconds

    def stage_cycles(self, stage: str) -> float:
        """Total cycles spent in phases of the given stage."""
        return sum(p.makespan_cycles for p in self.phases if p.stage == stage)

    def stage_seconds(self, stage: str) -> float:
        return self.stage_cycles(stage) / self.config.clock_hz

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def total_ops(self) -> int:
        return sum(p.total_ops for p in self.phases if p.stage == "expansion")

    @property
    def gflops(self) -> float:
        """2 FLOPs (multiply + add) per intermediate product over total time."""
        t = self.total_seconds
        return 2.0 * self.total_ops / t / 1e9 if t > 0 else 0.0

    def sm_busy_cycles(self, stage: str | None = None) -> np.ndarray:
        """Per-SM busy cycles, summed across (optionally stage-filtered) phases."""
        out = np.zeros(self.config.n_sms, dtype=np.float64)
        for p in self.phases:
            if stage is None or p.stage == stage:
                out += p.sm_busy_cycles
        return out

    def lbi(self, stage: str | None = None) -> float:
        """Load Balancing Index over all SMs (Equation 3)."""
        return load_balancing_index(self.sm_busy_cycles(stage))

    def sm_utilization(self, stage: str | None = None) -> float:
        """Mean SM busy fraction over the (stage-filtered) makespan."""
        span = sum(
            p.makespan_cycles for p in self.phases if stage is None or p.stage == stage
        )
        if span <= 0:
            return 1.0
        busy = self.sm_busy_cycles(stage)
        return float(np.clip(busy.mean() / span, 0.0, 1.0))

    @property
    def sync_stall_pct(self) -> float:
        """Duration-weighted sync-stall share across all phases."""
        busy = sum(p.busy_cycles for p in self.phases)
        stall = sum(p.sync_stall_cycles for p in self.phases)
        return 100.0 * stall / busy if busy > 0 else 0.0

    def l2_read_gbs(self, stage: str | None = None) -> float:
        """L2 read throughput over the (stage-filtered) execution."""
        t = sum(p.seconds(self.config) for p in self.phases if stage is None or p.stage == stage)
        b = sum(p.l2_read_bytes for p in self.phases if stage is None or p.stage == stage)
        return b / t / 1e9 if t > 0 else 0.0

    def l2_write_gbs(self, stage: str | None = None) -> float:
        """L2 write throughput over the (stage-filtered) execution."""
        t = sum(p.seconds(self.config) for p in self.phases if stage is None or p.stage == stage)
        b = sum(p.l2_write_bytes for p in self.phases if stage is None or p.stage == stage)
        return b / t / 1e9 if t > 0 else 0.0

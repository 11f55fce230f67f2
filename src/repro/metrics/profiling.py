"""nvprof-style profiling report assembled from simulator output.

Collects, per kernel stage, the counters the paper plots: execution time,
per-SM cycle spread (Figure 3a), sync-stall percentage (Figure 13), and L2
read/write throughput (Figures 12 and 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.metrics.lbi import load_balancing_index

if TYPE_CHECKING:  # gpusim.stats imports repro.metrics for the LBI
    from repro.gpusim.stats import KernelStats

__all__ = ["StageProfile", "ProfileReport", "profile_report"]


@dataclass(frozen=True)
class StageProfile:
    """Aggregated counters for one stage (expansion or merge)."""

    stage: str
    seconds: float
    lbi: float
    sm_utilization: float
    sync_stall_pct: float
    l2_read_gbs: float
    l2_write_gbs: float
    n_blocks: int


@dataclass(frozen=True)
class ProfileReport:
    """Full profile of one simulated spGEMM execution."""

    algorithm: str
    gpu: str
    total_seconds: float
    gflops: float
    stages: tuple[StageProfile, ...]

    def stage(self, name: str) -> StageProfile:
        """Look up one stage's profile by name."""
        for s in self.stages:
            if s.stage == name:
                return s
        raise KeyError(name)


def profile_report(stats: KernelStats) -> ProfileReport:
    """Build a :class:`ProfileReport` from simulated kernel stats."""
    stages = []
    for stage_name in ("expansion", "merge"):
        phases = [p for p in stats.phases if p.stage == stage_name]
        if not phases:
            continue
        busy = stats.sm_busy_cycles(stage_name)
        seconds = stats.stage_seconds(stage_name)
        stall_num = sum(p.sync_stall_cycles for p in phases)
        stall_den = sum(p.busy_cycles for p in phases)
        stages.append(
            StageProfile(
                stage=stage_name,
                seconds=seconds,
                lbi=load_balancing_index(busy),
                sm_utilization=stats.sm_utilization(stage_name),
                sync_stall_pct=100.0 * stall_num / stall_den if stall_den else 0.0,
                l2_read_gbs=stats.l2_read_gbs(stage_name),
                l2_write_gbs=stats.l2_write_gbs(stage_name),
                n_blocks=sum(p.n_blocks for p in phases),
            )
        )
    return ProfileReport(
        algorithm=stats.algorithm,
        gpu=stats.config.name,
        total_seconds=stats.total_seconds,
        gflops=stats.gflops,
        stages=tuple(stages),
    )

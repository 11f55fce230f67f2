"""Numeric-plane profiling: aggregate an instrumented plan execution.

The performance plane's counters come from the simulator; this module covers
the *other* plane.  :meth:`~repro.spgemm.base.SpGEMMAlgorithm.profile_plan`
executes a lowered :class:`~repro.plan.ir.ExecutionPlan` numerically and
records one :class:`~repro.plan.ir.PhaseExecution` per phase (op counts,
wall time, descriptor-accounted bytes); :func:`plan_profile` folds those into
per-stage totals so the two planes can be compared phase for phase.

The plan cache's amortisation counters (:class:`PlanCacheStats`, re-exported
from :mod:`repro.plan.cache`) also surface here: :func:`format_cache_stats`
renders them for ``repro run --iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.plan.cache import PlanCacheStats
from repro.plan.ir import PhaseExecution

__all__ = [
    "PlanStageProfile",
    "PlanProfile",
    "plan_profile",
    "PlanCacheStats",
    "format_cache_stats",
]


def format_cache_stats(stats: PlanCacheStats) -> str:
    """One-line human-readable rendering of plan-cache counters."""
    line = (
        f"plan cache: {stats.lookups} lookups, {stats.hits} hits "
        f"({stats.hit_rate:.0%}), {stats.lowers} lowerings, "
        f"{stats.symbolic_expansions} symbolic expansions, "
        f"{stats.numeric_replays} numeric replays"
    )
    if stats.evictions:
        line += f", {stats.evictions} evictions ({stats.evicted_bytes} B)"
    return line


@dataclass(frozen=True)
class PlanStageProfile:
    """Aggregated numeric-execution counters for one stage."""

    stage: str
    n_phases: int
    n_blocks: int
    ops: int
    seconds: float
    bytes_touched: float


@dataclass(frozen=True)
class PlanProfile:
    """Per-stage rollup of one instrumented plan execution."""

    algorithm: str
    total_ops: int
    total_seconds: float
    stages: tuple[PlanStageProfile, ...]

    def stage(self, name: str) -> PlanStageProfile:
        """Look up one stage's rollup by name."""
        for s in self.stages:
            if s.stage == name:
                return s
        raise KeyError(name)


def plan_profile(algorithm: str, records: Sequence[PhaseExecution]) -> PlanProfile:
    """Fold per-phase execution records into a :class:`PlanProfile`."""
    stages = []
    for stage_name in ("expansion", "merge", "setup"):
        phases = [r for r in records if r.stage == stage_name]
        if not phases:
            continue
        stages.append(
            PlanStageProfile(
                stage=stage_name,
                n_phases=len(phases),
                n_blocks=sum(r.n_blocks for r in phases),
                ops=sum(r.ops for r in phases),
                seconds=sum(r.seconds for r in phases),
                bytes_touched=sum(r.bytes_touched for r in phases),
            )
        )
    return PlanProfile(
        algorithm=algorithm,
        total_ops=sum(r.ops for r in records if r.stage == "expansion"),
        total_seconds=sum(r.seconds for r in records),
        stages=tuple(stages),
    )

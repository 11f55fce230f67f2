"""ExecutionPlan IR: one lowering per scheme, two planes derived from it.

Schemes implement ``lower(ctx, config) -> ExecutionPlan``; the shared
executors in :class:`~repro.spgemm.base.SpGEMMAlgorithm` derive the numeric
result (:meth:`~repro.plan.ir.ExecutionPlan.execute`, which runs the one
kernel :func:`repro.kernels.spgemm` after checking each phase's
:class:`~repro.plan.ir.Coverage` against its blocks) and the simulator trace
(:meth:`~repro.plan.ir.ExecutionPlan.to_trace`) from the same plan, so the
two planes stay consistent by construction.  Reorganisation techniques are
:class:`~repro.plan.passes.PlanPass` transformations over plans.
"""

from repro.plan.cache import (
    NumericRecipe,
    PlanCache,
    PlanCacheStats,
    structure_fingerprint,
)
from repro.plan.ir import Coverage, ExecutionPlan, PhaseExecution, PlanPhase
from repro.plan.passes import (
    ClassifyPass,
    GatherPass,
    LimitPass,
    PlanPass,
    SplitPass,
    gathered_blocks,
)
from repro.plan.show import format_executions, format_plan

__all__ = [
    "PlanCache",
    "PlanCacheStats",
    "NumericRecipe",
    "structure_fingerprint",
    "Coverage",
    "ExecutionPlan",
    "PhaseExecution",
    "PlanPhase",
    "PlanPass",
    "ClassifyPass",
    "SplitPass",
    "GatherPass",
    "LimitPass",
    "gathered_blocks",
    "format_plan",
    "format_executions",
]

"""repro.runtime — the reusable execution layer beneath every front-end.

The CLI subcommands and the :mod:`repro.serve` server are both thin
adapters over one :class:`Runtime`: a facade owning dataset contexts, warm
plan caches (one scheme-bound :class:`~repro.plan.cache.PlanCache` per
tenant and scheme instance, keyed by structure fingerprint and sized by
the reuse depth it measures), bench-runner defaults and trace wiring,
with deterministic startup/shutdown (see :mod:`repro.runtime.lifecycle`
for the signal-safe teardown path).
"""

from repro.runtime.config import (
    DEFAULT_PLAN_CACHE_ENTRIES,
    RuntimeConfig,
    gpu_by_name,
)
from repro.runtime.core import (
    IterationReport,
    MultiplyOutcome,
    Runtime,
    RuntimeStats,
)

__all__ = [
    "DEFAULT_PLAN_CACHE_ENTRIES",
    "IterationReport",
    "MultiplyOutcome",
    "Runtime",
    "RuntimeConfig",
    "RuntimeStats",
    "gpu_by_name",
]

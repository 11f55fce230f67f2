"""repro.runtime — the reusable execution layer beneath every front-end.

The CLI subcommands and the :mod:`repro.serve` server are both thin
adapters over one :class:`Runtime`: a facade owning dataset contexts, warm
session pools (scheme-bound :class:`~repro.plan.cache.PlanCache` instances
keyed by tenant, scheme instance and structure fingerprint), bench-runner
defaults and trace wiring, with deterministic startup/shutdown (see
:mod:`repro.runtime.lifecycle` for the signal-safe teardown path).
"""

from repro.runtime.config import (
    DEFAULT_PLAN_CACHE_ENTRIES,
    DEFAULT_SESSIONS_PER_TENANT,
    RuntimeConfig,
    gpu_by_name,
)
from repro.runtime.core import (
    IterationReport,
    MultiplyOutcome,
    PooledSession,
    Runtime,
    RuntimeStats,
)

__all__ = [
    "DEFAULT_PLAN_CACHE_ENTRIES",
    "DEFAULT_SESSIONS_PER_TENANT",
    "IterationReport",
    "MultiplyOutcome",
    "PooledSession",
    "Runtime",
    "RuntimeConfig",
    "RuntimeStats",
    "gpu_by_name",
]

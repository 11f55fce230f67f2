"""Configuration for a :class:`~repro.runtime.Runtime`.

Before this layer existed, execution configuration was scattered: the CLI
mutated process-wide bench-runner defaults and wired trace recorders by
hand — each subcommand slightly differently.  :class:`RuntimeConfig` is
the one place all of those knobs now live; a
:class:`~repro.runtime.core.Runtime` built from it owns their lifetimes.

:func:`RuntimeConfig.from_args` maps an argparse namespace (any ``repro``
subcommand's) onto a config, so every CLI entry point — and ``repro serve``
— resolves flags the same way.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError, ReproError
from repro.gpusim.config import ALL_GPUS, TITAN_XP, GPUConfig

__all__ = ["RuntimeConfig", "gpu_by_name"]

#: Default LRU bound for each pooled session's :class:`PlanCache` — small,
#: because pooled sessions are keyed by structure fingerprint and therefore
#: hold entries for a handful of structures each (plan + semiring variants).
DEFAULT_PLAN_CACHE_ENTRIES = 64

#: Default per-tenant cap on pooled warm sessions (the per-tenant plan-cache
#: quota: evicting a session drops its cached plans and recipes).
DEFAULT_SESSIONS_PER_TENANT = 32


def gpu_by_name(name: str) -> GPUConfig:
    """Resolve a GPU by (whitespace-insensitive) name, e.g. ``"Tesla V100"``."""
    for gpu in ALL_GPUS:
        if gpu.name.lower().replace(" ", "") == name.lower().replace(" ", ""):
            return gpu
    raise ReproError(f"unknown GPU {name!r}; known: {[g.name for g in ALL_GPUS]}")


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything a :class:`Runtime` needs to know about how to execute.

    Attributes:
        gpu: default lowering/simulation target.
        workers: bench-grid process-pool width (0 = all cores).
        cache_dir: persistent result-cache directory (``None`` = default).
        use_result_cache: consult/populate the persistent bench result cache.
        shard_timeout: bench-shard no-progress window in seconds (``None``
            keeps the runner's default).
        plan_cache_entries: LRU ``max_entries`` for each pooled session's
            :class:`~repro.plan.cache.PlanCache` (``None`` = unbounded).
        sessions_per_tenant: LRU cap on warm sessions pooled per tenant.
        mem_budget: out-of-core memory budget in bytes (``None`` = in-memory
            execution); numeric multiplies route through
            :func:`repro.oocore.chunked_multiply` when set.
        spill_dir: base directory for the out-of-core spill store
            (``None`` = ``$TMPDIR``).
        full_scale: resolve dataset names at the paper's published scale
            (the catalog's ``@full`` variants) instead of the stand-ins.
    """

    gpu: GPUConfig = field(default_factory=lambda: TITAN_XP)
    workers: int = 1
    cache_dir: str | None = None
    use_result_cache: bool = True
    shard_timeout: float | None = None
    plan_cache_entries: int | None = DEFAULT_PLAN_CACHE_ENTRIES
    sessions_per_tenant: int = DEFAULT_SESSIONS_PER_TENANT
    mem_budget: int | None = None
    spill_dir: str | None = None
    full_scale: bool = False

    def __post_init__(self) -> None:
        if self.sessions_per_tenant < 1:
            raise ConfigurationError(
                f"sessions_per_tenant must be >= 1, got {self.sessions_per_tenant}"
            )
        if self.mem_budget is not None and self.mem_budget <= 0:
            raise ConfigurationError(
                f"mem_budget must be positive, got {self.mem_budget}"
            )

    @property
    def resolved_workers(self) -> int:
        """Bench-grid pool width with 0 resolved to the core count."""
        from repro.bench.parallel import default_workers

        return default_workers() if self.workers == 0 else max(1, self.workers)

    @property
    def resolved_exec_workers(self) -> int:
        """Numeric-kernel width: always 1 (recorded by ``perfbench/run.py``)."""
        return 1

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RuntimeConfig":
        """Build a config from any ``repro`` subcommand's parsed flags.

        Flags a subcommand does not define fall back to the dataclass
        defaults, so one mapping serves ``run``, the grid commands (full
        execution flags) and ``serve``.
        """
        base = cls()
        fields: dict = {}
        if getattr(args, "gpu", None) is not None:
            fields["gpu"] = gpu_by_name(args.gpu)
        for name in (
            "workers",
            "cache_dir",
            "shard_timeout",
            "plan_cache_entries",
            "sessions_per_tenant",
            "spill_dir",
        ):
            value = getattr(args, name, None)
            if value is not None:
                fields[name] = value
        budget = getattr(args, "mem_budget", None)
        if budget is not None:
            # Lazy import: repro.oocore pulls in the runtime package, so a
            # top-level import here would be circular.
            from repro.oocore.budget import parse_mem_budget

            fields["mem_budget"] = parse_mem_budget(budget)
        if getattr(args, "no_cache", False):
            fields["use_result_cache"] = False
        if getattr(args, "full_scale", False):
            fields["full_scale"] = True
        return replace(base, **fields)

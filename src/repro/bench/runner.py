"""Bench runner: evaluate algorithms over datasets and GPUs.

Centralises the expensive parts — dataset generation and the per-dataset
:class:`MultiplyContext` (whose symbolic pass costs one full expansion) — so
every experiment module reuses them.  All experiments in
:mod:`repro.bench.experiments` go through :func:`run_matrix` or
:func:`get_context`.

:func:`run_matrix` is also the execution engine's front door: it consults the
persistent :class:`~repro.bench.cache.ResultCache` cell by cell, shards the
remaining (dataset × algorithm) grid across a process pool when ``workers``
allows (see :mod:`repro.bench.parallel`), and merges everything back in
deterministic grid order.  :func:`configure` sets process-wide defaults so
entry points (CLI flags, bench conftest) can opt whole runs into caching and
sharding without threading arguments through every experiment module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import obs
from repro.bench.cache import ResultCache
from repro.bench.fingerprint import cell_key, context_key
from repro.core.reorganizer import BlockReorganizer, ReorganizerOptions
from repro.datasets.catalog import get_spec
from repro.datasets.loader import load
from repro.errors import FingerprintError
from repro.gpusim.config import GPUConfig, TITAN_XP
from repro.gpusim.costs import CostModel, DEFAULT_COSTS
from repro.gpusim.simulator import GPUSimulator
from repro.gpusim.stats import KernelStats
from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm
from repro.spgemm.libraries import (
    BhSparseSpGEMM,
    CuspSpGEMM,
    CuSparseSpGEMM,
    MklSpGEMM,
)
from repro.spgemm.outerproduct import OuterProductSpGEMM
from repro.spgemm.rowproduct import RowProductSpGEMM

__all__ = [
    "BenchResult",
    "RunSummary",
    "configure",
    "get_context",
    "clear_context_cache",
    "last_run_summary",
    "paper_algorithms",
    "ablation_algorithms",
    "run_matrix",
]

#: Keyed by ``(dataset name, recipe fingerprint)`` — never by name alone, so a
#: respecified dataset (changed generator params or seed) can't be served a
#: stale context.  See tests/test_bench_cache.py::TestContextCacheAudit.
_CTX_CACHE: dict[tuple[str, str], MultiplyContext] = {}


def get_context(dataset_name: str) -> MultiplyContext:
    """Load a dataset and build (or reuse) its multiply context."""
    spec = get_spec(dataset_name)
    key = (dataset_name, context_key(spec))
    if key not in _CTX_CACHE:
        with obs.span(f"context.build[{dataset_name}]", "data") as sp:
            ds = load(dataset_name)
            ctx = MultiplyContext.build(ds.a, ds.b)
            with obs.span(f"context.symbolic[{dataset_name}]", "data") as sym:
                ctx.c_row_nnz  # force the symbolic pass once, outside any timing
                sym.add(products=int(ctx.total_work), nnz_c=int(ctx.nnz_c))
            sp.add(nnz_a=ctx.a_csr.nnz, nnz_c=int(ctx.nnz_c))
        _CTX_CACHE[key] = ctx
    return _CTX_CACHE[key]


def clear_context_cache() -> None:
    """Drop cached contexts (benches over many datasets bound memory)."""
    _CTX_CACHE.clear()


def paper_algorithms(costs: CostModel = DEFAULT_COSTS) -> list[SpGEMMAlgorithm]:
    """The seven schemes of Figures 8/9, in the paper's legend order."""
    return [
        RowProductSpGEMM(costs),
        OuterProductSpGEMM(costs),
        CuSparseSpGEMM(costs),
        CuspSpGEMM(costs),
        BhSparseSpGEMM(costs),
        MklSpGEMM(costs),
        BlockReorganizer(costs),
    ]


def ablation_algorithms(costs: CostModel = DEFAULT_COSTS) -> dict[str, SpGEMMAlgorithm]:
    """Per-technique variants of Figure 10 (plus the full Reorganizer)."""
    return {
        "B-Limiting": BlockReorganizer(
            costs, options=ReorganizerOptions(enable_splitting=False, enable_gathering=False)
        ),
        "B-Splitting": BlockReorganizer(
            costs, options=ReorganizerOptions(enable_gathering=False, enable_limiting=False)
        ),
        "B-Gathering": BlockReorganizer(
            costs, options=ReorganizerOptions(enable_splitting=False, enable_limiting=False)
        ),
        "Block-Reorganizer": BlockReorganizer(costs),
    }


@dataclass(frozen=True)
class BenchResult:
    """One (algorithm, dataset, GPU) measurement."""

    dataset: str
    algorithm: str
    gpu: str
    seconds: float
    gflops: float
    stats: KernelStats

    def speedup_over(self, baseline: "BenchResult") -> float:
        """Wall-time speedup of this result relative to ``baseline``."""
        return baseline.seconds / self.seconds if self.seconds > 0 else float("inf")


# ----------------------------------------------------------------------
# Process-wide execution defaults
# ----------------------------------------------------------------------
@dataclass
class _RunnerDefaults:
    workers: int = 1
    cache: ResultCache | None = None
    shard_timeout: float | None = 300.0


_DEFAULTS = _RunnerDefaults()
_UNSET = object()


def configure(
    *, workers: int | None = None, cache=_UNSET, shard_timeout=_UNSET
) -> None:
    """Set defaults used when :func:`run_matrix` arguments are omitted.

    ``workers`` is clamped to at least 1; ``cache`` is a
    :class:`ResultCache` or None (caching off); ``shard_timeout`` is the
    parallel engine's no-progress window in seconds (None disables it).
    Entry points call this once (e.g. from CLI flags) so every experiment
    module inherits the behaviour.
    """
    if workers is not None:
        _DEFAULTS.workers = max(1, int(workers))
    if cache is not _UNSET:
        _DEFAULTS.cache = cache
    if shard_timeout is not _UNSET:
        _DEFAULTS.shard_timeout = None if shard_timeout is None else float(shard_timeout)


@dataclass
class RunSummary:
    """Execution accounting for one :func:`run_matrix` call.

    ``cells`` is the full grid size, ``cache_hits`` the cells served by the
    persistent result cache, ``computed`` the cells actually simulated this
    run.  ``shard_timeouts`` counts shards the parallel engine declared hung
    and re-ran serially; ``pool_failures`` counts whole-pool breakdowns that
    triggered the serial fallback.
    """

    datasets: int = 0
    cells: int = 0
    cache_hits: int = 0
    computed: int = 0
    shard_timeouts: int = 0
    pool_failures: int = 0


_LAST_SUMMARY = RunSummary()


def last_run_summary() -> RunSummary:
    """The accounting record of the most recent :func:`run_matrix` call."""
    return _LAST_SUMMARY


def _labelled(
    algorithms: Sequence[SpGEMMAlgorithm] | Mapping[str, SpGEMMAlgorithm],
) -> list[tuple[str, SpGEMMAlgorithm]]:
    """Normalise the algorithm roster to ``(label, algorithm)`` pairs.

    A mapping gives explicit labels, which the ablation rosters need — every
    Block Reorganizer variant shares ``name == "block-reorganizer"``.
    """
    if isinstance(algorithms, Mapping):
        return list(algorithms.items())
    return [(algo.name, algo) for algo in algorithms]


def _make_result(
    name: str, label: str, gpu: GPUConfig, stats: KernelStats
) -> BenchResult:
    return BenchResult(
        dataset=name,
        algorithm=label,
        gpu=gpu.name,
        seconds=stats.total_seconds,
        gflops=stats.gflops,
        stats=stats,
    )


def _run_serial(
    pending: dict[str, list[tuple[str, SpGEMMAlgorithm]]],
    gpu: GPUConfig,
    costs: CostModel | None,
) -> dict[tuple[str, str], BenchResult]:
    """Evaluate the remaining cells in-process (the ``workers=1`` path)."""
    simulator = GPUSimulator(gpu, costs or DEFAULT_COSTS)
    out: dict[tuple[str, str], BenchResult] = {}
    for name, cells in pending.items():
        ctx = get_context(name)
        for label, algo in cells:
            out[(name, label)] = _make_result(name, label, gpu, algo.simulate(ctx, simulator))
    return out


def run_matrix(
    datasets: list[str],
    algorithms: Sequence[SpGEMMAlgorithm] | Mapping[str, SpGEMMAlgorithm],
    gpu: GPUConfig = TITAN_XP,
    costs: CostModel | None = None,
    *,
    workers: int | None = None,
    cache: ResultCache | None = _UNSET,  # type: ignore[assignment]
    shard_timeout: float | None = _UNSET,  # type: ignore[assignment]
) -> dict[tuple[str, str], BenchResult]:
    """Simulate every algorithm on every dataset.

    Args:
        datasets: catalog names to evaluate.
        algorithms: a sequence (labelled by ``algo.name``) or an explicit
            ``label -> algorithm`` mapping.
        gpu: simulated hardware configuration.
        costs: the simulator's cost model (defaults to ``DEFAULT_COSTS``).
        workers: process-pool width; ``None`` uses the :func:`configure`
            default, 1 runs serially in-process.
        cache: a :class:`ResultCache` to consult/populate, ``None`` to
            disable; omitted uses the :func:`configure` default.
        shard_timeout: parallel no-progress window in seconds before
            outstanding shards are declared hung and re-run serially;
            omitted uses the :func:`configure` default, None disables.

    Returns a dict keyed by ``(dataset, label)`` in deterministic grid order
    (datasets outer, algorithms inner) regardless of execution order, with
    identical results across the serial, parallel and cached paths.
    Accounting for the call is readable afterwards via
    :func:`last_run_summary`; with tracing on (:mod:`repro.obs`) the whole
    call records under a ``bench.run_matrix`` span whose aggregated tree is
    identical for the serial and sharded paths.
    """
    global _LAST_SUMMARY
    labelled = _labelled(algorithms)
    eff_workers = _DEFAULTS.workers if workers is None else max(1, int(workers))
    eff_cache = _DEFAULTS.cache if cache is _UNSET else cache
    eff_timeout = _DEFAULTS.shard_timeout if shard_timeout is _UNSET else shard_timeout
    summary = RunSummary(datasets=len(datasets), cells=len(datasets) * len(labelled))
    _LAST_SUMMARY = summary

    with obs.span("bench.run_matrix", "bench") as run_sp:
        # Phase 1: consult the cache cell by cell.
        results: dict[tuple[str, str], BenchResult] = {}
        keys: dict[tuple[str, str], str | None] = {}
        cache_sp = obs.span("bench.cache", "bench") if eff_cache is not None else obs.NULL_SPAN
        with cache_sp:
            for name in datasets:
                spec = get_spec(name)
                for label, algo in labelled:
                    cell = (name, label)
                    if eff_cache is None:
                        keys[cell] = None
                        continue
                    try:
                        keys[cell] = cell_key(spec, algo, label, gpu, costs or DEFAULT_COSTS)
                    except FingerprintError:
                        keys[cell] = None  # stateful scheme: always recompute
                        continue
                    hit = eff_cache.get(keys[cell])
                    if hit is not None:
                        results[cell] = hit
            summary.cache_hits = len(results)
            cache_sp.add(hits=len(results), misses=summary.cells - len(results))

        # Phase 2: evaluate the misses, sharded across workers when allowed.
        pending: dict[str, list[tuple[str, SpGEMMAlgorithm]]] = {}
        for name in datasets:
            todo = [(label, algo) for label, algo in labelled if (name, label) not in results]
            if todo:
                pending[name] = todo
        if pending:
            if eff_workers > 1 and len(pending) > 1:
                from repro.bench.parallel import run_sharded

                computed = run_sharded(
                    pending, gpu, costs, eff_workers,
                    timeout=eff_timeout, summary=summary,
                )
            else:
                computed = _run_serial(pending, gpu, costs)
            summary.computed = len(computed)
            for cell, res in computed.items():
                results[cell] = res
                if eff_cache is not None and keys.get(cell):
                    eff_cache.put(keys[cell], res)
        run_sp.add(datasets=summary.datasets, cells=summary.cells)

    # Phase 3: deterministic merge order, independent of completion order.
    return {
        (name, label): results[(name, label)]
        for name in datasets
        for label, _ in labelled
    }

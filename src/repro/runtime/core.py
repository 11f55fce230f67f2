"""The :class:`Runtime` facade: one object that owns warm state and its lifecycle.

Everything a front-end needs to execute work — dataset contexts, algorithm
instances, warm plan caches (one scheme-bound
:class:`~repro.plan.cache.PlanCache` per tenant and scheme, keyed by
sparsity-structure fingerprint), bench-runner defaults and trace
recording — is constructed, cached and *shut down* here.  The CLI
subcommands and the :mod:`repro.serve` front-end are thin adapters over
this one class; neither constructs a cache directly.

Lifecycle::

    with Runtime(RuntimeConfig()) as rt:
        stats = rt.simulate("poisson3da", "block-reorganizer")
        outcome = rt.multiply("row-product", a, b, tenant="alice")
    # every cache's recipes dropped, its counters kept

Each ``(tenant, scheme instance)`` pair has one warm cache remembering
at most :attr:`RuntimeConfig.plan_cache_entries` structures.  It keeps
the recipes of as many reused structures as its tenant's measured reuse
depth needs, so structures the tenant has finished with lose their
recipes (see :class:`~repro.plan.cache.PlanCache`); one tenant's
structure churn evicts its *own* recipes and can never evict another
tenant's.  :meth:`Runtime.stats` reports the recipes' bytes as
``recipe_bytes``.  A registry name resolves to the runtime's one
instance of that scheme, so named callers share warm caches; a caller's
own instance gets its own cache, so two differently-configured instances
never serve each other's recipes.  The cache itself serialises concurrent
callers of one structure and lets distinct structures proceed in
parallel.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro import obs
from repro.bench import runner
from repro.bench.cache import ResultCache
from repro.errors import ReproError
from repro.gpusim.config import GPUConfig
from repro.gpusim.simulator import GPUSimulator
from repro.gpusim.stats import KernelStats
from repro.obs.counters import counter, gauge, section
from repro.obs.serving import NULL_REQUEST_TRACE
from repro.plan.cache import PlanCache, PlanCacheStats, structure_fingerprint
from repro.runtime.config import RuntimeConfig
from repro.sparse.csr import CSRMatrix
from repro.spgemm.base import SpGEMMAlgorithm

__all__ = [
    "IterationReport",
    "MultiplyOutcome",
    "Runtime",
    "RuntimeStats",
]


@dataclass(frozen=True)
class MultiplyOutcome:
    """A multiply result plus how the runtime served it."""

    result: CSRMatrix
    fingerprint: str
    replayed: bool
    tenant: str


@dataclass
class RuntimeStats:
    """A point-in-time snapshot of one runtime's serving state."""

    recipes: int = gauge("Recipes cached across all tenants and schemes.")
    recipe_bytes: int = gauge(
        "Bytes retained by cached recipes across all tenants and schemes.", unit="bytes"
    )
    tenants: dict[str, int] = gauge("Recipes cached per tenant.", label="tenant")
    plan_cache: PlanCacheStats = section(PlanCacheStats)
    requests: int = counter("Multiplies and app calls the runtime has served.")


@dataclass(frozen=True)
class IterationReport:
    """Wall-clock record of an N-iteration fixed-structure numeric loop."""

    seconds: list[float]
    stats: PlanCacheStats

    @property
    def cold_seconds(self) -> float:
        return self.seconds[0]

    @property
    def warm_mean_seconds(self) -> float:
        warm = self.seconds[1:]
        return sum(warm) / len(warm) if warm else 0.0


class Runtime:
    """Owns every execution resource; front-ends stay declarative.

    Thread-safety: the cache registry and stats are guarded by an internal
    lock, and each :class:`PlanCache` is safe to share between threads, so
    one runtime can serve concurrent request streams (``repro.serve``
    does).  ``close()`` is idempotent and safe to call from signal handlers.
    """

    def __init__(self, config: RuntimeConfig | None = None) -> None:
        self.config = config if config is not None else RuntimeConfig()
        self._lock = threading.RLock()
        self._caches: dict[tuple[str, SpGEMMAlgorithm], PlanCache] = {}
        self._requests = 0
        self._algos: dict[str, SpGEMMAlgorithm] | None = None
        self._last_ooc_stats = None
        self._closed = False
        self._result_cache: ResultCache | None = (
            ResultCache(self.config.cache_dir) if self.config.use_result_cache else None
        )

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drop every warm cache's recipes, keeping its counters.

        Idempotent; also invoked by the shutdown hooks
        (:mod:`repro.runtime.lifecycle`) on SIGINT/SIGTERM/exit.  Later
        work raises :class:`~repro.errors.ReproError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for cache in self._caches.values():
                cache.clear()

    def _require_open(self) -> None:
        if self._closed:
            raise ReproError("runtime is closed")

    # -- bench-runner defaults -----------------------------------------
    @contextmanager
    def runner_scope(self):
        """Apply this runtime's bench-runner defaults, restoring on exit.

        The experiment modules call :func:`repro.bench.runner.run_matrix`
        with no arguments and rely on process-wide defaults; this scope is
        how a runtime's configuration reaches them without leaking into
        later in-process callers (tests, embedders).
        """
        self._require_open()
        d = runner._DEFAULTS
        saved = (d.workers, d.cache, d.shard_timeout)
        kwargs = dict(workers=self.config.resolved_workers, cache=self._result_cache)
        if self.config.shard_timeout is not None:
            kwargs["shard_timeout"] = self.config.shard_timeout
        runner.configure(**kwargs)
        try:
            yield self
        finally:
            runner.configure(workers=saved[0], cache=saved[1], shard_timeout=saved[2])

    @property
    def result_cache(self) -> ResultCache | None:
        """The persistent bench result cache, or ``None`` when disabled."""
        return self._result_cache

    # -- datasets and algorithms ---------------------------------------
    def resolve_dataset(self, dataset: str) -> str:
        """Apply the config's full-scale switch to a dataset name.

        With :attr:`RuntimeConfig.full_scale` set, bare catalog names gain
        the ``@full`` suffix so every load in this runtime resolves at the
        paper's published scale; already-suffixed names pass through.
        """
        from repro.datasets.catalog import FULL_SCALE_SUFFIX

        if self.config.full_scale and not dataset.endswith(FULL_SCALE_SUFFIX):
            return dataset + FULL_SCALE_SUFFIX
        return dataset

    def context(self, dataset: str):
        """Load a dataset's (cached) multiply context."""
        self._require_open()
        return runner.get_context(self.resolve_dataset(dataset))

    def algorithms(self) -> dict[str, SpGEMMAlgorithm]:
        """The seven paper schemes, resolved once and shared.

        One instance per name per runtime, so every caller naming a scheme
        lands on the same warm caches.
        """
        with self._lock:
            if self._algos is None:
                self._algos = {a.name: a for a in runner.paper_algorithms()}
            return self._algos

    def algorithm(self, name: str) -> SpGEMMAlgorithm:
        """Resolve a scheme by CLI/request name."""
        algos = self.algorithms()
        if name not in algos:
            raise ReproError(
                f"unknown algorithm {name!r}; known: {sorted(algos)}"
            )
        return algos[name]

    # -- performance plane ---------------------------------------------
    def simulate(
        self, dataset: str, algorithm: str, gpu: GPUConfig | None = None
    ) -> KernelStats:
        """Simulate one (dataset, algorithm) cell on the configured GPU."""
        self._require_open()
        algo = self.algorithm(algorithm)
        ctx = self.context(dataset)
        return algo.simulate(ctx, GPUSimulator(gpu or self.config.gpu))

    # -- numeric plane: warm caches ------------------------------------
    def cache(self, algorithm: str | SpGEMMAlgorithm, tenant: str = "default") -> PlanCache:
        """The warm plan cache of ``(tenant, scheme instance)``.

        A name resolves to the runtime's one instance (:meth:`algorithm`);
        an instance gets its own cache.  Created on first use, remembering
        at most :attr:`RuntimeConfig.plan_cache_entries` structures.
        """
        self._require_open()
        algo = (
            self.algorithm(algorithm) if isinstance(algorithm, str) else algorithm
        )
        with self._lock:
            cache = self._caches.get((tenant, algo))
            if cache is None:
                cache = PlanCache(algo, max_entries=self.config.plan_cache_entries)
                self._caches[(tenant, algo)] = cache
            return cache

    def _on_cache(self, algorithm, tenant: str, trace, work):
        """``work(cache)`` on the tenant's warm cache, traced and counted."""
        with trace.stage("session"):
            cache = self.cache(algorithm, tenant)
        with trace.stage("numeric"):
            result = work(cache)
        with self._lock:
            self._requests += 1
        return result

    def multiply(
        self,
        algorithm: str | SpGEMMAlgorithm,
        a: CSRMatrix,
        b: CSRMatrix | None = None,
        *,
        tenant: str = "default",
        trace=NULL_REQUEST_TRACE,
        fingerprint: str | None = None,
    ) -> MultiplyOutcome:
        """``a @ b`` on the tenant's warm cache for ``algorithm``.

        The outcome records whether the request was served by numeric
        replay (a prior request with this structure paid the symbolic
        work) — the amortisation signal ``repro.serve`` reports per request.
        ``trace`` (a :class:`~repro.obs.serving.RequestTrace`) receives the
        ``session`` (cache lookup) and ``numeric`` (the multiply, including
        any wait behind a same-structure call) stages.  ``fingerprint`` is
        :func:`~repro.plan.cache.structure_fingerprint` of the operands
        when the caller already hashed them (the server does); it is
        computed when absent.
        """
        if fingerprint is None:
            fingerprint = structure_fingerprint(a, a if b is None else b)
        if self.config.mem_budget is not None:
            with trace.stage("numeric"):
                result, _ = self.multiply_chunked_operands(algorithm, a, b)
            with self._lock:
                self._requests += 1
            trace.add(replayed=0)
            return MultiplyOutcome(
                result=result, fingerprint=fingerprint, replayed=False, tenant=tenant
            )
        result, replayed = self._on_cache(
            algorithm, tenant, trace, lambda cache: cache.run(a, b, fingerprint=fingerprint)
        )
        trace.add(replayed=int(replayed))
        return MultiplyOutcome(
            result=result,
            fingerprint=fingerprint,
            replayed=replayed,
            tenant=tenant,
        )

    # -- numeric plane: out-of-core ------------------------------------
    def multiply_chunked_operands(
        self,
        algorithm: str | SpGEMMAlgorithm,
        a: CSRMatrix,
        b: CSRMatrix | None = None,
    ):
        """``a @ b`` through the out-of-core chunked executor.

        Uses the config's :attr:`~RuntimeConfig.mem_budget` and
        :attr:`~RuntimeConfig.spill_dir`; returns ``(result, OocStats)``
        (bit-identical to the in-memory path).  The stats of the most
        recent chunked multiply are kept for :meth:`ooc_stats`.
        """
        from repro.oocore import chunked_multiply

        self._require_open()
        if self.config.mem_budget is None:
            raise ReproError("runtime has no mem_budget configured")
        algo = (
            self.algorithm(algorithm) if isinstance(algorithm, str) else algorithm
        )
        result, stats = chunked_multiply(
            algo,
            a,
            b,
            mem_budget=self.config.mem_budget,
            spill_dir=self.config.spill_dir,
        )
        with self._lock:
            self._last_ooc_stats = stats
        return result, stats

    def multiply_chunked(self, dataset: str, algorithm: str):
        """One dataset through the out-of-core executor, by name.

        Loads the operands directly from :mod:`repro.datasets.loader` —
        *not* through the bench runner's context cache, which keeps each
        dataset's operands and workload vectors resident for the rest of
        the process; the chunked executor builds its own context for the
        one lowering and drops it before the kernel runs.  Returns
        ``(result, OocStats)``.
        """
        from repro.datasets import loader

        self._require_open()
        loaded = loader.load(self.resolve_dataset(dataset))
        return self.multiply_chunked_operands(algorithm, loaded.a, loaded.b)

    def ooc_stats(self):
        """The most recent chunked multiply's :class:`OocStats`, or ``None``."""
        with self._lock:
            return self._last_ooc_stats

    # -- graph apps on warm caches -------------------------------------
    def pagerank(
        self,
        algorithm: str | SpGEMMAlgorithm,
        adjacency: CSRMatrix,
        *,
        damping: float = 0.85,
        tol: float = 1e-10,
        max_iter: int = 200,
        tenant: str = "default",
        trace=NULL_REQUEST_TRACE,
    ):
        """PageRank as fixed-structure spGEMM on the tenant's warm cache.

        All requests sharing one adjacency structure replay the same
        recipe, so only the first pays the symbolic pass; later callers
        (and iterations 2..N within a call) replay numerically.
        """
        from repro.apps.pagerank import pagerank_spgemm

        return self._on_cache(
            algorithm,
            tenant,
            trace,
            lambda cache: pagerank_spgemm(
                adjacency, cache, damping=damping, tol=tol, max_iter=max_iter
            ),
        )

    def reachability(
        self,
        algorithm: str | SpGEMMAlgorithm,
        adjacency: CSRMatrix,
        k: int,
        *,
        tenant: str = "default",
        trace=NULL_REQUEST_TRACE,
    ) -> CSRMatrix:
        """Boolean k-hop reachability on the tenant's warm cache."""
        from repro.apps.reachability import k_hop_reachability

        return self._on_cache(
            algorithm, tenant, trace, lambda cache: k_hop_reachability(adjacency, k, cache)
        )

    def similarity(
        self,
        algorithm: str | SpGEMMAlgorithm,
        adjacency: CSRMatrix,
        metric: str = "common",
        *,
        tenant: str = "default",
        trace=NULL_REQUEST_TRACE,
    ) -> CSRMatrix:
        """Node-similarity matrix (``common``/``cosine``/``jaccard``).

        All three metrics multiply ``A @ A^T``, so they share one recipe.
        """
        from repro.apps import similarity as sim

        metrics = {
            "common": sim.common_neighbors,
            "cosine": sim.cosine_similarity,
            "jaccard": sim.jaccard_similarity,
        }
        if metric not in metrics:
            raise ReproError(
                f"unknown similarity metric {metric!r}; known: {sorted(metrics)}"
            )
        return self._on_cache(
            algorithm, tenant, trace, lambda cache: metrics[metric](adjacency, cache)
        )

    def iterate(self, dataset: str, algorithm: str, iterations: int) -> IterationReport:
        """Run the numeric plane N times on one fixed structure (CLI demo).

        Uses a cache scoped to the call, so the report's counters are the
        loop's own.
        """
        self._require_open()
        ctx = self.context(dataset)
        a, b = ctx.a_csr, ctx.b_csr
        fp = structure_fingerprint(a, b)
        cache = PlanCache(self.algorithm(algorithm))
        seconds = []
        for _ in range(iterations):
            start = time.perf_counter()
            cache.multiply(a, b, fingerprint=fp)
            seconds.append(time.perf_counter() - start)
        return IterationReport(seconds=seconds, stats=cache.stats)

    # -- observability --------------------------------------------------
    @contextmanager
    def tracing(self, path: str | None, *, meta: dict | None = None):
        """Record the block with :mod:`repro.obs`; write a Chrome trace.

        ``path=None`` is a no-op scope so callers need no conditionals.
        The trace is written only when the block exits cleanly.
        """
        if not path:
            yield None
            return
        recorder = obs.install()
        try:
            yield recorder
            obs.write_trace(path, recorder, meta=meta or {})
        finally:
            obs.uninstall()

    @contextmanager
    def recording(self):
        """Install a trace recorder for the block and yield it (trace cmd)."""
        recorder = obs.install()
        try:
            yield recorder
        finally:
            obs.uninstall()

    # -- stats ----------------------------------------------------------
    def stats(self) -> RuntimeStats:
        """Aggregate serving counters across every warm cache."""
        with self._lock:
            merged = PlanCacheStats()
            tenants: dict[str, int] = {}
            for (tenant, _), cache in self._caches.items():
                merged.merge(cache.stats)
                tenants[tenant] = tenants.get(tenant, 0) + len(cache)
            return RuntimeStats(
                recipes=sum(tenants.values()),
                recipe_bytes=sum(cache.nbytes for cache in self._caches.values()),
                tenants=tenants,
                plan_cache=merged,
                requests=self._requests,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{len(self._caches)} caches"
        return f"<Runtime {state}>"

"""The :class:`Runtime` facade: one object that owns session lifecycle.

Everything a front-end needs to execute work — dataset contexts, algorithm
instances, warm sessions (scheme-bound :class:`~repro.plan.cache.PlanCache`
pools keyed by sparsity-structure fingerprint), bench-runner defaults and
trace recording — is constructed, cached and *shut down* here.  The CLI
subcommands and the :mod:`repro.serve` front-end are thin adapters over
this one class; neither constructs a session or cache directly.

Lifecycle::

    with Runtime(RuntimeConfig()) as rt:
        stats = rt.simulate("poisson3da", "block-reorganizer")
        c, meta = rt.multiply("row-product", a, b, tenant="alice")
    # sessions dropped, their counters folded into the retired totals

Sessions are pooled per ``(tenant, scheme instance, structure
fingerprint)`` with a per-tenant LRU bound
(:attr:`RuntimeConfig.sessions_per_tenant`): one tenant's structure churn
evicts its *own* oldest warm session — dropping that session's cached
recipes, which is exactly the per-tenant plan-cache quota — and can never
evict another tenant's.  A registry name resolves to the runtime's one
instance of that scheme, so named callers share warm sessions; a caller's
own instance keys its own sessions, so two differently-configured
instances never serve each other's recipes.  Each pooled session carries a
lock so concurrent callers of the same structure serialise while distinct
structures proceed in parallel.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

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
    "PooledSession",
    "Runtime",
    "RuntimeStats",
]


@dataclass
class PooledSession:
    """One warm session: a scheme-bound plan cache and the lock its callers hold."""

    cache: PlanCache
    lock: threading.Lock = field(default_factory=threading.Lock)


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

    sessions: int = gauge("Warm sessions currently pooled across all tenants.")
    sessions_evicted: int = counter("Warm sessions dropped by the per-tenant LRU quota.")
    tenants: dict[str, int] = gauge("Warm sessions pooled per tenant.", label="tenant")
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

    Thread-safety: session pooling and stats are guarded by an internal
    lock, and each pooled session serialises its own multiplies, so one
    runtime can serve concurrent request streams (``repro.serve`` does).
    ``close()`` is idempotent and safe to call from signal handlers.
    """

    def __init__(self, config: RuntimeConfig | None = None) -> None:
        self.config = config if config is not None else RuntimeConfig()
        self._lock = threading.RLock()
        self._sessions: OrderedDict[tuple[str, SpGEMMAlgorithm, str], PooledSession] = OrderedDict()
        self._retired_stats = PlanCacheStats()
        self._sessions_evicted = 0
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
        """Drop every warm session, folding its counters into the totals.

        Idempotent; also invoked by the shutdown hooks
        (:mod:`repro.runtime.lifecycle`) on SIGINT/SIGTERM/exit.  Later
        work raises :class:`~repro.errors.ReproError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for pooled in self._sessions.values():
                self._retired_stats.merge(pooled.cache.stats)
            self._sessions.clear()

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
        lands on the same warm sessions.
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

    # -- numeric plane: warm sessions ----------------------------------
    def session(
        self,
        algorithm: str | SpGEMMAlgorithm,
        *,
        structure: str,
        tenant: str = "default",
    ) -> PooledSession:
        """A warm session for (tenant, scheme instance, structure fingerprint).

        A name resolves to the runtime's one instance (:meth:`algorithm`);
        an instance keys its own sessions.  Creating, reusing and evicting
        sessions all happens here: a pool hit refreshes LRU recency; a miss
        builds a fresh session whose :class:`PlanCache`, bound to the
        scheme, is bounded by :attr:`RuntimeConfig.plan_cache_entries`; and
        when the owning tenant exceeds
        :attr:`RuntimeConfig.sessions_per_tenant`, that tenant's
        least-recently-used session is dropped and its counters folded into
        the retired totals.  Callers must hold the returned
        :attr:`PooledSession.lock` while multiplying on it.
        """
        self._require_open()
        algo = (
            self.algorithm(algorithm) if isinstance(algorithm, str) else algorithm
        )
        key = (tenant, algo, structure)
        with self._lock:
            pooled = self._sessions.get(key)
            if pooled is not None:
                self._sessions.move_to_end(key)
                return pooled
            pooled = PooledSession(
                PlanCache(algo, max_entries=self.config.plan_cache_entries)
            )
            self._sessions[key] = pooled
            evicted = self._evict_tenant_overflow(tenant)
        for old in evicted:
            with old.lock:  # let an in-flight multiply finish first
                retired = old.cache.stats
            with self._lock:
                self._retired_stats.merge(retired)
        return pooled

    def _evict_tenant_overflow(self, tenant: str) -> list[PooledSession]:
        """Pop this tenant's LRU sessions beyond the quota (lock held)."""
        held = [k for k in self._sessions if k[0] == tenant]
        evicted = []
        for key in held[: max(0, len(held) - self.config.sessions_per_tenant)]:
            evicted.append(self._sessions.pop(key))
            self._sessions_evicted += 1
        return evicted

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
        """``a @ b`` on a warm session pooled by structure fingerprint.

        The outcome records whether the request was served by numeric
        replay (a prior request with this structure paid the symbolic
        work) — the amortisation signal ``repro.serve`` reports per batch.
        ``trace`` (a :class:`~repro.obs.serving.RequestTrace`) receives the
        ``session`` (pool lookup + lock wait) and ``numeric`` (multiply on
        the warm session) stages.  ``fingerprint`` is
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
        with trace.stage("session"):
            pooled = self.session(algorithm, structure=fingerprint, tenant=tenant)
            pooled.lock.acquire()
        try:
            hits_before = pooled.cache.stats.hits
            with trace.stage("numeric"):
                result = pooled.cache.multiply(a, b, fingerprint=fingerprint)
        finally:
            pooled.lock.release()
        with self._lock:
            self._requests += 1
        replayed = pooled.cache.stats.hits > hits_before
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
        one lowering and drops it before the panels run.  Returns
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

    # -- graph apps on warm sessions -----------------------------------
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
        """PageRank as fixed-structure spGEMM on a pooled warm session.

        All requests sharing one adjacency structure land on the same
        session, so only the first pays the symbolic pass; later callers
        (and iterations 2..N within a call) replay numerically.
        """
        from repro.apps.pagerank import pagerank_spgemm

        fp = "pagerank:" + structure_fingerprint(adjacency, adjacency)
        with trace.stage("session"):
            pooled = self.session(algorithm, structure=fp, tenant=tenant)
        with pooled.lock, trace.stage("numeric"):
            result = pagerank_spgemm(
                adjacency,
                pooled.cache,
                damping=damping,
                tol=tol,
                max_iter=max_iter,
            )
        with self._lock:
            self._requests += 1
        return result

    def reachability(
        self,
        algorithm: str | SpGEMMAlgorithm,
        adjacency: CSRMatrix,
        k: int,
        *,
        tenant: str = "default",
        trace=NULL_REQUEST_TRACE,
    ) -> CSRMatrix:
        """Boolean k-hop reachability on a pooled warm session."""
        from repro.apps.reachability import k_hop_reachability

        fp = f"reach:{k}:" + structure_fingerprint(adjacency, adjacency)
        with trace.stage("session"):
            pooled = self.session(algorithm, structure=fp, tenant=tenant)
        with pooled.lock, trace.stage("numeric"):
            result = k_hop_reachability(adjacency, k, pooled.cache)
        with self._lock:
            self._requests += 1
        return result

    def similarity(
        self,
        algorithm: str | SpGEMMAlgorithm,
        adjacency: CSRMatrix,
        metric: str = "common",
        *,
        tenant: str = "default",
        trace=NULL_REQUEST_TRACE,
    ) -> CSRMatrix:
        """Node-similarity matrix (``common``/``cosine``/``jaccard``)."""
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
        fp = f"sim:{metric}:" + structure_fingerprint(adjacency, adjacency)
        with trace.stage("session"):
            pooled = self.session(algorithm, structure=fp, tenant=tenant)
        with pooled.lock, trace.stage("numeric"):
            result = metrics[metric](adjacency, pooled.cache)
        with self._lock:
            self._requests += 1
        return result

    def iterate(self, dataset: str, algorithm: str, iterations: int) -> IterationReport:
        """Run the numeric plane N times on one fixed structure (CLI demo)."""
        self._require_open()
        ctx = self.context(dataset)
        a, b = ctx.a_csr, ctx.b_csr
        fp = structure_fingerprint(a, b)
        pooled = self.session(algorithm, structure=fp, tenant="default")
        seconds = []
        with pooled.lock:
            for _ in range(iterations):
                start = time.perf_counter()
                pooled.cache.multiply(a, b, fingerprint=fp)
                seconds.append(time.perf_counter() - start)
        return IterationReport(seconds=seconds, stats=pooled.cache.stats)

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
        """Aggregate serving counters across live and retired sessions."""
        with self._lock:
            merged = PlanCacheStats()
            merged.merge(self._retired_stats)
            tenants: dict[str, int] = {}
            for (tenant, _, _), pooled in self._sessions.items():
                merged.merge(pooled.cache.stats)
                tenants[tenant] = tenants.get(tenant, 0) + 1
            return RuntimeStats(
                sessions=len(self._sessions),
                sessions_evicted=self._sessions_evicted,
                tenants=tenants,
                plan_cache=merged,
                requests=self._requests,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{len(self._sessions)} sessions"
        return f"<Runtime {state}>"

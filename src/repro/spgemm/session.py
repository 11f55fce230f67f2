"""IterativeSession: hold one plan cache across an iterative workload.

The apps in :mod:`repro.apps` (PageRank, reachability, shortest paths) call
spGEMM in a loop whose operand *structure* is fixed — only values change
between iterations.  An :class:`IterativeSession` wraps one scheme and one
:class:`~repro.plan.cache.PlanCache` so the loop body stays a plain
``session.multiply(a, b)`` while lowering, classification and all symbolic
work happen once per distinct structure:

    session = IterativeSession(RowProductSpGEMM())
    for _ in range(n_iter):
        scores = session.multiply(scores, transition)   # replay after iter 1
    print(format_cache_stats(session.stats))

Semiring loops use :meth:`IterativeSession.semiring_multiply` the same way.
On a structure hit the session skips even context construction (CSC
conversion and workload precalculation) — the replay reads nothing but the
operands' value arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.plan.cache import PlanCache, PlanCacheStats
from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.gpusim.config import GPUConfig
    from repro.spgemm.base import SpGEMMAlgorithm
    from repro.spgemm.semiring import Semiring

__all__ = ["IterativeSession"]


class IterativeSession:
    """A scheme plus a structure-keyed plan cache, for multiply-in-a-loop.

    Attributes:
        algorithm: the wrapped :class:`~repro.spgemm.base.SpGEMMAlgorithm`
            used for plan-path multiplies.
        cache: the session's :class:`~repro.plan.cache.PlanCache`; shareable
            between sessions to pool recipes across workloads.
    """

    def __init__(
        self,
        algorithm: SpGEMMAlgorithm,
        *,
        cache: PlanCache | None = None,
        config: GPUConfig | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.cache = cache if cache is not None else PlanCache()
        self.config = config

    @classmethod
    def wrap(cls, engine: "SpGEMMAlgorithm | IterativeSession") -> "IterativeSession":
        """Coerce an engine into a session (pass sessions through unchanged).

        Lets the :mod:`repro.apps` entry points accept either a bare scheme
        (old signature, cache scoped to one call) or a caller-held session
        whose cache — and counters — span many calls.
        """
        return engine if isinstance(engine, cls) else cls(engine)

    @property
    def stats(self) -> PlanCacheStats:
        """The underlying cache's amortisation counters."""
        return self.cache.stats

    def multiply(self, a: CSRMatrix, b: CSRMatrix | None = None) -> CSRMatrix:
        """``a @ b`` (``b`` defaults to ``a``), replaying on structure hits."""
        return self.cache.multiply(self.algorithm, a, b, config=self.config)

    def semiring_multiply(
        self,
        a: CSRMatrix,
        b: CSRMatrix | None = None,
        semiring: "Semiring | None" = None,
    ) -> CSRMatrix:
        """Semiring product with the same structure-reuse discipline."""
        return self.cache.semiring_multiply(a, b, semiring)

    def multiply_chunked(
        self,
        a: CSRMatrix,
        b: CSRMatrix | None = None,
        *,
        mem_budget: int | str,
        spill_dir: str | None = None,
    ):
        """``a @ b`` under a memory budget via :mod:`repro.oocore`.

        Runs the out-of-core chunked executor; returns ``(result,
        OocStats)``.  The plan cache is deliberately bypassed — per-panel
        recipes would pin budget-sized gather arrays in the LRU — but the
        result is bit-identical to :meth:`multiply` on the same operands.
        """
        from repro.oocore import chunked_multiply

        return chunked_multiply(
            self.algorithm, a, b, mem_budget=mem_budget, spill_dir=spill_dir
        )

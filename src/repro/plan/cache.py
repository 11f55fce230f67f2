"""Plan and symbolic-structure reuse for iterative workloads.

Iterative graph algorithms (PageRank power iteration, BFS-style reachability,
k-hop shortest paths) multiply by the *same sparsity structure* every
iteration — only the stored values change.  The paper's kernels split every
multiply into a symbolic phase (classification, lowering, expansion
coordinates, merge sort) and a numeric phase (gather + combine + segmented
reduce); production frameworks (bhSPARSE, GraphBLAS implementations) exploit
the split by running the symbolic phase once per structure.  This module is
that optimisation for our engine:

* :func:`structure_fingerprint` — content hash of the operands' sparsity
  structure (shapes + indptr + indices, values excluded).
* :class:`NumericRecipe` — everything needed to re-run *only* the numeric
  phase of a plan execution: the numeric kernel's gather arrays in stream
  order (:func:`repro.kernels.merge`), plus the output structure.
  :meth:`NumericRecipe.replay` is bit-identical to the cold execution by
  construction (same multiplication pairs, same float64 summation order).
  Semiring products keep one too, captured from their one kernel call; a
  semiring replay runs the semiring's algebra and drops identity entries
  again, since which entries survive depends on the values.
* :class:`PlanCache` — one scheme's recipes, keyed by structure fingerprint,
  with lookups/hits/lowers counted so tests and the CLI can assert
  amortisation.  A recipe depends on the structure, the expansion order and
  the pair tie ranks, never on the simulated GPU, so the key holds neither
  the scheme (the cache is bound to one) nor a GPU config.  The cache is
  **bounded**: ``max_entries`` and ``max_bytes`` put an LRU limit on how
  many recipes a long-lived process (the runtime's session pool behind
  ``repro.serve``, say) can accumulate from an evolving-structure
  workload; evictions are counted in :class:`PlanCacheStats`.

Recipes are verified at fill time: the cold result is replayed immediately
and compared exactly, and only a recipe that reproduces it is cached.  A
mismatch caches nothing, so the structure's next lookup runs the cold path
again rather than risking a wrong answer.  The cache keeps no plans: a
replay needs none, and a plan's deferred blocks would pin its context.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import kernels, obs
from repro.obs.counters import counter, derived, gauge
from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.spgemm.base import SpGEMMAlgorithm
    from repro.spgemm.semiring import Semiring

__all__ = [
    "structure_fingerprint",
    "NumericRecipe",
    "PlanCacheStats",
    "PlanCache",
]


def structure_fingerprint(a: CSRMatrix, b: CSRMatrix) -> str:
    """Hash the sparsity structure of ``a @ b``'s operands (not their values).

    Two multiplies with equal fingerprints expand to the same coordinate
    stream over the same row blocks and number the same output entries, so
    a cached :class:`NumericRecipe` replays exactly.
    """
    h = hashlib.sha256()
    for m in (a, b):
        h.update(np.int64(m.shape[0]).tobytes())
        h.update(np.int64(m.shape[1]).tobytes())
        h.update(np.ascontiguousarray(m.indptr, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(m.indices, dtype=np.int64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class NumericRecipe:
    """Numeric-only replay of one plan execution on a fixed structure.

    ``a_gather``/``b_gather`` index the operands' stored entries (CSR order)
    in *stream* order — the kernel's expansion order, in which it sums each
    entry's products — and ``group`` maps each product to its output entry.
    Replay is one gather, one combine and one in-order reduce by ``group`` —
    the same float64 operations in the same order as the cold path's merge,
    under the algebra the cold product ran (default: multiply, then add from
    +0.0).

    Attributes:
        shape: output matrix shape.
        a_gather: stored-entry index into ``A.data`` per product, stream order.
        b_gather: stored-entry index into ``B.data`` per product, stream order.
        group: output-entry id per product (summation target), stream order.
        n_groups: number of output entries.
        indptr: output CSR row pointers.
        indices: output CSR column indices.
    """

    shape: tuple[int, int]
    a_gather: np.ndarray
    b_gather: np.ndarray
    group: np.ndarray
    n_groups: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def nbytes(self) -> int:
        """Retained size: the bytes of the recipe's index arrays, which the
        cache's byte budget counts."""
        return sum(f.nbytes for f in vars(self).values() if isinstance(f, np.ndarray))

    def replay(
        self,
        a_data: np.ndarray,
        b_data: np.ndarray,
        *,
        combine=operator.mul,
        reduce=np.add,
        identity: float = 0.0,
    ) -> CSRMatrix:
        """Re-run the numeric phase against fresh operand values."""
        data = kernels.gather_reduce(
            a_data,
            b_data,
            self.a_gather,
            self.b_gather,
            self.group,
            self.n_groups,
            combine=combine,
            reduce=reduce,
            identity=identity,
        )
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.copy(), data)


@dataclass
class PlanCacheStats:
    """Amortisation counters for one :class:`PlanCache`.

    ``lookups = hits + misses``; every hit is a numeric replay, and
    ``lowers`` counts the plan-path misses, each of which lowered the
    scheme (a semiring miss lowers nothing).  An N-iteration
    fixed-structure loop should show ``lowers == 1`` and
    ``hits == N - 1``.  ``evictions`` /
    ``evicted_bytes`` count entries dropped by the LRU bound — non-zero means
    the workload's structure churn exceeds the configured budget and some
    lookups that could have replayed will re-lower instead.
    """

    lookups: int = counter("Plan-cache lookups (hits + misses).")
    hits: int = counter("Lookups served by numeric replay of a cached recipe.")
    misses: int = counter("Lookups that ran the cold path.")
    lowers: int = counter("Symbolic lowerings paid.")
    evictions: int = counter("Entries dropped by the LRU bound.")
    evicted_bytes: int = counter("Recipe bytes dropped by the LRU bound.", unit="bytes")

    @derived(gauge("Fraction of lookups served by replay; 0 before the first lookup."))
    def hit_rate(self) -> float:
        """Fraction of lookups served by replay (0.0 when no lookups yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "PlanCacheStats") -> None:
        """Fold another counter set into this one (aggregation across caches)."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class PlanCache:
    """One scheme's numeric-replay recipes, memoized per structure.

    The cache is in-memory and bound to :attr:`algorithm`, so a loop over
    a fixed structure stays a plain ``cache.multiply(a, b)`` while
    lowering and every structure-only step happen once per structure::

        cache = PlanCache(RowProductSpGEMM())
        for _ in range(n_iter):
            scores = cache.multiply(scores, transition)   # replay after iter 1
        print("\n".join(counters.text_lines(cache.stats)))  # repro.obs.counters

    Every freshly captured recipe is replayed against the cold result and
    cached only if the two are exactly equal.

    ``max_entries`` and ``max_bytes`` bound the cache with LRU eviction —
    a lookup hit refreshes its entry's recency, an insert evicts the
    least-recently-used entries until both budgets hold.  Unbounded caches
    (both ``None``) match the historical behaviour but grow without limit
    under an evolving-structure workload, which no long-lived process
    (``repro serve``) should tolerate.
    """

    def __init__(
        self,
        algorithm: SpGEMMAlgorithm,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.algorithm = algorithm
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = PlanCacheStats()
        self._entries: OrderedDict[tuple, NumericRecipe] = OrderedDict()
        self._entry_bytes = 0

    @classmethod
    def wrap(cls, engine: "SpGEMMAlgorithm | PlanCache") -> "PlanCache":
        """Coerce an engine into a cache (pass caches through unchanged).

        Lets the :mod:`repro.apps` entry points accept either a bare scheme
        (a cache scoped to one call) or a caller-held cache whose recipes
        — and counters — span many calls.
        """
        return engine if isinstance(engine, cls) else cls(engine)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes retained by cached recipes (see :attr:`NumericRecipe.nbytes`)."""
        return self._entry_bytes

    def clear(self) -> None:
        """Drop all entries (counters are kept; not counted as evictions)."""
        self._entries.clear()
        self._entry_bytes = 0

    def _get(self, key: tuple) -> NumericRecipe | None:
        """Look a recipe up, refreshing its LRU recency on a hit."""
        recipe = self._entries.get(key)
        if recipe is not None:
            self._entries.move_to_end(key)
        return recipe

    def _insert(self, key: tuple, recipe: NumericRecipe) -> None:
        """Insert (or replace) a recipe, then evict LRU until within budget."""
        old = self._entries.pop(key, None)
        if old is not None:
            self._entry_bytes -= old.nbytes
        self._entries[key] = recipe
        self._entry_bytes += recipe.nbytes
        while self._over_budget():
            evicted_key, evicted = self._entries.popitem(last=False)
            self._entry_bytes -= evicted.nbytes
            self.stats.evictions += 1
            self.stats.evicted_bytes += evicted.nbytes
            if evicted_key == key:
                break  # a single entry larger than the byte budget

    def _over_budget(self) -> bool:
        if not self._entries:
            return False
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            return True
        return self.max_bytes is not None and self._entry_bytes > self.max_bytes

    # -- plan path ------------------------------------------------------
    def multiply(
        self, a: CSRMatrix, b: CSRMatrix | None = None, *, fingerprint: str | None = None
    ) -> CSRMatrix:
        """Compute ``a @ b`` (``b`` defaults to ``a``), replaying on structure hits.

        On a hit the entire cold pipeline — operand validation, context
        construction and workload precalculation, classification, lowering
        and the numeric kernel's expansion walk — is skipped; only the
        recipe's gather + reduce runs.  ``fingerprint`` is
        :func:`structure_fingerprint` of ``a`` and ``b`` when the caller
        already hashed them (the runtime's session pool does); it is
        computed when absent.  A miss lowers for
        :data:`~repro.spgemm.base.DEFAULT_LOWERING_CONFIG`.
        """
        from repro.spgemm.base import (
            DEFAULT_LOWERING_CONFIG,
            MultiplyContext,
            validate_operands,
        )

        b = a if b is None else b
        if fingerprint is None:
            fingerprint = structure_fingerprint(a, b)
        key = ("plan", fingerprint)
        self.stats.lookups += 1
        recipe = self._get(key)
        if recipe is not None:
            self.stats.hits += 1
            with obs.span("plan.cache[hit]", "plan", hits=1):
                return recipe.replay(a.data, b.data)

        self.stats.misses += 1
        with obs.span("plan.cache[miss]", "plan", misses=1) as sp:
            validate_operands(a, b)
            ctx = MultiplyContext.build(a, b)
            self.stats.lowers += 1
            sp.add(lowers=1)
            plan = self.algorithm.lower_traced(ctx, DEFAULT_LOWERING_CONFIG)
            result, _, _, (a_gather, b_gather, group) = plan.run(ctx, gathers=True)
            recipe = NumericRecipe(
                shape=result.shape,
                a_gather=a_gather,
                b_gather=b_gather,
                group=group,
                n_groups=result.nnz,
                indptr=result.indptr.copy(),
                indices=result.indices.copy(),
            )
            if _identical(recipe.replay(a.data, b.data), result):
                self._insert(key, recipe)
        return result

    # -- semiring path --------------------------------------------------
    def semiring_multiply(
        self, a: CSRMatrix, b: CSRMatrix | None = None, semiring: Semiring | None = None
    ) -> CSRMatrix:
        """Semiring product with symbolic-structure reuse.

        A miss runs the kernel once over the semiring's algebra and keeps
        its gathers as a :class:`NumericRecipe`; a hit replays them with the
        semiring's algebra and drops identity entries again.  A semiring
        product is the pair-order kernel whatever :attr:`algorithm` is, so
        it lowers nothing; the key includes the semiring name because the
        fill-time verification is algebra-specific.
        """
        from repro.spgemm.base import validate_operands
        from repro.spgemm.semiring import PLUS_TIMES, semiring_kernel

        if semiring is None:
            semiring = PLUS_TIMES
        b = a if b is None else b
        key = ("semiring", semiring.name, structure_fingerprint(a, b))

        def replay(recipe: NumericRecipe) -> CSRMatrix:
            return semiring.drop_identity(recipe.replay(a.data, b.data, **semiring.algebra))

        self.stats.lookups += 1
        recipe = self._get(key)
        if recipe is not None:
            self.stats.hits += 1
            with obs.span("plan.semiring[hit]", "plan", hits=1):
                return replay(recipe)

        self.stats.misses += 1
        with obs.span("plan.semiring[miss]", "plan", misses=1):
            validate_operands(a, b)
            full, (a_gather, b_gather, group) = semiring_kernel(a, b, semiring, gathers=True)
            recipe = NumericRecipe(
                shape=full.shape,
                a_gather=a_gather,
                b_gather=b_gather,
                group=group,
                n_groups=full.nnz,
                indptr=full.indptr,
                indices=full.indices,
            )
            result = semiring.drop_identity(full)
            if _identical(replay(recipe), result):
                self._insert(key, recipe)
        return result


def _identical(x: CSRMatrix, y: CSRMatrix) -> bool:
    """Exact structural and bitwise value equality of two CSR matrices."""
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.data, y.data)
    )

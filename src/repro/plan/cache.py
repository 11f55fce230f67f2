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
  structure (shapes + indptr + indices, values excluded): sha256 over one
  digest per operand, so ``A·A`` hashes A once.
* :class:`NumericRecipe` — everything needed to re-run *only* the numeric
  phase of a plan execution: the numeric kernel's gathers in stream order
  (:func:`repro.kernels.stream`), plus the output structure.  A's side is
  kept per stored entry (the walk and each entry's product count), since
  every entry emits its row of B as one contiguous run of products; B's
  stored entry and the output entry are kept per product.
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
  **bounded** by the working set it measures: with ``max_entries`` it
  remembers that many structures in LRU order, learns how deep the
  workload's reuses reach (the LRU stack distance of each reuse, counted
  over the structures looked up again) and keeps the recipes of only that
  many reused structures, so a long-lived process (the runtime's
  per-tenant caches behind ``repro.serve``, say) drops the recipes of
  structures it has finished with.  Evictions are counted in
  :class:`PlanCacheStats`.  It is safe to share between threads:
  concurrent callers of one new structure lower it once and then replay,
  while distinct structures run in parallel.

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
import threading
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
    "STRIPES",
    "structure_fingerprint",
    "NumericRecipe",
    "PlanCacheStats",
    "PlanCache",
]

#: Lock stripes per cache: a multiply holds the stripe its fingerprint picks.
STRIPES = 64


def structure_fingerprint(a: CSRMatrix, b: CSRMatrix) -> str:
    """Hash the sparsity structure of ``a @ b``'s operands (not their values).

    Two multiplies with equal fingerprints expand to the same coordinate
    stream over the same row blocks and number the same output entries, so
    a cached :class:`NumericRecipe` replays exactly.  The fingerprint is
    sha256 over one digest per operand; ``A·A`` (``b is a``) hashes A once,
    and a structural copy of A digests as A does.
    """
    digest_a = _structure_digest(a)
    digest_b = digest_a if b is a else _structure_digest(b)
    return hashlib.sha256(digest_a + digest_b).hexdigest()


def _structure_digest(m: CSRMatrix) -> bytes:
    """sha256 of one operand's shape, ``indptr`` and ``indices`` as int64."""
    h = hashlib.sha256(np.array(m.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(m.indptr, dtype=np.int64))
    h.update(np.ascontiguousarray(m.indices, dtype=np.int64))
    return h.digest()


@dataclass(frozen=True)
class NumericRecipe:
    """Numeric-only replay of one plan execution on a fixed structure.

    The kernel's walk visits A's stored entries in ``a_entries`` order, and
    entry ``a_entries[e]`` emits the next ``counts[e]`` products of the
    *stream* — the kernel's expansion order, in which it sums each output
    entry's products.  ``b_gather`` indexes B's stored entry and ``group``
    the output entry of each product.  Replay
    (:func:`repro.kernels.gather_reduce`) is, chunk by chunk of whole
    entries, ``reduce.at(out, group, combine(np.repeat(A.data[a_entries],
    counts), B.data[b_gather]))`` — the same float64 operations in the same
    order as the cold path's merge, under the algebra the cold product ran
    (default: multiply, then add from +0.0).

    Attributes:
        shape: output matrix shape.
        a_entries: A's stored entries (CSR positions), in walk order.
        counts: products each of those entries emits.
        b_gather: stored-entry index into ``B.data`` per product, stream order.
        group: output-entry id per product (summation target), stream order.
        n_groups: number of output entries.
        indptr: output CSR row pointers.
        indices: output CSR column indices, int32 when the columns fit.
    """

    shape: tuple[int, int]
    a_entries: np.ndarray
    counts: np.ndarray
    b_gather: np.ndarray
    group: np.ndarray
    n_groups: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def capture(cls, c: CSRMatrix, gathers: tuple) -> "NumericRecipe":
        """The recipe of a kernel run that returned ``c`` and ``gathers``
        (:func:`repro.kernels.spgemm`'s); copies ``c``'s structure."""
        a_entries, counts, b_gather, group = gathers
        index_dtype = np.int32 if c.n_cols <= 2**31 else np.int64
        return cls(
            shape=c.shape,
            a_entries=a_entries,
            counts=counts,
            b_gather=b_gather,
            group=group,
            n_groups=c.nnz,
            indptr=c.indptr.copy(),
            indices=c.indices.astype(index_dtype),
        )

    @property
    def nbytes(self) -> int:
        """Retained size: the bytes of the recipe's index arrays (the
        cache's ``nbytes`` and ``evicted_bytes`` count them)."""
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
            self.a_entries,
            self.counts,
            self.b_gather,
            self.group,
            self.n_groups,
            combine=combine,
            reduce=reduce,
            identity=identity,
        )
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.astype(np.int64), data)


@dataclass
class PlanCacheStats:
    """Amortisation counters for one :class:`PlanCache`.

    ``lookups = hits + misses``; every hit is a numeric replay, and
    ``lowers`` counts the plan-path misses, each of which lowered the
    scheme (a semiring miss lowers nothing).  An N-iteration
    fixed-structure loop should show ``lowers == 1`` and
    ``hits == N - 1``.  ``evictions`` / ``evicted_bytes`` count recipes
    dropped by the cache's bounds (see :class:`PlanCache`): those of
    structures the workload reused and then left behind, and those of
    structures churned past ``max_entries``.  A lookup that finds its
    recipe dropped re-lowers.
    """

    lookups: int = counter("Plan-cache lookups (hits + misses).")
    hits: int = counter("Lookups served by numeric replay of a cached recipe.")
    misses: int = counter("Lookups that ran the cold path.")
    lowers: int = counter("Symbolic lowerings paid.")
    evictions: int = counter("Recipes dropped by the reuse-depth or entry bound.")
    evicted_bytes: int = counter("Recipe bytes dropped by those bounds.", unit="bytes")

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

    ``max_entries`` bounds the cache by what the workload reuses.  The
    cache remembers the last ``max_entries`` structure keys in LRU order
    (a hit or a miss makes a key most recent) and marks a key *reused* once
    it is looked up again.  Each lookup of a remembered key measures its
    reuse depth, the number of other reused keys used since its previous
    use (an LRU stack distance over the reused keys), and the cache keeps
    D, the deepest seen.  Each insert then keeps the recipes of the D + 1
    most recent reused keys and drops those of older reused keys, which
    are structures the workload has finished with; a recipe that was
    never looked up again keeps the plain LRU bound.  A dropped key stays
    remembered, so its next lookup misses, re-lowers and raises D: a reuse
    deeper than any seen before costs one extra lowering.  D never falls
    until :meth:`clear`, so after one deep reuse the cache keeps that many
    reused recipes for good.  Keys beyond ``max_entries`` are forgotten
    with their recipes.  A hit drops nothing.  Measuring a reuse walks the
    keys used since the key's previous use and an insert walks every
    remembered key, both under the cache's one lock, so each costs up to
    ``max_entries`` steps.  Unbounded caches
    (``max_entries=None``, as :meth:`wrap` makes) keep every recipe, but
    grow without limit under an evolving-structure workload, which no
    long-lived process (``repro serve``) should tolerate.

    Thread-safety: one lock guards the entries and counters, and every
    multiply holds one of :data:`STRIPES` stripe locks, picked from its
    fingerprint, for the whole call.  Concurrent callers of one new
    structure therefore lower it once and then replay; distinct structures
    run in parallel unless their fingerprints share a stripe.
    """

    def __init__(self, algorithm: SpGEMMAlgorithm, *, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.algorithm = algorithm
        self.max_entries = max_entries
        self.stats = PlanCacheStats()
        # Structure keys in LRU order, each mapped to its recipe.  With
        # max_entries, a key whose recipe the depth rule dropped stays
        # remembered (mapped to None), _reused holds the keys looked up
        # again and _depth the deepest reuse seen (D).
        self._entries: OrderedDict[tuple, NumericRecipe | None] = OrderedDict()
        self._entry_bytes = 0
        self._reused: set[tuple] = set()
        self._depth = 0
        # Re-entrant: Runtime.close() clears caches from signal handlers,
        # which may run on a thread that is inside this lock.
        self._lock = threading.RLock()
        self._stripes = tuple(threading.Lock() for _ in range(STRIPES))

    @classmethod
    def wrap(cls, engine: "SpGEMMAlgorithm | PlanCache") -> "PlanCache":
        """Coerce an engine into a cache (pass caches through unchanged).

        Lets the :mod:`repro.apps` entry points accept either a bare scheme
        (a cache scoped to one call) or a caller-held cache whose recipes
        — and counters — span many calls.
        """
        return engine if isinstance(engine, cls) else cls(engine)

    def __len__(self) -> int:
        """Recipes held (remembered keys whose recipe was dropped excluded)."""
        with self._lock:
            return sum(recipe is not None for recipe in self._entries.values())

    @property
    def nbytes(self) -> int:
        """Bytes retained by cached recipes (see :attr:`NumericRecipe.nbytes`)."""
        return self._entry_bytes

    def clear(self) -> None:
        """Drop all entries and the reuse history (counters are kept; not
        counted as evictions)."""
        with self._lock:
            self._entries.clear()
            self._entry_bytes = 0
            self._reused.clear()
            self._depth = 0

    def _stripe(self, fingerprint: str) -> threading.Lock:
        """The stripe lock a multiply over ``fingerprint`` holds."""
        return self._stripes[int(fingerprint[:8], 16) % STRIPES]

    def _lookup(self, key: tuple) -> NumericRecipe | None:
        """Count a lookup and its hit or miss; measure the reuse of a
        remembered key and make it most recent."""
        with self._lock:
            self.stats.lookups += 1
            recipe = None
            if key in self._entries:
                if self.max_entries is not None:
                    depth = 0
                    for other in reversed(self._entries):
                        if other == key:
                            break
                        depth += other in self._reused
                    self._depth = max(self._depth, depth)
                    self._reused.add(key)
                self._entries.move_to_end(key)
                recipe = self._entries[key]
            if recipe is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return recipe

    def _insert(self, key: tuple, recipe: NumericRecipe) -> None:
        """Insert (or replace) a recipe as most recent, then apply the
        bounds: the reuse depth, then the remembered keys."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._entry_bytes -= old.nbytes
            self._entries[key] = recipe
            self._entry_bytes += recipe.nbytes
            if self.max_entries is not None:
                reused = [other for other in reversed(self._entries) if other in self._reused]
                for other in reused[self._depth + 1 :]:
                    self._drop(other)
                while len(self._entries) > self.max_entries:
                    self._drop(next(iter(self._entries)), forget=True)

    def _drop(self, key: tuple, *, forget: bool = False) -> None:
        """Evict ``key``'s recipe, if one is held; the key stays remembered
        unless ``forget``."""
        if forget:
            recipe = self._entries.pop(key)
            self._reused.discard(key)
        else:
            recipe, self._entries[key] = self._entries[key], None
        if recipe is not None:
            self._entry_bytes -= recipe.nbytes
            self.stats.evictions += 1
            self.stats.evicted_bytes += recipe.nbytes

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
        already hashed them (the runtime and the iterative apps do); it is
        computed when absent.  A miss lowers for
        :data:`~repro.spgemm.base.DEFAULT_LOWERING_CONFIG`.
        """
        return self.run(a, b, fingerprint=fingerprint)[0]

    def run(
        self, a: CSRMatrix, b: CSRMatrix | None = None, *, fingerprint: str | None = None
    ) -> tuple[CSRMatrix, bool]:
        """:meth:`multiply`, also saying whether a cached recipe served it."""
        from repro.spgemm.base import (
            DEFAULT_LOWERING_CONFIG,
            MultiplyContext,
            validate_operands,
        )

        b = a if b is None else b
        if fingerprint is None:
            fingerprint = structure_fingerprint(a, b)
        key = ("plan", fingerprint)
        with self._stripe(fingerprint):
            recipe = self._lookup(key)
            if recipe is not None:
                with obs.span("plan.cache[hit]", "plan", hits=1):
                    return recipe.replay(a.data, b.data), True

            with obs.span("plan.cache[miss]", "plan", misses=1) as sp:
                validate_operands(a, b)
                ctx = MultiplyContext.build(a, b)
                with self._lock:
                    self.stats.lowers += 1
                sp.add(lowers=1)
                plan = self.algorithm.lower_traced(ctx, DEFAULT_LOWERING_CONFIG)
                result, _, _, gathers = plan.run(ctx, gathers=True)
                recipe = NumericRecipe.capture(result, gathers)
                if _identical(recipe.replay(a.data, b.data), result):
                    self._insert(key, recipe)
            return result, False

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
        fingerprint = structure_fingerprint(a, b)
        key = ("semiring", semiring.name, fingerprint)

        def replay(recipe: NumericRecipe) -> CSRMatrix:
            return semiring.drop_identity(recipe.replay(a.data, b.data, **semiring.algebra))

        with self._stripe(fingerprint):
            recipe = self._lookup(key)
            if recipe is not None:
                with obs.span("plan.semiring[hit]", "plan", hits=1):
                    return replay(recipe)

            with obs.span("plan.semiring[miss]", "plan", misses=1):
                validate_operands(a, b)
                full, gathers = semiring_kernel(a, b, semiring, gathers=True)
                recipe = NumericRecipe.capture(full, gathers)
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

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
  phase of a plan execution: gather arrays composed from the kernels' value
  provenance and the merge's sort permutation, plus the output structure.
  :meth:`NumericRecipe.replay` is bit-identical to the cold execution by
  construction (same multiplication pairs, same float64 summation order).
* :class:`SemiringRecipe` — the analogue for :func:`~repro.spgemm.semiring`
  products, where the *output* structure is value-dependent (identity
  entries are dropped) so only the expansion/sort structure is reused.
* :class:`PlanCache` — memoizes lowered plans and recipes keyed by
  (algorithm fingerprint, GPU config, structure fingerprint) and counts
  lookups/hits/lowers so tests and the CLI can assert amortisation.  The
  cache is **bounded**: ``max_entries`` and ``max_bytes`` put an LRU limit
  on how many recipes a long-lived process (an :class:`IterativeSession`
  held by ``repro.serve``, say) can accumulate from an evolving-structure
  workload; evictions are counted in :class:`PlanCacheStats`.

Recipes are verified at fill time: the cold result is replayed immediately
and compared exactly; a mismatch (e.g. a scheme whose kernels do not report
provenance) simply disables replay for that entry rather than risking a
wrong answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import kernels, obs
from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.gpusim.config import GPUConfig
    from repro.plan.ir import ExecutionPlan
    from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm
    from repro.spgemm.semiring import Semiring

__all__ = [
    "structure_fingerprint",
    "algorithm_token",
    "config_token",
    "NumericRecipe",
    "SemiringRecipe",
    "PlanCacheStats",
    "PlanCacheEntry",
    "PlanCache",
]


def structure_fingerprint(a: CSRMatrix, b: CSRMatrix) -> str:
    """Hash the sparsity structure of ``a @ b``'s operands (not their values).

    Two multiplies with equal fingerprints expand to the same coordinate
    stream and merge through the same sort permutation, so a cached
    :class:`NumericRecipe` replays exactly.
    """
    h = hashlib.sha256()
    for m in (a, b):
        h.update(np.int64(m.shape[0]).tobytes())
        h.update(np.int64(m.shape[1]).tobytes())
        h.update(np.ascontiguousarray(m.indptr, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(m.indices, dtype=np.int64).tobytes())
    return h.hexdigest()


def algorithm_token(algo: SpGEMMAlgorithm) -> str:
    """Cache-key identity of a scheme: its fingerprint, or its object id.

    Non-fingerprintable schemes (adaptive/tuned) fall back to instance
    identity — reuse still works within one session holding the instance,
    which is the iterative-workload case this cache exists for.
    """
    if algo.fingerprintable:
        return json.dumps(algo.fingerprint(), sort_keys=True, separators=(",", ":"))
    return f"instance:{type(algo).__name__}:{id(algo)}"


def config_token(config: GPUConfig) -> str:
    """Cache-key identity of the lowering target."""
    return json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":")
    )


@dataclass(frozen=True)
class NumericRecipe:
    """Numeric-only replay of one plan execution on a fixed structure.

    ``a_gather``/``b_gather`` index the operands' stored entries in *merged*
    order (the kernels' provenance composed with the merge's stable sort
    permutation); ``group`` maps each product to its output entry.  Replay is
    one gather, one multiply and one in-order segmented sum — the same
    float64 operations in the same order as the cold path's merge.

    Attributes:
        shape: output matrix shape.
        a_gather: stored-entry index into ``A.data`` per product, sorted order.
        b_gather: stored-entry index into ``B.data`` per product, sorted order.
        group: output-entry id per product (summation target), sorted order.
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

    def replay(self, a_data: np.ndarray, b_data: np.ndarray) -> CSRMatrix:
        """Re-run the numeric phase against fresh operand values."""
        summed = kernels.gather_multiply_sum(
            a_data, b_data, self.a_gather, self.b_gather, self.group, self.n_groups
        )
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.copy(), summed)


@dataclass(frozen=True)
class SemiringRecipe:
    """Symbolic-structure replay for semiring products.

    Semiring merges drop entries equal to the reduce identity, so the output
    structure depends on the values and cannot be cached; what *is* structural
    — the expansion gathers in sorted order, the duplicate group starts and
    the unique output coordinates before identity-dropping — is.  Replay
    re-reduces, re-applies the identity filter and rebuilds ``indptr``.
    """

    shape: tuple[int, int]
    a_gather: np.ndarray
    b_gather: np.ndarray
    group_starts: np.ndarray
    out_rows: np.ndarray
    out_cols: np.ndarray

    def replay(
        self, a_data: np.ndarray, b_data: np.ndarray, semiring: Semiring
    ) -> CSRMatrix:
        """Re-run the semiring numeric phase against fresh operand values."""
        n_rows, _ = self.shape
        if len(self.a_gather) == 0:
            return CSRMatrix.empty(self.shape)
        vals = semiring.combine(a_data[self.a_gather], b_data[self.b_gather])
        reduced = semiring.reduce.reduceat(vals, self.group_starts)
        keep = reduced != semiring.identity
        out_rows, out_cols = self.out_rows[keep], self.out_cols[keep]
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(out_rows, minlength=n_rows), out=indptr[1:])
        return CSRMatrix(self.shape, indptr, out_cols, reduced[keep].astype(np.float64))


@dataclass
class PlanCacheStats:
    """Amortisation counters for one :class:`PlanCache`.

    ``lookups = hits + misses``; ``lowers`` and ``symbolic_expansions`` count
    the expensive work actually performed, ``numeric_replays`` the work the
    cache reduced each hit to.  An N-iteration fixed-structure loop should
    show ``lowers == 1`` and ``numeric_replays == N - 1``.  ``evictions`` /
    ``evicted_bytes`` count entries dropped by the LRU bound — non-zero means
    the workload's structure churn exceeds the configured budget and some
    lookups that could have replayed will re-lower instead.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    lowers: int = 0
    symbolic_expansions: int = 0
    numeric_replays: int = 0
    evictions: int = 0
    evicted_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served by replay (0.0 when no lookups yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """JSON-able snapshot, used by bench artifacts and ``repro run``."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "lowers": self.lowers,
            "symbolic_expansions": self.symbolic_expansions,
            "numeric_replays": self.numeric_replays,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "hit_rate": self.hit_rate,
        }

    def merge(self, other: "PlanCacheStats") -> None:
        """Fold another counter set into this one (aggregation across caches)."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class PlanCacheEntry:
    """One cached lowering: the plan plus (when capturable) a replay recipe."""

    plan: ExecutionPlan | None
    recipe: NumericRecipe | SemiringRecipe | None = None

    @property
    def nbytes(self) -> int:
        """Approximate retained size: the recipe's index/structure arrays.

        The plan itself is small (phase descriptors); the recipe's gather
        arrays scale with the product stream and dominate, so the byte
        budget counts ndarray fields only.
        """
        if self.recipe is None:
            return 0
        return sum(
            f.nbytes
            for f in vars(self.recipe).values()
            if isinstance(f, np.ndarray)
        )


class PlanCache:
    """Memoize lowered plans and numeric-replay recipes per structure.

    The cache is in-memory and session-scoped: keys include algorithm and
    config fingerprints, so one cache can serve several schemes, and
    non-fingerprintable schemes key by instance identity.  ``verify_fill``
    (default on) replays each freshly captured recipe against the cold result
    and requires exact equality before trusting it.

    ``max_entries`` and ``max_bytes`` bound the cache with LRU eviction —
    a lookup hit refreshes its entry's recency, an insert evicts the
    least-recently-used entries until both budgets hold.  Unbounded caches
    (both ``None``) match the historical behaviour but grow without limit
    under an evolving-structure workload, which no long-lived process
    (``repro serve``) should tolerate.
    """

    def __init__(
        self,
        *,
        verify_fill: bool = True,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.verify_fill = verify_fill
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = PlanCacheStats()
        self._entries: OrderedDict[tuple, PlanCacheEntry] = OrderedDict()
        self._entry_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Approximate bytes retained by cached recipes (see entry.nbytes)."""
        return self._entry_bytes

    def clear(self) -> None:
        """Drop all entries (counters are kept; not counted as evictions)."""
        self._entries.clear()
        self._entry_bytes = 0

    def _get(self, key: tuple) -> PlanCacheEntry | None:
        """Look an entry up, refreshing its LRU recency on a hit."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def _insert(self, key: tuple, entry: PlanCacheEntry) -> None:
        """Insert (or replace) an entry, then evict LRU until within budget."""
        old = self._entries.pop(key, None)
        if old is not None:
            self._entry_bytes -= old.nbytes
        self._entries[key] = entry
        self._entry_bytes += entry.nbytes
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
        self,
        algo: SpGEMMAlgorithm,
        a: CSRMatrix,
        b: CSRMatrix | None = None,
        *,
        ctx: MultiplyContext | None = None,
        config: GPUConfig | None = None,
    ) -> CSRMatrix:
        """Compute ``a @ b`` with ``algo``, replaying on structure hits.

        On a hit the entire cold pipeline — operand validation, context
        construction (CSC conversion, workload precalculation),
        classification, lowering and symbolic expansion — is skipped; only
        the recipe's gather + merge runs.  ``ctx`` may be supplied when the
        caller already built one.
        """
        from repro.plan.ir import NumericState
        from repro.spgemm.base import (
            DEFAULT_LOWERING_CONFIG,
            MultiplyContext,
            validate_operands,
        )

        if config is None:
            config = DEFAULT_LOWERING_CONFIG
        b = a if b is None else b
        key = (
            "plan",
            algorithm_token(algo),
            config_token(config),
            structure_fingerprint(a, b),
        )
        self.stats.lookups += 1
        entry = self._get(key)
        if entry is not None and entry.recipe is not None:
            self.stats.hits += 1
            self.stats.numeric_replays += 1
            with obs.span("plan.cache[hit]", "plan", hits=1, numeric_replays=1):
                return entry.recipe.replay(a.data, b.data)

        self.stats.misses += 1
        with obs.span("plan.cache[miss]", "plan", misses=1) as sp:
            validate_operands(a, b)
            if ctx is None:
                ctx = MultiplyContext.build(a, b)
            self.stats.lowers += 1
            plan = algo.lower_traced(ctx, config)
            self.stats.symbolic_expansions += 1
            sp.add(lowers=1, symbolic_expansions=1)
            state = NumericState(ctx, track_provenance=True)
            result, _ = plan.execute_instrumented(ctx, state)
            recipe = self._capture(state, result)
            self._insert(key, PlanCacheEntry(plan, recipe))
        return result

    def _capture(self, state, result: CSRMatrix) -> NumericRecipe | None:
        """Build a replay recipe from a tracked execution, or ``None``."""
        prov = state.provenance()
        if prov is None:
            return None
        a_src, b_src = prov
        mr = state.merge_recipe
        if mr is None:
            if len(a_src) == 0 and result.nnz == 0:
                zi = np.zeros(0, dtype=np.int64)
                return NumericRecipe(
                    result.shape, zi, zi.copy(), zi.copy(), 0,
                    result.indptr.copy(), zi.copy(),
                )
            return None
        if len(a_src) != len(mr.order):
            return None
        recipe = NumericRecipe(
            shape=mr.shape,
            a_gather=a_src[mr.order],
            b_gather=b_src[mr.order],
            group=mr.group,
            n_groups=mr.n_groups,
            indptr=mr.indptr,
            indices=mr.indices,
        )
        if self.verify_fill and not _identical(
            recipe.replay(state.ctx.a_csr.data, state.ctx.b_csr.data), result
        ):
            return None
        return recipe

    # -- semiring path --------------------------------------------------
    def semiring_multiply(
        self, a: CSRMatrix, b: CSRMatrix | None = None, semiring=None
    ) -> CSRMatrix:
        """Semiring product with symbolic-structure reuse.

        Uses the shared outer-product expansion; the cache key includes the
        semiring name because the combine decides nothing structural but the
        replay verification is algebra-specific.
        """
        from repro.spgemm.base import validate_operands
        from repro.spgemm.semiring import PLUS_TIMES, semiring_spgemm

        if semiring is None:
            semiring = PLUS_TIMES
        b = a if b is None else b
        key = ("semiring", semiring.name, structure_fingerprint(a, b))
        self.stats.lookups += 1
        entry = self._get(key)
        if entry is not None and entry.recipe is not None:
            self.stats.hits += 1
            self.stats.numeric_replays += 1
            with obs.span("plan.semiring[hit]", "plan", hits=1, numeric_replays=1):
                return entry.recipe.replay(a.data, b.data, semiring)

        self.stats.misses += 1
        self.stats.symbolic_expansions += 1
        with obs.span("plan.semiring[miss]", "plan", misses=1, symbolic_expansions=1):
            validate_operands(a, b)
            result = semiring_spgemm(a, b, semiring)
            recipe = self._capture_semiring(a, b)
            if (
                recipe is not None
                and self.verify_fill
                and not _identical(recipe.replay(a.data, b.data, semiring), result)
            ):
                recipe = None
            self._insert(key, PlanCacheEntry(None, recipe))
        return result

    def _capture_semiring(
        self, a: CSRMatrix, b: CSRMatrix
    ) -> SemiringRecipe | None:
        """Capture the structural half of a semiring product."""
        from repro.spgemm.expansion import expand_outer_indices

        a_csc = a.to_csc()
        rows, cols, a_idx, b_idx = expand_outer_indices(a_csc, b)
        shape = (a.n_rows, b.n_cols)
        # a_idx is in a_csc entry order; replay gathers from a.data (csr).
        csc_to_csr = np.argsort(a.indices, kind="stable")
        a_idx = csc_to_csr[a_idx]
        if len(rows) == 0:
            zi = np.zeros(0, dtype=np.int64)
            return SemiringRecipe(shape, zi, zi.copy(), zi.copy(), zi.copy(), zi.copy())
        keys = rows.astype(np.int64) * np.int64(shape[1]) + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        boundaries = np.empty(len(keys), dtype=bool)
        boundaries[0] = True
        boundaries[1:] = keys[1:] != keys[:-1]
        unique_keys = keys[boundaries]
        return SemiringRecipe(
            shape=shape,
            a_gather=a_idx[order],
            b_gather=b_idx[order],
            group_starts=np.flatnonzero(boundaries),
            out_rows=(unique_keys // shape[1]).astype(np.int64),
            out_cols=unique_keys % shape[1],
        )


def _identical(x: CSRMatrix, y: CSRMatrix) -> bool:
    """Exact structural and bitwise value equality of two CSR matrices."""
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.data, y.data)
    )

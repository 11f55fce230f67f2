"""Scheme-bound plan caches: reuse must be invisible except in speed.

The contract under test: a structure hit replays the numeric phase
*bit-identically* to a cold execution (same float64 summation order), a
structure change misses, the amortisation counters account for exactly
the work performed, and no result depends on the GPU a plan was lowered
for (which is why the key holds none).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.apps.pagerank import pagerank, pagerank_spgemm
from repro.apps.shortestpaths import k_hop_shortest_paths
from repro.bench.runner import paper_algorithms
from repro.core.adaptive import AdaptiveBlockReorganizer
from repro.core.reorganizer import BlockReorganizer
from repro.gpusim.config import ALL_GPUS
from repro.plan.cache import STRIPES, NumericRecipe, PlanCache, structure_fingerprint
from repro.sparse.csr import CSRMatrix
from repro.spgemm.base import MultiplyContext
from repro.spgemm.outerproduct import OuterProductSpGEMM
from repro.spgemm.rowproduct import RowProductSpGEMM
from repro.spgemm.semiring import MIN_PLUS, OR_AND, semiring_spgemm

from .conftest import random_csr


def _same_structure_new_values(m: CSRMatrix, rng) -> CSRMatrix:
    return CSRMatrix(
        m.shape, m.indptr.copy(), m.indices.copy(), rng.standard_normal(m.nnz)
    )


def _assert_bit_identical(x: CSRMatrix, y: CSRMatrix) -> None:
    assert x.shape == y.shape
    np.testing.assert_array_equal(x.indptr, y.indptr)
    np.testing.assert_array_equal(x.indices, y.indices)
    np.testing.assert_array_equal(x.data, y.data)


class TestStructureFingerprint:
    def test_values_do_not_matter(self, rng):
        a = random_csr(rng, 30, 30, 0.1)
        a2 = _same_structure_new_values(a, rng)
        assert structure_fingerprint(a, a) == structure_fingerprint(a2, a2)

    def test_structure_change_changes_fingerprint(self, rng):
        a = random_csr(rng, 30, 30, 0.1)
        b = random_csr(rng, 30, 30, 0.1)
        while np.array_equal(a.indices, b.indices) and np.array_equal(
            a.indptr, b.indptr
        ):  # pragma: no cover - astronomically unlikely
            b = random_csr(rng, 30, 30, 0.1)
        assert structure_fingerprint(a, a) != structure_fingerprint(b, b)

    def test_operand_order_matters(self, rng):
        a = random_csr(rng, 30, 30, 0.1)
        b = random_csr(rng, 30, 30, 0.15)
        assert structure_fingerprint(a, b) != structure_fingerprint(b, a)

    def test_square_hashes_its_operand_once(self, rng, monkeypatch):
        """``A·A`` digests A once, and a structural copy of A (another
        object) still fingerprints as A does."""
        from repro.plan import cache as cache_mod

        a = random_csr(rng, 30, 30, 0.1)
        calls = []
        digest = cache_mod._structure_digest
        monkeypatch.setattr(
            cache_mod, "_structure_digest", lambda m: calls.append(m) or digest(m)
        )
        square = structure_fingerprint(a, a)
        assert calls == [a]
        assert structure_fingerprint(a, _same_structure_new_values(a, rng)) == square
        assert len(calls) == 3


ALL_SCHEMES = [
    RowProductSpGEMM,
    OuterProductSpGEMM,
    BlockReorganizer,
]


class TestReplayBitIdentical:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_same_structure_new_values(self, scheme, rng):
        algo = scheme()
        cache = PlanCache(algo)
        a = random_csr(rng, 50, 50, 0.12)
        b = random_csr(rng, 50, 50, 0.12)
        cache.multiply(a, b)

        a2 = _same_structure_new_values(a, rng)
        b2 = _same_structure_new_values(b, rng)
        warm = cache.multiply(a2, b2)
        cold = algo.multiply(MultiplyContext.build(a2, b2))
        _assert_bit_identical(warm, cold)
        assert cache.stats.hits == 1
        assert cache.stats.lowers == 1

    def test_all_paper_algorithms_replay(self, rng):
        a = random_csr(rng, 60, 60, 0.1)
        b = random_csr(rng, 60, 60, 0.1)
        a2 = _same_structure_new_values(a, rng)
        b2 = _same_structure_new_values(b, rng)
        for algo in paper_algorithms():
            cache = PlanCache(algo)
            cache.multiply(a, b)
            warm = cache.multiply(a2, b2)
            assert cache.stats.hits == 1, algo.name
            cold = algo.multiply(MultiplyContext.build(a2, b2))
            _assert_bit_identical(warm, cold)

    def test_skewed_structure_exercises_split_provenance(self, rng, skewed_csr):
        # Power-law operands classify dominators, so the reorganizer's split
        # kernel (gather-composed provenance) is on the replay path.
        algo = BlockReorganizer()
        cache = PlanCache(algo)
        a = skewed_csr
        cache.multiply(a)
        a2 = CSRMatrix(
            a.shape, a.indptr.copy(), a.indices.copy(),
            rng.random(a.nnz) + 0.5,
        )
        warm = cache.multiply(a2)
        assert cache.stats.hits == 1
        cold = algo.multiply(MultiplyContext.build(a2, a2))
        _assert_bit_identical(warm, cold)

    def test_structure_change_invalidates(self, rng):
        algo = RowProductSpGEMM()
        cache = PlanCache(algo)
        a = random_csr(rng, 40, 40, 0.1)
        cache.multiply(a, a)
        b = random_csr(rng, 40, 40, 0.2)
        out = cache.multiply(b, b)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert cache.stats.lowers == 2
        cold = algo.multiply(MultiplyContext.build(b, b))
        _assert_bit_identical(out, cold)

    def test_empty_product_replays(self, rng):
        cache = PlanCache(RowProductSpGEMM())
        left = CSRMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        right = CSRMatrix.from_dense(np.array([[0.0, 0.0], [0.0, 0.0]]))
        # right has no stored entries at all -> empty expansion stream.
        first = cache.multiply(left, right)
        second = cache.multiply(left, right)
        assert first.nnz == 0 and second.nnz == 0
        assert cache.stats.hits == 1


class TestRecipeLayout:
    """A recipe keeps A's side per stored entry and C's columns as int32."""

    def test_recipe_bytes_bound(self, skewed_csr):
        """16 B per product (``b_gather``, ``group``), 16 per stored entry
        of A (``a_entries``, ``counts``), 4 per output entry and C's row
        pointers, for every scheme and a semiring recipe."""
        a = skewed_csr
        products = int(np.diff(a.indptr)[a.indices].sum())

        def bound(recipe: NumericRecipe) -> int:
            nnz_c = len(recipe.indices)
            return 16 * products + 16 * a.nnz + 4 * nnz_c + 8 * (a.n_rows + 1)

        for algo in paper_algorithms():
            cache = PlanCache(algo)
            assert cache.multiply(a).nnz > 0
            (recipe,) = cache._entries.values()
            assert recipe.nbytes <= bound(recipe), algo.name
            assert recipe.indices.dtype == np.int32, algo.name
        cache.semiring_multiply(a, a, MIN_PLUS)
        (_, semiring_recipe) = cache._entries.values()
        assert semiring_recipe.nbytes <= bound(semiring_recipe)


class TestLoweringTargetIndependence:
    """No result reads the GPU a plan was lowered for — only the structure,
    the expansion order and the pair tie ranks — which is what lets the
    plan cache key on the structure alone."""

    @pytest.mark.parametrize("name", [algo.name for algo in paper_algorithms()])
    def test_every_gpu_lowers_to_the_cached_bits(self, name, rng, skewed_csr):
        algo = next(a for a in paper_algorithms() if a.name == name)
        skewed = _same_structure_new_values(skewed_csr, rng)  # signed values
        operands = [
            (skewed, skewed),
            (random_csr(rng, 40, 60, 0.1), random_csr(rng, 60, 30, 0.15)),
        ]
        for a, b in operands:
            a2 = _same_structure_new_values(a, rng)
            b2 = _same_structure_new_values(b, rng)
            cache = PlanCache(algo)
            cold = cache.multiply(a, b)
            replayed = cache.multiply(a2, b2)
            assert cache.stats.hits == 1
            for gpu in ALL_GPUS:
                for x, y, want in ((a, b, cold), (a2, b2, replayed)):
                    ctx = MultiplyContext.build(x, y)
                    _assert_bit_identical(algo.lower(ctx, gpu).execute(ctx), want)


class TestSemiringReplay:
    @pytest.mark.parametrize("semiring", [MIN_PLUS, OR_AND])
    def test_same_structure_new_values(self, semiring, rng):
        cache = PlanCache(OuterProductSpGEMM())
        a = random_csr(rng, 40, 40, 0.15)
        b = random_csr(rng, 40, 40, 0.15)
        cache.semiring_multiply(a, b, semiring)
        a2 = CSRMatrix(
            a.shape, a.indptr.copy(), a.indices.copy(), rng.random(a.nnz) + 0.1
        )
        b2 = CSRMatrix(
            b.shape, b.indptr.copy(), b.indices.copy(), rng.random(b.nnz) + 0.1
        )
        warm = cache.semiring_multiply(a2, b2, semiring)
        assert cache.stats.hits == 1
        cold = semiring_spgemm(a2, b2, semiring)
        _assert_bit_identical(warm, cold)

    def test_miss_expands_once(self, rng, monkeypatch):
        """One kernel call builds both the result and the recipe."""
        calls = []
        expand = kernels.expand_entries

        def counting(*args):
            calls.append(1)
            return expand(*args)

        monkeypatch.setattr(kernels, "expand_entries", counting)
        a = random_csr(rng, 30, 30, 0.2)
        PlanCache(OuterProductSpGEMM()).semiring_multiply(a, a, MIN_PLUS)
        assert len(calls) == 1

    def test_identity_dropping_recomputed_per_replay(self, rng):
        # The kept-entry set depends on values, so replay must rebuild the
        # output structure, not reuse the fill-time one.
        cache = PlanCache(OuterProductSpGEMM())
        a = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
        cache.semiring_multiply(a, a, OR_AND)
        # Same structure, but values that make some products vanish under
        # or-and (zeros are combine-annihilators kept as stored entries).
        a2 = CSRMatrix(a.shape, a.indptr.copy(), a.indices.copy(),
                       np.array([1.0, 0.0, 1.0]))
        warm = cache.semiring_multiply(a2, a2, OR_AND)
        assert cache.stats.hits == 1
        cold = semiring_spgemm(a2, a2, OR_AND)
        _assert_bit_identical(warm, cold)


class TestFillTimeVerification:
    @pytest.mark.parametrize("path", ["plan", "semiring"])
    def test_recipe_that_disagrees_is_not_cached(self, path, rng, monkeypatch):
        """A recipe whose verifying replay disagrees with the cold result is
        dropped: the cold result comes back as computed, nothing is cached,
        and the structure's next lookup misses again."""
        algo = RowProductSpGEMM()
        a = random_csr(rng, 30, 30, 0.2)
        replay = NumericRecipe.replay

        def disagreeing(self, *args, **kwargs):
            out = replay(self, *args, **kwargs)
            out.data += 1.0
            return out

        monkeypatch.setattr(NumericRecipe, "replay", disagreeing)
        cache = PlanCache(algo)
        if path == "plan":
            run = partial(cache.multiply, a, a)
            cold = algo.multiply(MultiplyContext.build(a, a))
        else:
            run = partial(cache.semiring_multiply, a, a, MIN_PLUS)
            cold = semiring_spgemm(a, a, MIN_PLUS)
        assert cold.nnz
        _assert_bit_identical(run(), cold)
        assert (len(cache), cache.nbytes) == (0, 0)
        _assert_bit_identical(run(), cold)
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)


class TestIterativeSession:
    """One scheme-bound cache held across a loop (the runtime's warm cache)."""

    def test_counters_and_reuse(self, rng):
        cache = PlanCache(RowProductSpGEMM())
        a = random_csr(rng, 40, 40, 0.1)
        for _ in range(5):
            cache.multiply(a, a)
        stats = cache.stats
        assert stats.lookups == 5
        assert stats.lowers == 1
        assert stats.hits == 4
        assert stats.hit_rate == pytest.approx(0.8)

    def test_wrap_passes_sessions_through(self):
        cache = PlanCache(RowProductSpGEMM())
        assert PlanCache.wrap(cache) is cache
        algo = RowProductSpGEMM()
        wrapped = PlanCache.wrap(algo)
        assert isinstance(wrapped, PlanCache)
        assert wrapped.algorithm is algo


def _run_threads(targets) -> list[BaseException]:
    """Run each target on its own thread; return what they raised."""
    errors: list[BaseException] = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    return errors


class TestThreadSafety:
    """One cache shared between threads, as the runtime shares each one."""

    def test_concurrent_callers_of_a_new_structure_lower_once(self, rng):
        class SlowLowering(RowProductSpGEMM):
            def lower(self, ctx, config):
                time.sleep(0.05)  # let the other callers reach the cache
                return super().lower(ctx, config)

        a = random_csr(rng, 60, 60, 0.1)
        cold = RowProductSpGEMM().multiply(MultiplyContext.build(a))
        cache = PlanCache(SlowLowering())
        barrier = threading.Barrier(8, timeout=10)
        results = []

        def call():
            barrier.wait()
            results.append(cache.multiply(a))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often to expose lost updates
        try:
            assert not _run_threads([call] * 8)
        finally:
            sys.setswitchinterval(interval)
        stats = cache.stats
        assert (stats.lookups, stats.hits, stats.lowers) == (8, 7, 1)
        for result in results:
            _assert_bit_identical(result, cold)

    def test_distinct_structures_lower_concurrently(self, rng):
        """Each lowering waits for the other at a barrier, so a cache that
        serialised distinct structures would break it."""
        barrier = threading.Barrier(2, timeout=10)

        class Rendezvous(RowProductSpGEMM):
            def lower(self, ctx, config):
                barrier.wait()
                return super().lower(ctx, config)

        def stripe(m):
            return int(structure_fingerprint(m, m)[:8], 16) % STRIPES

        a = random_csr(rng, 30, 30, 0.1)
        b = random_csr(rng, 31, 31, 0.1)
        while stripe(b) == stripe(a):
            b = random_csr(rng, 31, 31, 0.1)
        cache = PlanCache(Rendezvous())
        assert not _run_threads([partial(cache.multiply, a), partial(cache.multiply, b)])
        assert cache.stats.lowers == 2


class TestIterativeApps:
    def test_pagerank_spgemm_lowering_amortised(self):
        # Acceptance criterion: a 20-iteration PageRank run on a catalog
        # dataset performs lowering + symbolic expansion exactly once.
        from repro.datasets.loader import load

        adj = load("poisson3da").a
        cache = PlanCache(RowProductSpGEMM())
        result = pagerank_spgemm(adj, cache, max_iter=20, tol=0.0)
        assert result.iterations == 20
        stats = cache.stats
        assert stats.lookups == 20
        assert stats.lowers == 1
        assert stats.hits == 19

        reference = pagerank(adj, max_iter=20, tol=0.0)
        np.testing.assert_allclose(
            result.scores, reference.scores, rtol=1e-9, atol=1e-12
        )

    def test_pagerank_spgemm_matches_pagerank(self, rng):
        a = random_csr(rng, 50, 50, 0.1)
        mine = pagerank_spgemm(a, RowProductSpGEMM(), max_iter=60)
        ref = pagerank(a, max_iter=60)
        np.testing.assert_allclose(mine.scores, ref.scores, rtol=1e-8, atol=1e-12)

    def test_shortest_paths_session_reuses_converged_structure(self, rng):
        weights = random_csr(rng, 30, 30, 0.2)
        weights = CSRMatrix(
            weights.shape, weights.indptr, weights.indices, weights.data + 0.1
        )
        cache = PlanCache(RowProductSpGEMM())
        with_cache = k_hop_shortest_paths(weights, 6, cache=cache)
        without = k_hop_shortest_paths(weights, 6)
        _assert_bit_identical(with_cache, without)
        # On a 30-node graph the distance structure converges within a few
        # relaxations; the remaining ones must be structure hits.
        assert cache.stats.hits > 0

    def test_adaptive_tuning_memoised_per_structure(self, rng, skewed_csr):
        algo = AdaptiveBlockReorganizer()
        ctx = MultiplyContext.build(skewed_csr, skewed_csr)
        first = algo.tune(ctx)
        assert algo.tune(ctx) is first  # same structure: memoized object
        other = MultiplyContext.build(*[random_csr(rng, 40, 40, 0.1)] * 2)
        assert algo.tune(other) is not first


class TestBenchGridUnaffected:
    def test_smoke_grid_identical_with_plan_cache(self):
        # The golden grid is the performance plane; running the numeric plane
        # through a PlanCache (including warm replays) must not perturb it.
        import json as jsonlib

        from repro.bench.cache import result_to_dict
        from repro.bench.runner import get_context, run_matrix

        datasets = ["poisson3da", "as_caida"]

        def canonical():
            results = run_matrix(datasets, paper_algorithms(), workers=1, cache=None)
            return {
                f"{d}/{a}": jsonlib.dumps(result_to_dict(r), sort_keys=True)
                for (d, a), r in results.items()
            }

        baseline = canonical()
        for dataset in datasets:
            ctx = get_context(dataset)
            for algo in paper_algorithms():
                cache = PlanCache(algo)
                cold = cache.multiply(ctx.a_csr, ctx.b_csr)
                warm = cache.multiply(ctx.a_csr, ctx.b_csr)
                _assert_bit_identical(cold, warm)
                assert cache.stats.hits == 1
        assert canonical() == baseline


class TestBoundedCache:
    """LRU bounding: a long-lived cache must not grow without limit."""

    def _fill(self, cache, rng, n, shape=(10, 10)):
        """Run n distinct-structure multiplies through the cache."""
        matrices = []
        for _ in range(n):
            m = random_csr(rng, *shape, 0.3)
            cache.multiply(m, m)
            matrices.append(m)
        return matrices

    def test_unbounded_by_default(self, rng):
        cache = PlanCache(RowProductSpGEMM())
        self._fill(cache, rng, 5)
        assert len(cache) == 5
        assert cache.stats.evictions == 0

    def test_max_entries_evicts_lru(self, rng):
        cache = PlanCache(RowProductSpGEMM(), max_entries=3)
        matrices = self._fill(cache, rng, 5)
        assert len(cache) == 3
        assert cache.stats.evictions == 2
        # The two oldest structures were evicted: multiplying them again
        # re-lowers (miss); the three newest replay (hit).
        lowers = cache.stats.lowers
        for m in matrices[:2]:
            cache.multiply(m, m)
        assert cache.stats.lowers == lowers + 2
        hits = cache.stats.hits
        for m in matrices[-1:]:
            cache.multiply(m, m)
        assert cache.stats.hits == hits + 1

    def test_hit_refreshes_recency(self, rng):
        cache = PlanCache(RowProductSpGEMM(), max_entries=2)
        matrices = self._fill(cache, rng, 2)
        cache.multiply(matrices[0], matrices[0])  # refresh oldest
        m3 = random_csr(rng, 10, 10, 0.3)
        cache.multiply(m3, m3)  # evicts matrices[1], not matrices[0]
        hits = cache.stats.hits
        cache.multiply(matrices[0], matrices[0])
        assert cache.stats.hits == hits + 1
        lowers = cache.stats.lowers
        cache.multiply(matrices[1], matrices[1])
        assert cache.stats.lowers == lowers + 1

    def test_results_identical_under_eviction(self, rng):
        algo = RowProductSpGEMM()
        bounded = PlanCache(algo, max_entries=1)
        unbounded = PlanCache(algo)
        matrices = [random_csr(rng, 12, 12, 0.3) for _ in range(3)]
        for _ in range(2):  # second round: bounded cache re-lowers every time
            for m in matrices:
                _assert_bit_identical(bounded.multiply(m, m), unbounded.multiply(m, m))
        assert bounded.stats.evictions > 0

    def test_semiring_entries_bounded_too(self, rng):
        cache = PlanCache(OuterProductSpGEMM(), max_entries=2)
        for _ in range(4):
            m = random_csr(rng, 8, 8, 0.4)
            cache.semiring_multiply(m, m, OR_AND)
        assert len(cache) == 2
        assert cache.stats.evictions == 2

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(RowProductSpGEMM(), max_entries=0)

    def test_eviction_counters_in_dict_and_rendering(self, rng):
        from repro.obs.counters import snapshot, text_lines

        cache = PlanCache(RowProductSpGEMM(), max_entries=1)
        self._fill(cache, rng, 2)
        d = snapshot(cache.stats)
        assert d["evictions"] == 1
        assert d["evicted_bytes"] > 0
        assert dict(line.split() for line in text_lines(cache.stats))["evictions"] == "1"


def _lru_lookup(model: OrderedDict, key, max_entries: int) -> bool:
    """One lookup in a plain LRU of ``max_entries`` keys; True on a hit."""
    hit = key in model
    model[key] = None
    model.move_to_end(key)
    while len(model) > max_entries:
        model.popitem(last=False)
    return hit


@lru_cache(maxsize=1)
def _retention_structures() -> tuple:
    """Eight small structures of distinct shapes, each with two value sets
    and their cold plan and MIN_PLUS products."""
    rng = np.random.default_rng(2024)
    algo = RowProductSpGEMM()
    structures = []
    for i in range(8):
        a = random_csr(rng, 4 + i, 4 + i, 0.4)
        variants = [a, _same_structure_new_values(a, rng)]
        cold = {
            ("plan", v): algo.multiply(MultiplyContext.build(x, x)) for v, x in enumerate(variants)
        }
        cold.update(
            {("semiring", v): semiring_spgemm(x, x, MIN_PLUS) for v, x in enumerate(variants)}
        )
        keys = {
            "plan": ("plan", structure_fingerprint(a, a)),
            "semiring": ("semiring", MIN_PLUS.name, structure_fingerprint(a, a)),
        }
        structures.append((variants, cold, keys))
    return tuple(structures)


class TestWorkingSetRetention:
    """A bounded cache keeps the recipes of the structures a workload still
    reuses: as many reused structures as its deepest measured reuse needs,
    within the plain LRU bound of ``max_entries`` structures."""

    @given(
        st.integers(1, 6),
        st.lists(
            st.tuples(st.integers(0, 7), st.sampled_from(["plan", "semiring"]), st.integers(0, 1)),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_lookups_stay_within_the_lru_bound(self, max_entries, lookups):
        """Every result equals a cold product, the structures holding a
        recipe are among those an LRU of ``max_entries`` keys holds, and the
        cache's size and bytes account for exactly its recipes."""
        structures = _retention_structures()
        cache = PlanCache(RowProductSpGEMM(), max_entries=max_entries)
        model: OrderedDict = OrderedDict()
        for index, path, variant in lookups:
            variants, cold, keys = structures[index]
            x = variants[variant]
            if path == "plan":
                out = cache.multiply(x, x)
            else:
                out = cache.semiring_multiply(x, x, MIN_PLUS)
            _assert_bit_identical(out, cold[path, variant])
            _lru_lookup(model, keys[path], max_entries)
            held = {key: r for key, r in cache._entries.items() if r is not None}
            assert set(held) <= set(model)
            assert len(cache) == len(held) <= max_entries
            assert cache.nbytes == sum(r.nbytes for r in held.values())

    def test_concurrent_lookups_keep_the_books(self):
        """Eight threads (more than cores) share one small bounded cache while
        reading its size: every result equals a cold product, and the
        counters, size and bytes account for every lookup and recipe."""
        structures = _retention_structures()
        cache = PlanCache(RowProductSpGEMM(), max_entries=3)

        def caller(seed):
            order = np.random.default_rng(seed)
            for _ in range(60):
                variants, cold, _ = structures[order.integers(8)]
                variant = int(order.integers(2))
                x = variants[variant]
                if order.random() < 0.5:
                    _assert_bit_identical(cache.multiply(x, x), cold["plan", variant])
                else:
                    out = cache.semiring_multiply(x, x, MIN_PLUS)
                    _assert_bit_identical(out, cold["semiring", variant])
                assert len(cache) <= 3

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often to expose lost updates
        try:
            assert not _run_threads([partial(caller, seed) for seed in range(8)])
        finally:
            sys.setswitchinterval(interval)
        stats = cache.stats
        assert stats.lookups == stats.hits + stats.misses == 480
        held = [r for r in cache._entries.values() if r is not None]
        assert len(cache) == len(held) <= 3
        assert cache.nbytes == sum(r.nbytes for r in held)

    def test_finished_structures_drop_their_recipes(self, rng):
        """Each structure once cold, then 7 replays, never again: only the
        current structure and the one before it keep a recipe, where an
        unbounded cache keeps all 40."""
        bounded = PlanCache(RowProductSpGEMM(), max_entries=32)
        unbounded = PlanCache(RowProductSpGEMM())
        for _ in range(40):
            a = random_csr(rng, 10, 10, 0.3)
            for _ in range(8):
                _assert_bit_identical(bounded.multiply(a, a), unbounded.multiply(a, a))
                assert len(bounded) <= 2
        assert (bounded.stats.lowers, bounded.stats.hits) == (40, 280)
        assert bounded.stats.evictions == 38
        assert len(unbounded) == 40

    @pytest.mark.parametrize("max_entries", [8, 32])
    def test_pool_with_one_off_structures_hits_like_lru(self, rng, max_entries):
        """Six structures round-robin, a new one every 8th lookup: every
        lookup hits or misses exactly as in an LRU of ``max_entries``."""
        pool = [random_csr(rng, 10, 10, 0.3) for _ in range(6)]
        cache = PlanCache(RowProductSpGEMM(), max_entries=max_entries)
        model: OrderedDict = OrderedDict()
        turn = 0
        for i in range(160):
            if i % 8 == 7:
                a, key = random_csr(rng, 10, 10, 0.3), ("new", i)
            else:
                a, key = pool[turn % 6], ("pool", turn % 6)
                turn += 1
            _, replayed = cache.run(a, a)
            assert replayed == _lru_lookup(model, key, max_entries), i
        # 140 pool lookups, of which the first six lower.
        assert (cache.stats.hits, cache.stats.lowers) == (134, 26)

    def test_looped_then_cycled_structures_hit_from_the_second_cycle(self, rng):
        """Four structures each looped, then cycled: the first cycle reuses
        deeper than the loops did, so the two structures dropped meanwhile
        lower once more; from the second cycle on every lookup hits."""
        structures = [random_csr(rng, 10, 10, 0.3) for _ in range(4)]
        cache = PlanCache(RowProductSpGEMM(), max_entries=32)
        for a in structures:
            for _ in range(3):
                cache.multiply(a, a)
        assert len(cache) == 2
        for a in structures:
            cache.multiply(a, a)
        assert cache.stats.lowers == 6
        for _ in range(3):
            for a in structures:
                assert cache.run(a, a)[1]
        cache.clear()
        assert (len(cache._entries), cache.nbytes, len(cache._reused), cache._depth) == (0, 0, 0, 0)

    def test_one_deep_reuse_keeps_its_depth(self, rng):
        """D never falls: after one reuse 3 reused structures deep, a stream
        of finished structures keeps the recipes of the 4 most recent
        reused ones plus the current one, where it kept 2 before."""
        cache = PlanCache(RowProductSpGEMM(), max_entries=32)

        def stream(n):
            for _ in range(n):
                a = random_csr(rng, 10, 10, 0.3)
                for _ in range(2):
                    cache.multiply(a, a)
            return a

        first = stream(1)
        stream(3)
        assert (cache._depth, len(cache)) == (0, 2)
        lowers = cache.stats.lowers
        cache.multiply(first, first)
        assert (cache._depth, cache.stats.lowers) == (3, lowers + 1)
        stream(10)
        assert (cache._depth, len(cache)) == (3, 5)

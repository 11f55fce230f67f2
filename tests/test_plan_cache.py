"""Scheme-bound plan caches: reuse must be invisible except in speed.

The contract under test: a structure hit replays the numeric phase
*bit-identically* to a cold execution (same float64 summation order), a
structure change misses, the amortisation counters account for exactly
the work performed, and no result depends on the GPU a plan was lowered
for (which is why the key holds none).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import kernels
from repro.apps.pagerank import pagerank, pagerank_spgemm
from repro.apps.shortestpaths import k_hop_shortest_paths
from repro.bench.runner import paper_algorithms
from repro.core.adaptive import AdaptiveBlockReorganizer
from repro.core.reorganizer import BlockReorganizer
from repro.gpusim.config import ALL_GPUS
from repro.plan.cache import NumericRecipe, PlanCache, structure_fingerprint
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
    """One scheme-bound cache held across a loop (the runtime's warm session)."""

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

    def test_byte_budget_evicts_and_counts(self, rng):
        cache = PlanCache(RowProductSpGEMM(), max_bytes=1)  # every entry overflows
        self._fill(cache, rng, 3)
        assert len(cache) <= 1
        assert cache.stats.evictions >= 2
        assert cache.stats.evicted_bytes > 0
        assert cache.nbytes <= max(e.nbytes for e in cache._entries.values()) if len(cache) else True

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
        with pytest.raises(ValueError):
            PlanCache(RowProductSpGEMM(), max_bytes=-1)

    def test_eviction_counters_in_dict_and_rendering(self, rng):
        from repro.obs.counters import snapshot, text_lines

        cache = PlanCache(RowProductSpGEMM(), max_entries=1)
        self._fill(cache, rng, 2)
        d = snapshot(cache.stats)
        assert d["evictions"] == 1
        assert d["evicted_bytes"] > 0
        assert dict(line.split() for line in text_lines(cache.stats))["evictions"] == "1"

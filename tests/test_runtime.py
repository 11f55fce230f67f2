"""Tests for the repro.runtime layer: config, facade, pooling, lifecycle.

Covers the concurrency contract the serve front-end depends on — two
interleaved request streams against one :class:`Runtime` (same and
different structure fingerprints, same and different tenants) must stay
bit-identical to serial execution with no PlanCache cross-contamination —
and the shutdown hooks that close registered runtimes: a SIGTERM against a
process with a warm runtime must close it and leak no shared memory.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.core.reorganizer import BlockReorganizer, ReorganizerOptions
from repro.errors import ConfigurationError, ReproError
from repro.runtime import Runtime, RuntimeConfig, gpu_by_name, lifecycle
from repro.sparse.csr import CSRMatrix
from repro.sparse.random import power_law
from repro.spgemm.base import MultiplyContext
from repro.spgemm.rowproduct import RowProductSpGEMM

from .conftest import random_csr


def _direct(a, b):
    """The plain one-shot engine path, the bit-identity reference."""
    return RowProductSpGEMM().multiply(MultiplyContext.build(a, b))


def _pair(rng, n=40, density=0.12):
    return random_csr(rng, n, n, density), random_csr(rng, n, n, density)


class TestRuntimeConfig:
    def test_defaults(self):
        config = RuntimeConfig()
        assert config.resolved_workers == 1
        assert config.resolved_exec_workers == 1
        assert config.plan_cache_entries == 32

    def test_from_args_maps_flags(self):
        args = argparse.Namespace(
            gpu="TeslaV100", workers=3, no_cache=True, plan_cache_entries=5,
        )
        config = RuntimeConfig.from_args(args)
        assert config.gpu.name == "Tesla V100"
        assert config.workers == 3
        assert config.use_result_cache is False
        assert config.plan_cache_entries == 5

    def test_from_args_ignores_missing_flags(self):
        config = RuntimeConfig.from_args(argparse.Namespace())
        assert config == RuntimeConfig()

    def test_invalid_session_quota_rejected(self):
        with pytest.raises(ConfigurationError, match="plan_cache_entries"):
            RuntimeConfig(plan_cache_entries=0)

    def test_unknown_gpu_is_repro_error(self):
        with pytest.raises(ReproError, match="unknown GPU"):
            gpu_by_name("nope")


class TestRuntimeFacade:
    def test_multiply_matches_direct_algorithm(self, rng):
        a, b = _pair(rng)
        direct = _direct(a, b)
        with Runtime(RuntimeConfig()) as rt:
            outcome = rt.multiply("row-product", a, b)
        assert outcome.result.data.tobytes() == direct.data.tobytes()
        assert (outcome.result.indptr == direct.indptr).all()
        assert (outcome.result.indices == direct.indices).all()

    def test_repeat_structure_is_replayed(self, rng):
        a, b = _pair(rng)
        with Runtime(RuntimeConfig()) as rt:
            first = rt.multiply("row-product", a, b)
            second = rt.multiply("row-product", a, b)
        assert not first.replayed
        assert second.replayed
        assert first.fingerprint == second.fingerprint
        assert first.result.data.tobytes() == second.result.data.tobytes()

    def test_warm_multiply_hashes_the_structure_once(self, rng, monkeypatch):
        """The runtime's fingerprint is also the plan cache's key."""
        from repro.plan import cache
        from repro.runtime import core

        a, b = _pair(rng)
        calls = []
        fingerprint = cache.structure_fingerprint

        def counting(x, y):
            calls.append(1)
            return fingerprint(x, y)

        monkeypatch.setattr(cache, "structure_fingerprint", counting)
        monkeypatch.setattr(core, "structure_fingerprint", counting)
        with Runtime(RuntimeConfig()) as rt:
            rt.multiply("row-product", a, b)
            calls.clear()
            warm = rt.multiply("row-product", a, b)
        assert warm.replayed
        assert len(calls) == 1

    def test_scheme_instances_keep_their_own_sessions(self, rng):
        """Two differently-configured instances of one scheme, run through
        one runtime on one operand, each get their own warm cache and
        return their own bits, cold and replayed."""
        a = power_law(1000, 6000, seed=0).to_csr()
        a = CSRMatrix(a.shape, a.indptr, a.indices, rng.standard_normal(a.nnz))
        schemes = [BlockReorganizer(), BlockReorganizer(options=ReorganizerOptions(alpha=0.9))]
        want = [algo.multiply(MultiplyContext.build(a)) for algo in schemes]
        assert want[0].data.tobytes() != want[1].data.tobytes()
        with Runtime(RuntimeConfig()) as rt:
            for replayed in (False, True):
                for algo, expected in zip(schemes, want):
                    outcome = rt.multiply(algo, a)
                    assert outcome.replayed is replayed
                    assert outcome.result.data.tobytes() == expected.data.tobytes()
            stats = rt.stats()
        assert (stats.recipes, stats.plan_cache.lowers) == (2, 2)

    def test_scheme_name_resolves_to_the_runtime_instance(self, rng):
        a, b = _pair(rng)
        with Runtime(RuntimeConfig()) as rt:
            rt.multiply("row-product", a, b)
            assert rt.multiply(rt.algorithm("row-product"), a, b).replayed
            assert not rt.multiply(RowProductSpGEMM(), a, b).replayed
            assert rt.stats().recipes == 2

    def test_unknown_algorithm_raises(self, rng):
        a, b = _pair(rng)
        with Runtime(RuntimeConfig()) as rt:
            with pytest.raises(ReproError, match="unknown algorithm"):
                rt.multiply("nope", a, b)

    def test_session_pool_keyed_by_structure_and_tenant(self, rng):
        a, b = _pair(rng)
        c, d = _pair(rng, n=23)
        with Runtime(RuntimeConfig()) as rt:
            rt.multiply("row-product", a, b, tenant="alice")
            rt.multiply("row-product", a, b, tenant="alice")
            rt.multiply("row-product", c, d, tenant="alice")
            rt.multiply("row-product", a, b, tenant="bob")
            stats = rt.stats()
        assert stats.recipes == 3
        assert stats.tenants == {"alice": 2, "bob": 1}
        assert stats.requests == 4

    def test_per_tenant_lru_eviction(self, rng):
        pairs = [_pair(rng, n=20 + 3 * i) for i in range(3)]
        with Runtime(RuntimeConfig(plan_cache_entries=2)) as rt:
            for a, b in pairs:
                rt.multiply("row-product", a, b, tenant="alice")
            stats = rt.stats()
            assert stats.recipes == 2
            assert stats.plan_cache.evictions == 1
            assert stats.plan_cache.lowers == 3
            # The evicted structure re-lowers on return (its recipe is gone).
            outcome = rt.multiply("row-product", *pairs[0], tenant="alice")
            assert not outcome.replayed
            assert rt.stats().plan_cache.evictions == 2

    def test_eviction_is_scoped_to_one_tenant(self, rng):
        pairs = [_pair(rng, n=20 + 3 * i) for i in range(3)]
        with Runtime(RuntimeConfig(plan_cache_entries=2)) as rt:
            rt.multiply("row-product", *pairs[0], tenant="bob")
            rt.multiply("row-product", *pairs[0], tenant="alice")
            rt.multiply("row-product", *pairs[1], tenant="alice")
            assert rt.multiply("row-product", *pairs[0], tenant="alice").replayed
            # alice's third structure evicts her least recently used recipe.
            rt.multiply("row-product", *pairs[2], tenant="alice")
            stats = rt.stats()
            assert stats.plan_cache.evictions == 1
            assert stats.tenants == {"bob": 1, "alice": 2}
            assert rt.multiply("row-product", *pairs[0], tenant="alice").replayed
            assert not rt.multiply("row-product", *pairs[1], tenant="alice").replayed
            # bob's single recipe survived alice's churn: replay, not lower.
            assert rt.multiply("row-product", *pairs[0], tenant="bob").replayed

    def test_close_drops_recipes_and_keeps_counters(self, rng):
        a, b = _pair(rng)
        rt = Runtime(RuntimeConfig())
        rt.multiply("row-product", a, b)
        rt.multiply("row-product", a, b)
        rt.close()
        stats = rt.stats()
        assert stats.recipes == 0
        assert (stats.plan_cache.lowers, stats.plan_cache.hits, stats.requests) == (1, 1, 2)

    def test_recipe_bytes_sums_every_cache(self, rng):
        """``recipe_bytes`` is the bytes every tenant's and scheme's cache
        retains, in the JSON and CLI views too, and 0 once closed."""
        from repro.obs.counters import snapshot, text_lines

        a, b = _pair(rng)
        c, d = _pair(rng, n=23)
        with Runtime(RuntimeConfig()) as rt:
            rt.multiply("row-product", a, b, tenant="alice")
            rt.multiply("outer-product", c, d, tenant="bob")
            caches = [rt.cache("row-product", "alice"), rt.cache("outer-product", "bob")]
            stats = rt.stats()
            assert stats.recipe_bytes == sum(cache.nbytes for cache in caches)
            assert min(cache.nbytes for cache in caches) > 0
            assert snapshot(stats)["recipe_bytes"] == stats.recipe_bytes
            lines = dict(line.split() for line in text_lines(stats))
            assert lines["recipe_bytes"] == str(stats.recipe_bytes)
        assert rt.stats().recipe_bytes == 0

    def test_closed_runtime_rejects_work(self, rng):
        a, b = _pair(rng)
        rt = Runtime(RuntimeConfig())
        rt.close()
        rt.close()  # idempotent
        with pytest.raises(ReproError, match="closed"):
            rt.multiply("row-product", a, b)

    def test_apps_match_direct_calls(self, rng):
        from repro.apps.pagerank import pagerank_spgemm
        from repro.apps.reachability import k_hop_reachability
        from repro.apps.similarity import cosine_similarity

        adj = random_csr(rng, 35, 35, 0.1)
        algo = RowProductSpGEMM()
        with Runtime(RuntimeConfig()) as rt:
            scores = rt.pagerank("row-product", adj).scores
            reach = rt.reachability("row-product", adj, 3)
            sim = rt.similarity("row-product", adj, "cosine")
        assert scores.tobytes() == pagerank_spgemm(adj, algo).scores.tobytes()
        assert reach.data.tobytes() == k_hop_reachability(adj, 3, algo).data.tobytes()
        assert sim.data.tobytes() == cosine_similarity(adj, algo).data.tobytes()

    def test_similarity_metrics_share_one_recipe(self):
        """common, cosine and jaccard all multiply A @ A^T: the first call
        lowers, the other two replay, and each returns the direct bits."""
        from repro.apps import similarity as sim

        adj = power_law(300, 1500, seed=0).to_csr()
        direct = {
            "common": sim.common_neighbors,
            "cosine": sim.cosine_similarity,
            "jaccard": sim.jaccard_similarity,
        }
        with Runtime(RuntimeConfig()) as rt:
            for metric, fn in direct.items():
                got = rt.similarity("row-product", adj, metric)
                assert got.data.tobytes() == fn(adj, RowProductSpGEMM()).data.tobytes()
            stats = rt.stats()
        assert (stats.plan_cache.lowers, stats.plan_cache.hits) == (1, 2)
        assert stats.recipes == 1

    def test_unknown_similarity_metric(self, rng):
        adj = random_csr(rng, 10, 10, 0.2)
        with Runtime(RuntimeConfig()) as rt:
            with pytest.raises(ReproError, match="unknown similarity metric"):
                rt.similarity("row-product", adj, "nope")


class TestConcurrentSessions:
    """Satellite: interleaved request streams must equal serial execution."""

    def test_interleaved_streams_bit_identical_to_serial(self, rng):
        same = _pair(rng, n=45)
        other = _pair(rng, n=45, density=0.08)
        serial_same = _direct(*same)
        serial_other = _direct(*other)
        rounds = 6
        with Runtime(RuntimeConfig()) as rt:
            results: dict[str, list] = {"same": [], "other": []}
            errors: list[BaseException] = []
            barrier = threading.Barrier(2)

            def stream(name: str, pair) -> None:
                try:
                    barrier.wait()
                    for _ in range(rounds):
                        results[name].append(rt.multiply("row-product", *pair).result)
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=stream, args=("same", same)),
                threading.Thread(target=stream, args=("other", other)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            stats = rt.stats()
        for result in results["same"]:
            assert result.data.tobytes() == serial_same.data.tobytes()
            assert (result.indices == serial_same.indices).all()
        for result in results["other"]:
            assert result.data.tobytes() == serial_other.data.tobytes()
            assert (result.indices == serial_other.indices).all()
        # Two structures, one lowering each — replay served the remainder.
        assert stats.plan_cache.lowers == 2
        assert stats.plan_cache.hits == 2 * (rounds - 1)

    def test_same_structure_streams_share_one_session(self, rng):
        pair = _pair(rng, n=40)
        serial = _direct(*pair)
        with Runtime(RuntimeConfig()) as rt:
            outputs: list = []
            errors: list[BaseException] = []
            barrier = threading.Barrier(4)

            def stream() -> None:
                try:
                    barrier.wait()
                    for _ in range(3):
                        outputs.append(rt.multiply("row-product", *pair).result)
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=stream) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            stats = rt.stats()
        assert len(outputs) == 12
        for result in outputs:
            assert result.data.tobytes() == serial.data.tobytes()
        assert stats.recipes == 1
        assert stats.plan_cache.lowers == 1  # 11 of 12 replayed

    def test_tenants_do_not_cross_contaminate(self, rng):
        pair = _pair(rng, n=30)
        with Runtime(RuntimeConfig()) as rt:
            errors: list[BaseException] = []
            barrier = threading.Barrier(2)

            def stream(tenant: str) -> None:
                try:
                    barrier.wait()
                    for _ in range(4):
                        rt.multiply("row-product", *pair, tenant=tenant)
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=stream, args=(t,)) for t in ("alice", "bob")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            stats = rt.stats()
        # Same structure, different tenants: separate caches — each tenant
        # pays its own lowering (quota isolation).
        assert stats.tenants == {"alice": 1, "bob": 1}
        assert stats.plan_cache.lowers == 2


_SHUTDOWN_SCRIPT = """
import numpy as np
from repro.runtime import Runtime, RuntimeConfig, lifecycle
from repro.sparse.csr import CSRMatrix

class ReportingRuntime(Runtime):
    def close(self):
        if not self.closed:
            print("closed", flush=True)
        super().close()

rng = np.random.default_rng(0)
dense = (rng.random((200, 200)) < 0.1) * rng.random((200, 200))
a = CSRMatrix.from_dense(dense)
rt = ReportingRuntime(RuntimeConfig())
lifecycle.install(rt)
rt.multiply("row-product", a, a)   # a warm plan cache
print("ready", flush=True)
import time
time.sleep(60)
"""


class TestLifecycle:
    def test_install_uninstall_tracking(self):
        rt = Runtime(RuntimeConfig())
        try:
            before = lifecycle.installed_count()
            lifecycle.install(rt)
            lifecycle.install(rt)  # idempotent
            assert lifecycle.installed_count() == before + 1
        finally:
            lifecycle.uninstall(rt)
        assert rt.closed
        assert lifecycle.installed_count() == before

    def test_close_all_swallows_and_closes(self):
        rt = Runtime(RuntimeConfig())
        lifecycle.install(rt)
        try:
            lifecycle.close_all()
            assert rt.closed
        finally:
            lifecycle.uninstall(rt)

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
    )
    def test_sigterm_does_not_leak_shared_memory(self):
        """SIGTERM with a warm runtime: the sweep closes it, then the
        process dies by the signal, leaving no shared-memory segments."""
        before = set(os.listdir("/dev/shm"))
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-c", _SHUTDOWN_SCRIPT],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready", proc.stderr.read()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == -signal.SIGTERM  # conventional death, post-sweep
        assert out.split() == ["closed"]
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked, f"leaked segments: {sorted(leaked)}"

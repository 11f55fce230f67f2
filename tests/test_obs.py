"""Observability plane (repro.obs): recorder semantics, deterministic
serial/parallel aggregation, disabled-path overhead, Chrome export, the
bench's hang-timeout fallback, and the multiply-boundary validation."""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.bench import parallel, runner
from repro.bench.runner import paper_algorithms, run_matrix
from repro.datasets import loader
from repro.errors import SparseFormatError
from repro.gpusim.config import TITAN_XP
from repro.gpusim.simulator import GPUSimulator
from repro.obs import recorder as recorder_mod
from repro.plan.cache import PlanCache
from repro.sparse.csr import CSRMatrix

SMALL = ["poisson3da", "as_caida"]
SCHEMES = [a.name for a in paper_algorithms()]


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    """Tracing must never leak across tests (it is process-global state)."""
    obs.uninstall()
    yield
    obs.uninstall()


class TestRecorder:
    def test_nesting_builds_tree(self):
        rec = obs.install()
        with obs.span("outer", "bench"):
            with obs.span("inner", "plan") as sp:
                sp.add(ops=3)
            with obs.span("inner", "plan") as sp:
                sp.add(ops=4)
        assert [s.name for s in rec.roots] == ["outer"]
        inner = rec.roots[0].children
        assert [s.name for s in inner] == ["inner", "inner"]
        assert inner[0].counters == {"ops": 3}
        assert inner[1].dur >= 0.0

    def test_counters_accumulate(self):
        obs.install()
        with obs.span("s") as sp:
            sp.add(ops=2, hits=1)
            sp.add(ops=5)
        assert sp.counters == {"ops": 7, "hits": 1}

    def test_dict_round_trip_tags_pid(self):
        rec = obs.install()
        with obs.span("a", "data") as sp:
            sp.add(nnz=9)
            with obs.span("b", "plan"):
                pass
        payloads = rec.to_dicts()
        rebuilt = recorder_mod.Span.from_dict(payloads[0], pid=3)
        assert rebuilt.name == "a"
        assert rebuilt.counters == {"nnz": 9}
        assert rebuilt.children[0].name == "b"
        assert rebuilt.pid == 3 and rebuilt.children[0].pid == 3

    def test_adopt_splices_under_open_span(self):
        worker = obs.TraceRecorder()
        child = worker.span("worker-work", "simulate")
        with child:
            pass
        rec = obs.install()
        with obs.span("parent", "bench"):
            obs.adopt(worker.to_dicts(), pid=2)
        assert rec.roots[0].children[0].name == "worker-work"
        assert rec.roots[0].children[0].pid == 2

    def test_adopt_is_noop_when_disabled(self):
        obs.adopt([{"name": "x", "category": "y"}], pid=1)  # must not raise
        assert not obs.is_enabled()


class TestDisabledPath:
    def test_null_span_identity(self):
        assert not obs.is_enabled()
        sp = obs.span("anything", "plan", ops=1)
        assert sp is obs.NULL_SPAN
        with sp as entered:
            entered.add(ops=10)
        assert sp is obs.NULL_SPAN

    def test_no_span_objects_allocated(self, monkeypatch):
        created = []
        orig = recorder_mod.Span.__init__

        def counting(self, *args, **kwargs):
            created.append(1)
            orig(self, *args, **kwargs)

        monkeypatch.setattr(recorder_mod.Span, "__init__", counting)
        assert not obs.is_enabled()
        for _ in range(100):
            with obs.span("hot", "plan") as sp:
                sp.add(ops=1)
        assert created == []

    def test_pipeline_output_unchanged_by_tracing(self):
        loader.clear_cache()
        runner.clear_context_cache()
        ctx = runner.get_context("poisson3da")
        algo = paper_algorithms()[-1]
        sim_off = algo.simulate(ctx, GPUSimulator(TITAN_XP))
        obs.install()
        try:
            sim_on = algo.simulate(ctx, GPUSimulator(TITAN_XP))
        finally:
            obs.uninstall()
        assert sim_on.total_seconds == sim_off.total_seconds
        assert sim_on.gflops == sim_off.gflops


class TestAggregation:
    def test_siblings_merge_and_sort(self):
        rec = obs.install()
        with obs.span("z", "plan") as sp:
            sp.add(ops=1)
        with obs.span("a", "plan") as sp:
            sp.add(ops=2)
        with obs.span("z", "plan") as sp:
            sp.add(ops=10)
        tree = obs.aggregate_spans(rec.roots)
        assert [n["name"] for n in tree] == ["a", "z"]
        z = tree[1]
        assert z["count"] == 2
        assert z["counters"] == {"ops": 11}

    def test_aggregate_excludes_wallclock(self):
        rec = obs.install()
        with obs.span("timed", "plan"):
            time.sleep(0.002)
        node = obs.aggregate_spans(rec.roots)[0]
        assert set(node) == {"name", "category", "count", "counters", "children"}

    def test_category_rollup_counts_self_time(self):
        root, child, leaf = obs.Span("run", "bench"), obs.Span("p", "plan"), obs.Span("m", "merge")
        root.dur, child.dur, leaf.dur = 1.0, 0.75, 0.25
        root.children.append(child)
        child.children.append(leaf)
        other = obs.Span("p2", "plan")
        other.dur = 0.5
        assert obs.category_rollup([root, other]) == [
            ("plan", 2, 1.0),
            ("bench", 1, 0.25),
            ("merge", 1, 0.25),
        ]


def _traced_grid_aggregate(workers: int) -> str:
    """Run the small grid traced and return the aggregate tree as JSON."""
    loader.clear_cache()
    runner.clear_context_cache()
    rec = obs.install()
    try:
        run_matrix(SMALL, paper_algorithms(), workers=workers, cache=None)
    finally:
        obs.uninstall()
    return json.dumps(obs.aggregate_spans(rec.roots), sort_keys=True)


class TestSerialParallelEquivalence:
    def test_aggregate_trees_byte_identical(self):
        serial = _traced_grid_aggregate(1)
        par = _traced_grid_aggregate(2)
        assert serial == par

    def test_all_seven_schemes_covered(self):
        tree = json.loads(_traced_grid_aggregate(2))

        def names(nodes):
            for n in nodes:
                yield n["name"]
                yield from names(n["children"])

        seen = set(names(tree))
        for scheme in SCHEMES:
            assert any(f"[{scheme}]" in name for name in seen), scheme


class TestChromeExport:
    def test_payload_is_valid_trace_event_json(self, tmp_path):
        loader.clear_cache()
        runner.clear_context_cache()
        rec = obs.install()
        try:
            run_matrix(SMALL[:1], paper_algorithms()[:2], workers=1, cache=None)
        finally:
            obs.uninstall()
        out = tmp_path / "trace.json"
        obs.write_trace(str(out), rec, meta={"cmd": "test"})
        payload = json.loads(out.read_text())
        assert isinstance(payload["traceEvents"], list) and payload["traceEvents"]
        for event in payload["traceEvents"]:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["pid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0
                assert isinstance(event["name"], str)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"] == {"cmd": "test"}
        assert payload["aggregate"]  # deterministic tree rides along


def _hang(name, cells, gpu, costs, trace=False):
    # Module-level so the process pool can pickle it by reference; sleeps
    # long enough that only the timeout path can finish the test quickly.
    time.sleep(8)
    return [], None


class TestShardTimeout:
    def test_hung_pool_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(parallel, "_simulate_shard", _hang)
        summary = runner.RunSummary()
        pending = {
            name: [("row-product", paper_algorithms()[0])] for name in SMALL
        }
        with pytest.warns(RuntimeWarning, match="shard timeout"):
            results = parallel.run_sharded(
                pending, TITAN_XP, None, 2, timeout=0.5, summary=summary
            )
        assert summary.shard_timeouts == len(SMALL)
        assert set(results) == {(name, "row-product") for name in SMALL}

    def test_timeouts_counted_in_run_summary(self, monkeypatch):
        monkeypatch.setattr(parallel, "_simulate_shard", _hang)
        with pytest.warns(RuntimeWarning, match="shard timeout"):
            run_matrix(
                SMALL, paper_algorithms()[:1], workers=2, cache=None,
                shard_timeout=0.5,
            )
        assert runner.last_run_summary().shard_timeouts == len(SMALL)

    def test_no_timeout_when_pool_progresses(self):
        results = run_matrix(
            SMALL, paper_algorithms()[:2], workers=2, cache=None,
            shard_timeout=120.0,
        )
        assert runner.last_run_summary().shard_timeouts == 0
        assert len(results) == len(SMALL) * 2


class TestBoundaryValidation:
    def _bad_b(self, n: int = 8) -> CSRMatrix:
        # Column index out of range: previously an IndexError deep inside
        # the expansion kernels.
        return CSRMatrix(
            (n, n),
            np.array([0, 1] + [1] * (n - 1), dtype=np.int64),
            np.array([n + 3], dtype=np.int64),
            np.array([1.0]),
        )

    def test_session_names_offending_operand(self):
        a = CSRMatrix.identity(8)
        cache = PlanCache(paper_algorithms()[0])
        with pytest.raises(SparseFormatError, match=r"operand B \(CSRMatrix\)"):
            cache.multiply(a, self._bad_b())

    def test_duplicates_caught_at_boundary(self):
        a = CSRMatrix.identity(3)
        dup = CSRMatrix(
            (3, 3), np.array([0, 2, 2, 2]), np.array([1, 1]), np.array([1.0, 2.0])
        )
        cache = PlanCache(paper_algorithms()[0])
        with pytest.raises(SparseFormatError, match="operand A.*duplicate"):
            cache.multiply(dup, a)

    def test_replay_fast_path_skips_validation(self, monkeypatch):
        cache = PlanCache(paper_algorithms()[0])
        a = CSRMatrix.from_dense(np.eye(6) + np.diag(np.ones(5), 1))
        cache.multiply(a, a)  # cold: validates and captures the structure

        calls = []
        orig = CSRMatrix.validate

        def counting(self):
            calls.append(1)
            return orig(self)

        monkeypatch.setattr(CSRMatrix, "validate", counting)
        cache.multiply(a, a)  # structure hit: replay, no validation
        assert calls == []

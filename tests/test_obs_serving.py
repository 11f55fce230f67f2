"""Unit tests for serving-plane observability primitives.

Covers the pieces under the server: streaming latency histograms
(:mod:`repro.obs.serving`), per-request span trees, the Prometheus text
rendered from the counter declarations (:mod:`repro.obs.counters`) and its
validator (:mod:`repro.metrics.promtext`), and the admission-side flop
estimator (:func:`repro.plan.estimate.multiply_flops`).
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.metrics.promtext import parse_exposition, validate_exposition
from repro.obs.counters import exposition, snapshot
from repro.obs.serving import (
    BUCKET_BOUNDS,
    NULL_REQUEST_TRACE,
    RequestTrace,
    ServingMetrics,
    StreamingHistogram,
)
from repro.plan.cache import PlanCacheStats
from repro.plan.estimate import multiply_flops
from repro.runtime import RuntimeStats
from repro.serve.batching import BatchStats
from repro.serve.server import ServerStats
from repro.spgemm.base import MultiplyContext

from .conftest import random_csr


class TestStreamingHistogram:
    def test_empty_histogram_reports_none(self):
        h = StreamingHistogram()
        assert h.quantile(0.5) is None
        latency = h.latency_ms()
        assert latency["count"] == 0
        assert latency["p50"] is None and latency["max"] is None

    def test_quantiles_are_bucket_bounds(self):
        h = StreamingHistogram()
        for _ in range(99):
            h.observe(1e-4)
        h.observe(1.0)
        # p50 falls in the bucket containing 1e-4; the reported value is
        # that bucket's upper bound, within one sqrt(2) step of the sample.
        p50 = h.quantile(0.50)
        assert 1e-4 <= p50 <= 1e-4 * math.sqrt(2)
        assert h.quantile(1.0) == 1.0  # exact max
        assert h.count == 100

    def test_observation_order_does_not_matter(self):
        samples = [1e-5, 3e-4, 0.002, 0.002, 0.5, 1e-4, 0.03] * 13
        a, b = StreamingHistogram(), StreamingHistogram()
        for s in samples:
            a.observe(s)
        for s in reversed(samples):
            b.observe(s)
        assert a.counts == b.counts
        assert a.latency_ms() == b.latency_ms()
        assert a.buckets() == b.buckets()

    def test_overflow_bucket_reports_exact_max(self):
        h = StreamingHistogram()
        huge = BUCKET_BOUNDS[-1] * 10
        h.observe(huge)
        assert h.quantile(0.5) == huge
        assert h.buckets()[-1] == (float("inf"), 1)

    def test_buckets_are_cumulative(self):
        h = StreamingHistogram()
        for s in (1e-5, 1e-3, 1e-1, 10.0, 1e9):
            h.observe(s)
        buckets = h.buckets()
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        assert buckets[-1] == (float("inf"), 5)

    def test_negative_and_zero_clamp_to_first_bucket(self):
        h = StreamingHistogram()
        h.observe(0.0)
        h.observe(-1.0)
        assert h.count == 2
        assert h.counts[0] == 2
        assert h.max_seconds == 0.0


class TestServingMetrics:
    def test_observe_aggregates_routes_and_tenants(self):
        m = ServingMetrics()
        m.observe("multiply", "alice", 0.01, 200)
        m.observe("multiply", "alice", 0.02, 400)
        m.observe("pagerank", "bob", 0.03, 200)
        snap = snapshot(m)
        assert snap["routes"]["multiply"]["requests"] == 2
        assert snap["routes"]["multiply"]["errors"] == 1
        assert snap["routes"]["pagerank"]["requests"] == 1
        assert snap["tenants"]["alice"]["requests"] == 2
        assert snap["tenants"]["bob"]["requests"] == 1
        assert snap["routes"]["multiply"]["latency_ms"]["count"] == 2

    def test_sheds_tracked_separately_from_requests(self):
        m = ServingMetrics()
        m.shed("multiply", "alice")
        snap = snapshot(m)
        assert snap["routes"]["multiply"]["sheds"] == 1
        assert snap["routes"]["multiply"]["requests"] == 0

    def test_buckets_render_only_in_exposition(self):
        m = ServingMetrics()
        m.observe("multiply", "default", 0.001, 200)
        assert "buckets" not in snapshot(m)["routes"]["multiply"]
        buckets = parse_exposition(exposition(m))["repro_routes_latency_seconds_bucket"]
        assert buckets[-1] == ({"route": "multiply", "le": "+Inf"}, 1)


class TestRequestTrace:
    def test_stage_tree_roundtrip(self):
        trace = RequestTrace("multiply", "alice")
        with trace.stage("parse", body_bytes=10):
            pass
        with trace.stage("numeric"):
            pass
        trace.add(status=200)
        (root,) = trace.to_spans()
        assert root.name == "request[multiply]"
        assert [c.name for c in root.children] == [
            "request.parse",
            "request.numeric",
        ]
        assert root.counters["status"] == 200
        assert root.children[0].counters["body_bytes"] == 10

    def test_record_with_explicit_timestamps(self):
        trace = RequestTrace("multiply")
        trace.record("batch_wait", 0.5, 0.25)
        trace.record("parse", 0.0, 0.1)
        (root,) = trace.to_spans()
        # Children sorted by start time regardless of recording order.
        assert [c.name for c in root.children] == [
            "request.parse",
            "request.batch_wait",
        ]
        assert root.children[1].t0 == 0.5
        assert root.children[1].dur == 0.25

    def test_write_produces_chrome_trace(self, tmp_path):
        trace = RequestTrace("multiply", "alice")
        with trace.stage("numeric"):
            pass
        out = tmp_path / "req.trace.json"
        trace.write(str(out), meta={"status": 200})
        payload = json.loads(out.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert "request[multiply]" in names
        assert "request.numeric" in names
        assert payload["otherData"]["route"] == "multiply"
        assert payload["otherData"]["status"] == 200

    def test_null_trace_is_inert(self):
        with NULL_REQUEST_TRACE.stage("anything", x=1):
            NULL_REQUEST_TRACE.record("x", 0, 1)
            NULL_REQUEST_TRACE.add(status=500)
        assert NULL_REQUEST_TRACE.elapsed() == 0.0


def _sample_stats() -> ServerStats:
    metrics = ServingMetrics(queue_depth=1, inflight_flops=12345)
    metrics.observe("multiply", "alice", 0.004, 200)
    metrics.observe("multiply", "alice", 0.3, 200)
    metrics.observe("pagerank", "bob", 0.02, 400)
    metrics.shed("multiply", "alice")
    return ServerStats(
        runtime=RuntimeStats(
            recipes=2,
            tenants={"alice": 1, "bob": 1},
            plan_cache=PlanCacheStats(lookups=3, hits=1, misses=2, lowers=2),
            requests=3,
        ),
        batching=BatchStats(
            admitted=3, rejected=1, shed_cost=1, completed=3, drained_flops=999,
            retry_after_last=7,
        ),
        serving=metrics,
    )


class TestPromText:
    def test_render_and_validate_roundtrip(self):
        text = exposition(_sample_stats())
        samples = validate_exposition(text)
        requests = dict(
            (labels["route"], value)
            for labels, value in samples["repro_serving_routes_requests_total"]
        )
        assert requests == {"multiply": 2, "pagerank": 1}
        sheds = dict(
            (labels["route"], value)
            for labels, value in samples["repro_serving_routes_sheds_total"]
        )
        assert sheds["multiply"] == 1
        (gauge,) = samples["repro_serving_inflight_flops"]
        assert gauge[1] == 12345

    def test_histogram_bucket_invariants_hold(self):
        samples = validate_exposition(exposition(_sample_stats()))
        for family, label, key, count in (
            ("repro_serving_routes_latency_seconds", "route", "multiply", 2),
            ("repro_serving_tenants_latency_seconds", "tenant", "alice", 2),
        ):
            buckets = [
                (labels, value)
                for labels, value in samples[f"{family}_bucket"]
                if labels[label] == key
            ]
            assert buckets[-1][0]["le"] == "+Inf"
            assert buckets[-1][1] == count

    def test_sum_is_exact_total_and_null_gauge_is_nan(self):
        stats = _sample_stats()
        samples = parse_exposition(exposition(stats))
        sums = {
            labels["tenant"]: value
            for labels, value in samples["repro_serving_tenants_latency_seconds_sum"]
        }
        assert sums["alice"] == stats.serving.tenants["alice"].latency.total_seconds
        stats.runtime.plan_cache.lowers = 0
        ((_, value),) = parse_exposition(exposition(stats))["repro_requests_per_lowering"]
        assert math.isnan(value)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="not a valid sample"):
            parse_exposition("# TYPE x counter\nx{oops 3\n")

    def test_untyped_sample_rejected(self):
        with pytest.raises(ValueError, match="no TYPE declaration"):
            parse_exposition("mystery_metric 1\n")

    def test_missing_required_metric_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            validate_exposition("# TYPE repro_serving_routes_requests_total counter\n"
                                'repro_serving_routes_requests_total{route="x"} 1\n')

    def test_non_cumulative_histogram_rejected(self):
        text = exposition(_sample_stats())
        for family, series in (("routes", 'route="multiply"'), ("tenants", 'tenant="alice"')):
            bucket = f'repro_serving_{family}_latency_seconds_bucket{{{series},le="+Inf"}}'
            assert f"{bucket} 2" in text
            with pytest.raises(ValueError):
                validate_exposition(text.replace(f"{bucket} 2", f"{bucket} 0"))


class TestMultiplyFlops:
    def test_matches_product_count(self, rng):
        a = random_csr(rng, 30, 25, 0.2)
        b = random_csr(rng, 25, 20, 0.2)
        # Reference: the paper's workload sum via the multiply context.
        ctx = MultiplyContext.build(a, b)
        assert multiply_flops(a, b) == int(ctx.row_work.sum())

    def test_zero_for_empty_operand(self, rng):
        a = random_csr(rng, 10, 10, 0.0)
        b = random_csr(rng, 10, 10, 0.3)
        assert multiply_flops(a, b) == 0

    def test_zero_for_shape_mismatch(self, rng):
        a = random_csr(rng, 10, 7, 0.3)
        b = random_csr(rng, 9, 5, 0.3)
        assert multiply_flops(a, b) == 0

    def test_overflow_raises(self):
        # Synthetic CSR-shaped stand-ins: one stored entry in A pointing at
        # a B "row" whose indptr step is astronomically large.
        a = SimpleNamespace(
            shape=(1, 1),
            indptr=np.array([0, 1], dtype=np.int64),
            indices=np.array([0], dtype=np.int64),
        )
        b = SimpleNamespace(
            shape=(1, 1),
            indptr=np.array([0, 1 << 62], dtype=np.int64),
            indices=np.array([0], dtype=np.int64),
        )
        with pytest.raises(OverflowError):
            multiply_flops(a, b)

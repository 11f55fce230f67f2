"""Serving-plane observability: request spans, latency histograms, counters.

The batch pipeline records its story through :mod:`repro.obs` spans, but a
long-lived server cannot install one process-global recorder per request —
requests overlap on the event loop and the batcher's worker threads.  This
module provides the per-request equivalents:

* :class:`RequestTrace` — a lightweight span tree scoped to **one** request
  (parse → validate → admission → batch_wait → session → numeric →
  serialize).  Stages may be recorded from different threads (the loop
  thread and the batcher thread that executes the work); the trace converts
  to ordinary :class:`~repro.obs.recorder.Span` objects, so slow requests
  export through the standard Chrome-trace writer and open in Perfetto next
  to batch traces.
* :class:`StreamingHistogram` — fixed-bucket log-scale latency histogram.
  Quantiles are read from bucket counts, so two runs observing the same
  *set* of requests report through the same deterministic machinery
  regardless of dispatch order or pool width, and the bucket layout maps
  1:1 onto Prometheus histogram exposition.
* :class:`ServingMetrics` — per-route and per-tenant aggregation (requests,
  errors, sheds, latency histograms) plus the admission-side counters the
  server owns (estimate fallbacks, exported traces) and the batcher's live
  gauges; its fields are declared once (:mod:`repro.obs.counters`).

Nothing here touches the network; :mod:`repro.serve.server` renders these
into ``GET /stats`` and ``GET /metrics`` payloads.
"""

from __future__ import annotations

import bisect
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.counters import counter, gauge, histogram, section
from repro.obs.recorder import Span, TraceRecorder

__all__ = [
    "BUCKET_BOUNDS",
    "NULL_REQUEST_TRACE",
    "RequestTrace",
    "RouteStats",
    "ServingMetrics",
    "StreamingHistogram",
]

#: Histogram bucket upper bounds in seconds: 10 µs doubling every second
#: bucket (factor √2) up to ~80 s, plus an implicit +Inf overflow bucket.
#: √2 spacing bounds the quantile up-rounding error at ~41 % — tight enough
#: that server-side p50/p99 can be cross-checked against client wall clocks
#: (``tools/bench_serve.py`` asserts the agreement).
BUCKET_BOUNDS: tuple[float, ...] = tuple(1e-5 * (2 ** (i / 2)) for i in range(46))


class StreamingHistogram:
    """Latency histogram over :data:`BUCKET_BOUNDS` with O(1) observe.

    Quantiles return the *upper bound* of the bucket containing the target
    rank — a deterministic function of the bucket counts alone, so serial
    and pooled dispatch of the same request set agree exactly on counts and
    agree on quantiles up to bucket resolution.  The maximum is tracked
    exactly (it doubles as the overflow bucket's quantile value).
    """

    __slots__ = ("counts", "count", "total_seconds", "max_seconds")

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency sample."""
        seconds = max(0.0, float(seconds))
        self.counts[bisect.bisect_left(BUCKET_BOUNDS, seconds)] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def quantile(self, q: float) -> float | None:
        """The ``q``-quantile in seconds (bucket upper bound), or ``None``.

        ``q`` is in ``[0, 1]``; the nearest-rank convention is used
        (``ceil(q * count)``), so ``quantile(1.0)`` is the exact maximum.
        """
        if self.count == 0:
            return None
        target = max(1, -(-int(q * self.count * 1_000_000) // 1_000_000))
        seen = 0
        for idx, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                if idx >= len(BUCKET_BOUNDS):
                    return self.max_seconds
                return min(BUCKET_BOUNDS[idx], self.max_seconds)
        return self.max_seconds  # pragma: no cover - unreachable

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def latency_ms(self) -> dict:
        """The ``/stats`` latency block: count, mean and p50/p90/p99/max."""

        def ms(value: float | None) -> float | None:
            return None if value is None else value * 1e3

        return {
            "count": self.count,
            "mean": ms(self.mean_seconds) if self.count else None,
            "p50": ms(self.quantile(0.50)),
            "p90": ms(self.quantile(0.90)),
            "p99": ms(self.quantile(0.99)),
            "max": ms(self.max_seconds) if self.count else None,
        }

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound_seconds, count)`` pairs, Prometheus style.

        The final pair's bound is ``inf`` and its count equals
        :attr:`count`, exactly the ``le="+Inf"`` exposition invariant.
        """
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(BUCKET_BOUNDS, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


@dataclass(slots=True)
class RouteStats:
    """Aggregated serving counters for one route (or one tenant)."""

    requests: int = counter("Requests that reached a handler (any status but a shed).")
    errors: int = counter("Requests answered with a status of 400 or above.")
    sheds: int = counter("Requests shed by admission control (503).")
    latency: StreamingHistogram = histogram(
        StreamingHistogram, "Server-side request latency, arrival to response."
    )


@dataclass
class ServingMetrics:
    """The ``serving`` section of ``/stats``: per-route and per-tenant
    aggregation (requests, errors, sheds, latency histograms), the
    admission-side counters the server owns, and the batcher's live gauges,
    which the server sets each time it reads its stats.

    All mutation happens on the server's event-loop thread (observations are
    recorded after the awaited handler returns), so no lock is needed; the
    batcher thread never touches this object.  The server caps the tenant
    names it passes in (``MAX_TRACKED_TENANTS``, then ``_other``), so
    ``tenants`` stays bounded.
    """

    routes: dict[str, RouteStats] = section(RouteStats, label="route")
    tenants: dict[str, RouteStats] = section(RouteStats, label="tenant")
    estimate_fallbacks: int = counter(
        "Requests admitted at the full flop budget because their estimate overflowed."
    )
    traces_written: int = counter("Request traces exported to --trace-dir.")
    queue_depth: int = gauge("Admitted requests waiting behind the executors.")
    inflight_flops: int = gauge(
        "Estimated flops of admitted, unfinished work (the admission ledger).", unit="flops"
    )

    def observe(self, route: str, tenant: str, seconds: float, status: int) -> None:
        """Record one completed (or failed) request."""
        for stats in (
            self.routes.setdefault(route, RouteStats()),
            self.tenants.setdefault(tenant, RouteStats()),
        ):
            stats.requests += 1
            if status >= 400:
                stats.errors += 1
            stats.latency.observe(seconds)

    def shed(self, route: str, tenant: str) -> None:
        """Record an admission rejection (503) against route and tenant."""
        self.routes.setdefault(route, RouteStats()).sheds += 1
        self.tenants.setdefault(tenant, RouteStats()).sheds += 1


class RequestTrace:
    """The span tree of one served request, safe across a thread handoff.

    Stages are appended as ``(name, t0, dur, counters)`` tuples relative to
    the request's arrival; list appends are atomic under the GIL and each
    stage is recorded by exactly one thread at a time (loop thread for
    parse/validate/admission/serialize, batcher thread for
    batch_wait/session/numeric), so no lock is required.
    """

    __slots__ = ("route", "tenant", "origin", "stages", "counters")

    def __init__(self, route: str, tenant: str = "default") -> None:
        self.route = route
        self.tenant = tenant
        self.origin = time.perf_counter()
        self.stages: list[tuple[str, float, float, dict]] = []
        self.counters: dict[str, int] = {}

    def elapsed(self) -> float:
        """Seconds since the request arrived."""
        return time.perf_counter() - self.origin

    @contextmanager
    def stage(self, name: str, **counters: int):
        """Record the block as one stage span."""
        t0 = self.elapsed()
        try:
            yield self
        finally:
            self.record(name, t0, self.elapsed() - t0, **counters)

    def record(self, name: str, t0: float, dur: float, **counters: int) -> None:
        """Record a stage from explicit timestamps (for cross-thread waits)."""
        self.stages.append((name, t0, max(0.0, dur), dict(counters)))

    def add(self, **counters: int) -> None:
        """Attach integer counters (flops estimate, status, ...) to the root."""
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + int(value)

    def to_spans(self) -> list[Span]:
        """The trace as a standard obs span tree: one root, one child per stage."""
        root = Span(f"request[{self.route}]", "serve", self.counters)
        end = 0.0
        for name, t0, dur, counters in sorted(self.stages, key=lambda s: s[1]):
            child = Span(f"request.{name}", "serve", counters)
            child.t0, child.dur = t0, dur
            root.children.append(child)
            end = max(end, t0 + dur)
        root.dur = max(end, self.elapsed() if not self.stages else end)
        return [root]

    def write(self, path: str, meta: dict | None = None) -> dict:
        """Export as a Chrome trace file (Perfetto-loadable), return payload."""
        from repro.obs.export import write_trace

        recorder = TraceRecorder()
        recorder.roots = self.to_spans()
        merged = {"route": self.route, "tenant": self.tenant, **(meta or {})}
        return write_trace(path, recorder, meta=merged)


class _NullRequestTrace:
    """No-op trace: lets instrumented code skip ``if trace`` conditionals."""

    __slots__ = ()

    @contextmanager
    def stage(self, name: str, **counters: int):
        yield self

    def record(self, name: str, t0: float, dur: float, **counters: int) -> None:
        return None

    def add(self, **counters: int) -> None:
        return None

    def elapsed(self) -> float:
        return 0.0


#: Singleton passed through the runtime when no per-request tracing is on.
NULL_REQUEST_TRACE = _NullRequestTrace()

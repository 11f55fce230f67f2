"""repro.obs — the observability plane: structured tracing for the pipeline.

Every stage of a reproduction run — dataset load, :class:`MultiplyContext`
build, plan lowering, the four reorganizer passes, numeric expansion and
merge, and the simulator itself — records a hierarchical span with wall-clock
and deterministic integer counters (op counts, block counts, plan/bench cache
hits).  The paper's whole methodology is profiler-driven; this package is the
equivalent loop for the simulator and numeric planes.

Usage (instrumented code)::

    from repro import obs

    with obs.span("plan.lower[row-product]", "plan") as sp:
        plan = self.lower(ctx, config)
        sp.add(phases=len(plan.phases))

When no recorder is installed, :func:`span` returns an allocation-free no-op
singleton, so instrumentation costs effectively nothing in production paths.

Usage (drivers)::

    recorder = obs.install()
    try:
        ...            # run the pipeline
    finally:
        obs.uninstall()
    export.write_trace("out.json", recorder)   # Perfetto-loadable

The bench's worker processes each install their own recorder and ship span
trees back with their results; :func:`adopt` splices them into the parent
trace so the aggregated tree (:func:`~repro.obs.aggregate.aggregate_spans`)
is byte-identical between serial and parallel runs of the same work.
"""

from repro.obs.aggregate import (
    aggregate_digest,
    aggregate_spans,
    category_rollup,
    walk_aggregate,
)
from repro.obs.export import chrome_payload, format_span_tree, trace_events, write_trace
from repro.obs.recorder import (
    NULL_SPAN,
    Span,
    TraceRecorder,
    active,
    adopt,
    install,
    is_enabled,
    span,
    uninstall,
)
from repro.obs.serving import (
    NULL_REQUEST_TRACE,
    RequestTrace,
    ServingMetrics,
    StreamingHistogram,
)

__all__ = [
    "NULL_REQUEST_TRACE",
    "NULL_SPAN",
    "RequestTrace",
    "ServingMetrics",
    "Span",
    "StreamingHistogram",
    "TraceRecorder",
    "active",
    "adopt",
    "aggregate_digest",
    "aggregate_spans",
    "category_rollup",
    "chrome_payload",
    "format_span_tree",
    "install",
    "is_enabled",
    "span",
    "trace_events",
    "uninstall",
    "walk_aggregate",
    "write_trace",
]

"""Trace export: Chrome trace-event JSON (Perfetto-loadable) + human tree.

The on-disk format is the Chrome trace-event *JSON object format*: a dict
whose ``traceEvents`` list holds one complete (``"ph": "X"``) event per span
plus process-name metadata events, and whose other top-level keys are, per
the format spec, trace metadata.  We use that latitude to embed:

* ``aggregate`` — the deterministic span tree from
  :func:`repro.obs.aggregate.aggregate_spans` (byte-identical for serial and
  parallel runs of the same work), and
* ``otherData`` — free-form run context (command line, GPU, worker count).

Perfetto and ``chrome://tracing`` both open the file directly; the embedded
sections ride along as ignored metadata.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.obs.aggregate import aggregate_spans
from repro.obs.recorder import Span, TraceRecorder

__all__ = ["trace_events", "chrome_payload", "write_trace", "format_span_tree"]


def trace_events(spans: Sequence[Span]) -> list[dict]:
    """Flatten a span tree into Chrome complete events (ts/dur in us)."""
    events: list[dict] = []
    lanes: set[int] = set()

    def emit(span: Span) -> None:
        lanes.add(span.pid)
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round(span.t0 * 1e6, 3),
                "dur": round(span.dur * 1e6, 3),
                "pid": span.pid,
                "tid": 0,
                "args": dict(span.counters),
            }
        )
        for child in span.children:
            emit(child)

    for span in spans:
        emit(span)
    for pid in sorted(lanes):
        # Lane naming: 0 is this process, other lanes are bench shard workers.
        lane_name = "repro" if pid == 0 else f"repro worker {pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": lane_name},
            }
        )
    return events


def chrome_payload(recorder: TraceRecorder, meta: dict | None = None) -> dict:
    """The full Chrome trace-event JSON object for one recorded run."""
    return {
        "traceEvents": trace_events(recorder.roots),
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
        "aggregate": aggregate_spans(recorder.roots),
    }


def write_trace(path: str, recorder: TraceRecorder, meta: dict | None = None) -> dict:
    """Write the recorded run to ``path`` and return the payload written."""
    payload = chrome_payload(recorder, meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def _format_counters(counters: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in sorted(counters.items()))


def format_span_tree(spans: Sequence[Span], indent: int = 0) -> str:
    """Human-readable span tree with wall times and counters."""
    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        pad = "  " * depth
        extra = f"  [{_format_counters(span.counters)}]" if span.counters else ""
        lines.append(f"{pad}{span.name:<40s} {span.dur * 1e3:9.3f} ms{extra}")
        for child in span.children:
            emit(child, depth + 1)

    for span in spans:
        emit(span, indent)
    return "\n".join(lines)

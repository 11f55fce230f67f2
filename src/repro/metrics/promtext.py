"""Prometheus text exposition for the serving plane (``GET /metrics``).

Renders the server's stats snapshot (the ``/stats`` payload with histogram
buckets included) into the Prometheus text format, version 0.0.4: ``# HELP``
/ ``# TYPE`` comments followed by ``name{labels} value`` samples, histograms
as cumulative ``_bucket`` series with the ``le`` label plus ``_sum`` and
``_count``.  No client library is used — the format is a line protocol and
the repo's no-new-dependencies rule applies.

The inverse direction lives here too: :func:`parse_exposition` is a small,
strict parser used by tests and ``tools/bench_serve.py`` to *validate* a
scrape — malformed lines, histogram buckets that are not cumulative, or a
``+Inf`` bucket disagreeing with ``_count`` all raise :class:`ValueError`.
"""

from __future__ import annotations

import math
import re

__all__ = [
    "parse_exposition",
    "render_metrics",
    "validate_exposition",
]

_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')

#: Metric names every healthy scrape must expose (bench/CI schema check).
REQUIRED_METRICS = (
    "repro_requests_total",
    "repro_request_latency_seconds",
    "repro_request_sheds_total",
    "repro_queue_depth",
    "repro_inflight_flops",
    "repro_batches_total",
    "repro_plan_cache_lowers_total",
)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def header(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, labels: dict | None, value) -> None:
        if labels:
            inner = ",".join(f'{k}="{_escape(str(v))}"' for k, v in labels.items())
            self.lines.append(f"{name}{{{inner}}} {_fmt(value)}")
        else:
            self.lines.append(f"{name} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _route_histograms(w: _Writer, routes: dict) -> None:
    w.header(
        "repro_request_latency_seconds",
        "histogram",
        "End-to-end request latency per route (server side).",
    )
    for route, stats in routes.items():
        for bound, count in stats.get("buckets", []):
            w.sample(
                "repro_request_latency_seconds_bucket",
                {"route": route, "le": _fmt(float(bound))},
                count,
            )
        latency = stats["latency_ms"]
        mean_ms = latency.get("mean") or 0.0
        w.sample(
            "repro_request_latency_seconds_sum",
            {"route": route},
            mean_ms / 1e3 * latency["count"],
        )
        w.sample(
            "repro_request_latency_seconds_count", {"route": route}, latency["count"]
        )


def render_metrics(stats: dict) -> str:
    """Render a ``/stats`` payload (with buckets) as Prometheus text."""
    serving = stats.get("serving", {})
    routes = serving.get("routes", {})
    tenants = serving.get("tenants", {})
    batching = stats.get("batching", {})
    runtime = stats.get("runtime", {})
    plan_cache = runtime.get("plan_cache", {})

    w = _Writer()
    w.header("repro_requests_total", "counter", "Requests handled, by route.")
    for route, s in routes.items():
        w.sample("repro_requests_total", {"route": route}, s["requests"])
    w.header("repro_request_errors_total", "counter", "Non-2xx responses, by route.")
    for route, s in routes.items():
        w.sample("repro_request_errors_total", {"route": route}, s["errors"])
    w.header(
        "repro_request_sheds_total", "counter", "Admission rejections (503), by route."
    )
    for route, s in routes.items():
        w.sample("repro_request_sheds_total", {"route": route}, s["sheds"])
    _route_histograms(w, routes)

    w.header("repro_tenant_requests_total", "counter", "Requests handled, by tenant.")
    for tenant, s in tenants.items():
        w.sample("repro_tenant_requests_total", {"tenant": tenant}, s["requests"])

    w.header(
        "repro_queue_depth", "gauge", "Admitted requests waiting behind max-inflight."
    )
    w.sample("repro_queue_depth", None, serving.get("queue_depth", 0))
    w.header(
        "repro_inflight_flops",
        "gauge",
        "Estimated flops of admitted, unfinished work (cost-aware admission).",
    )
    w.sample("repro_inflight_flops", None, serving.get("inflight_flops", 0))
    w.header(
        "repro_admission_shed_total",
        "counter",
        "Admission rejections by reason (queue depth vs flop budget).",
    )
    w.sample(
        "repro_admission_shed_total", {"reason": "queue"}, batching.get("shed_queue", 0)
    )
    w.sample(
        "repro_admission_shed_total", {"reason": "cost"}, batching.get("shed_cost", 0)
    )
    w.header(
        "repro_admission_estimate_fallbacks_total",
        "counter",
        "Requests admitted at full budget because the flop estimate failed.",
    )
    w.sample(
        "repro_admission_estimate_fallbacks_total",
        None,
        serving.get("estimate_fallbacks", 0),
    )
    w.header(
        "repro_admission_retry_after_seconds",
        "gauge",
        "Retry-After of the most recent shed response.",
    )
    w.sample(
        "repro_admission_retry_after_seconds", None, batching.get("retry_after_last", 0)
    )
    w.header(
        "repro_admission_drained_flops_total",
        "counter",
        "Estimated flops of completed work (drain rate numerator).",
    )
    w.sample(
        "repro_admission_drained_flops_total", None, batching.get("drained_flops", 0)
    )

    w.header("repro_batches_total", "counter", "Micro-batches dispatched.")
    w.sample("repro_batches_total", None, batching.get("batches", 0))
    w.header(
        "repro_batched_requests_total", "counter", "Requests carried by micro-batches."
    )
    w.sample("repro_batched_requests_total", None, batching.get("batched_requests", 0))
    w.header(
        "repro_batch_coalescence_factor",
        "gauge",
        "Mean requests per dispatched micro-batch.",
    )
    w.sample(
        "repro_batch_coalescence_factor",
        None,
        serving.get("coalescence_factor") or 0.0,
    )
    w.header("repro_request_timeouts_total", "counter", "Requests that hit 504.")
    w.sample("repro_request_timeouts_total", None, batching.get("timeouts", 0))
    w.header("repro_traces_written_total", "counter", "Sampled request traces exported.")
    w.sample("repro_traces_written_total", None, serving.get("traces_written", 0))

    w.header("repro_sessions", "gauge", "Warm sessions currently pooled.")
    w.sample("repro_sessions", None, runtime.get("sessions", 0))
    w.header("repro_sessions_evicted_total", "counter", "Warm sessions LRU-evicted.")
    w.sample("repro_sessions_evicted_total", None, runtime.get("sessions_evicted", 0))
    for key in ("lookups", "hits", "lowers", "symbolic_expansions", "numeric_replays"):
        name = f"repro_plan_cache_{key}_total"
        w.header(name, "counter", f"Plan cache {key.replace('_', ' ')}.")
        w.sample(name, None, plan_cache.get(key, 0))
    w.header(
        "repro_requests_per_lowering",
        "gauge",
        "Requests served per symbolic lowering paid (amortisation factor).",
    )
    w.sample(
        "repro_requests_per_lowering", None, stats.get("requests_per_lowering") or 0.0
    )

    return w.text()


def parse_exposition(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse Prometheus text into ``{name: [(labels, value), ...]}``.

    Strict about what the renderer emits (and what a scraper needs): every
    sample line must match the line protocol, every label pair must be
    quoted, and every sample's family (name stripped of ``_bucket`` /
    ``_sum`` / ``_count``) must have been declared by a ``# TYPE`` line.
    """
    samples: dict[str, list[tuple[dict, float]]] = {}
    typed: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or not _NAME.match(parts[2]):
                raise ValueError(f"line {lineno}: malformed TYPE comment: {line!r}")
            typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not a valid sample line: {line!r}")
        name = match.group("name")
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and family not in typed:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE declaration")
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            for pair in raw.split(","):
                label = _LABEL.match(pair.strip())
                if label is None:
                    raise ValueError(f"line {lineno}: malformed label {pair!r}")
                labels[label.group("key")] = label.group("value")
        raw_value = match.group("value")
        if raw_value == "+Inf":
            value = math.inf
        elif raw_value == "NaN":
            value = math.nan
        else:
            try:
                value = float(raw_value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric value {raw_value!r}"
                ) from None
        samples.setdefault(name, []).append((labels, value))
    return samples


def validate_exposition(
    text: str, required: tuple[str, ...] = REQUIRED_METRICS
) -> dict[str, list[tuple[dict, float]]]:
    """Parse + schema-check one scrape; returns the samples on success.

    Beyond :func:`parse_exposition`'s line-level checks, asserts that every
    ``required`` family is present and that each latency histogram series is
    cumulative with its ``+Inf`` bucket equal to ``_count``.
    """
    samples = parse_exposition(text)
    families = {re.sub(r"_(bucket|sum|count)$", "", name) for name in samples}
    missing = [name for name in required if name not in families]
    if missing:
        raise ValueError(f"scrape is missing required metrics: {missing}")

    buckets = samples.get("repro_request_latency_seconds_bucket", [])
    by_route: dict[str, list[tuple[float, float]]] = {}
    for labels, value in buckets:
        le = math.inf if labels["le"] == "+Inf" else float(labels["le"])
        by_route.setdefault(labels.get("route", ""), []).append((le, value))
    counts = {
        labels.get("route", ""): value
        for labels, value in samples.get("repro_request_latency_seconds_count", [])
    }
    for route, series in by_route.items():
        series.sort(key=lambda pair: pair[0])
        cumulative = [value for _, value in series]
        if cumulative != sorted(cumulative):
            raise ValueError(f"histogram for {route!r} is not cumulative")
        if not math.isinf(series[-1][0]):
            raise ValueError(f"histogram for {route!r} lacks a +Inf bucket")
        if route in counts and series[-1][1] != counts[route]:
            raise ValueError(
                f"histogram for {route!r}: +Inf bucket {series[-1][1]} != "
                f"count {counts[route]}"
            )
    return samples

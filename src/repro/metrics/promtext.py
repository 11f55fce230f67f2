"""Prometheus text exposition checks for the serving plane (``GET /metrics``).

:mod:`repro.obs.counters` renders ``/metrics`` in the Prometheus text format,
version 0.0.4, from the counter declarations; this module reads a scrape
back.  :func:`parse_exposition` is a small, strict parser used by tests, CI
and ``tools/bench_serve.py`` to *validate* a scrape — malformed lines,
histogram buckets that are not cumulative, or a ``+Inf`` bucket disagreeing
with ``_count`` all raise :class:`ValueError`.  No client library is used —
the format is a line protocol and the repo's no-new-dependencies rule
applies.
"""

from __future__ import annotations

import math
import re

__all__ = [
    "REQUIRED_METRICS",
    "parse_exposition",
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
    "repro_serving_routes_requests_total",
    "repro_serving_routes_latency_seconds",
    "repro_serving_routes_sheds_total",
    "repro_serving_queue_depth",
    "repro_serving_inflight_flops",
    "repro_batching_batches_total",
    "repro_runtime_plan_cache_lowers_total",
)


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
    ``required`` family is present and that each histogram series (one per
    family and label set) is cumulative with its ``+Inf`` bucket equal to
    ``_count``.
    """
    samples = parse_exposition(text)
    families = {re.sub(r"_(bucket|sum|count)$", "", name) for name in samples}
    missing = [name for name in required if name not in families]
    if missing:
        raise ValueError(f"scrape is missing required metrics: {missing}")

    for name, buckets in samples.items():
        if not name.endswith("_bucket"):
            continue
        family = name[: -len("_bucket")]
        by_series: dict[tuple, list[tuple[float, float]]] = {}
        for labels, value in buckets:
            le = math.inf if labels["le"] == "+Inf" else float(labels["le"])
            series = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            by_series.setdefault(series, []).append((le, value))
        counts = {
            tuple(sorted(labels.items())): value
            for labels, value in samples.get(f"{family}_count", [])
        }
        for series, points in by_series.items():
            where = f"{family}{dict(series)}"
            points.sort(key=lambda pair: pair[0])
            cumulative = [value for _, value in points]
            if cumulative != sorted(cumulative):
                raise ValueError(f"histogram {where} is not cumulative")
            if not math.isinf(points[-1][0]):
                raise ValueError(f"histogram {where} lacks a +Inf bucket")
            if series in counts and points[-1][1] != counts[series]:
                raise ValueError(
                    f"histogram {where}: +Inf bucket {points[-1][1]} != count {counts[series]}"
                )
    return samples

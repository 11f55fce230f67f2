"""Latency summaries, fail accounting and process peak-RSS reading.

Every op the benchmark attempts becomes one record::

    {"kind": "cold" | "warm" | "lifecycle", "cls": "banded" | "power_law" | None,
     "ms": float, "ok": bool}

``lifecycle`` records are shutdown and leak checks: attempted ops without a
latency.  A failed op (exception, wrong result, non-200 reply, leak at
shutdown) keeps its record with ``ok`` false; :func:`latencies` then counts it as an
infinitely slow op, so it misses every latency limit as well as counting
in the failure ratio.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

#: Stand-in for an infinite latency in the printed JSON (strict parsers
#: reject ``Infinity``); only reachable when an op failed.
MISSED_MS = 1e9


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, n)``: with ``n`` sorted samples the value
    at 0-based index ``n - TAIL_BEYOND - 1`` has exactly ``TAIL_BEYOND``
    samples above it and sits at percentile ``100 * (n - TAIL_BEYOND) / n``.
    With too few samples for any such percentile the maximum is returned,
    at percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def latencies(ops: list[dict], kind: str) -> list[float]:
    """Latencies (ms) of one op kind; a failed op counts as infinitely slow."""
    return [op["ms"] if op["ok"] else math.inf for op in ops if op["kind"] == kind]


def finite(value: float) -> float:
    """Clamp a latency for JSON output (see :data:`MISSED_MS`)."""
    return value if math.isfinite(value) else MISSED_MS


def summarize(ops: list[dict]) -> tuple[dict, dict]:
    """``cold_*`` / ``warm_*`` p50 and tail latencies, plus tail provenance.

    Returns ``(metrics, tails)``: ``metrics`` maps metric name to value in
    ms, ``tails`` records for each ``*_tail_ms`` which percentile it is and
    over how many samples.
    """
    metrics: dict[str, float] = {}
    tails: dict[str, dict] = {}
    for kind in ("cold", "warm"):
        xs = latencies(ops, kind)
        if not xs:
            continue
        metrics[f"{kind}_p50_ms"] = finite(statistics.median(xs))
        value, pct, n = tail(xs)
        metrics[f"{kind}_tail_ms"] = finite(value)
        tails[f"{kind}_tail_ms"] = {"percentile": round(pct, 2), "n": n}
    return metrics, tails


def failures(ops: list[dict]) -> int:
    """How many ops failed."""
    return sum(1 for op in ops if not op["ok"])


def ok_ratio(ops: list[dict]) -> float:
    """Share of attempted ops that completed with a correct result."""
    return (len(ops) - failures(ops)) / len(ops) if ops else 0.0


def median_or_zero(values: list[float]) -> float:
    """Median of ``values``; 0 when a layer saw no samples."""
    return float(statistics.median(values)) if values else 0.0


def vmhwm_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB.

    Read from ``/proc/<pid>/status`` while the process is still running —
    for a server, before it is signalled to stop.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        return parse_vmhwm(fh.read())


def parse_vmhwm(status_text: str) -> float:
    """The ``VmHWM`` line of a ``/proc/<pid>/status`` text, in MiB."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            size, unit = line.split()[1:3]
            if unit != "kB":
                raise ValueError(f"unexpected VmHWM unit {unit!r}")
            return int(size) / 1024.0
    raise ValueError("no VmHWM line in process status")

"""Deterministic aggregation of span trees.

The raw span tree carries wall-clock times, which differ run to run and
between serial and process-pool execution.  The *aggregated* tree is the
deterministic projection the acceptance checks compare byte for byte: sibling
spans are merged by ``(name, category)``, occurrence counts and integer
counters are summed, children are aggregated recursively, and every level is
sorted — so the result is a pure function of what work ran, not of when or
where it ran.  Wall-clock is deliberately excluded; it lives in the Chrome
events (:mod:`repro.obs.export`) and in :func:`category_rollup`, the
self-time table ``repro trace`` prints.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

from repro.obs.recorder import Span

__all__ = ["aggregate_spans", "aggregate_digest", "category_rollup", "walk_aggregate"]


def aggregate_spans(spans: Sequence[Span]) -> list[dict]:
    """Merge sibling spans by ``(name, category)`` into a sorted tree.

    Returns a list of plain-dict nodes ``{name, category, count, counters,
    children}`` with counters and children each sorted by key, so two span
    trees describing the same work serialise identically regardless of
    execution order or process placement.
    """
    groups: dict[tuple[str, str], dict] = {}
    pending_children: dict[tuple[str, str], list[Span]] = {}
    for span in spans:
        key = (span.name, span.category)
        node = groups.get(key)
        if node is None:
            node = groups[key] = {"count": 0, "counters": {}}
            pending_children[key] = []
        node["count"] += 1
        for name, value in span.counters.items():
            node["counters"][name] = node["counters"].get(name, 0) + int(value)
        pending_children[key].extend(span.children)
    return [
        {
            "name": name,
            "category": category,
            "count": groups[(name, category)]["count"],
            "counters": dict(sorted(groups[(name, category)]["counters"].items())),
            "children": aggregate_spans(pending_children[(name, category)]),
        }
        for name, category in sorted(groups)
    ]


def aggregate_digest(tree: list[dict]) -> str:
    """Stable 16-hex digest of an aggregated tree (equivalence checks)."""
    blob = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def walk_aggregate(tree: list[dict], depth: int = 0):
    """Yield ``(depth, node)`` over an aggregated tree in display order."""
    for node in tree:
        yield depth, node
        yield from walk_aggregate(node["children"], depth + 1)


def category_rollup(spans: Sequence[Span]) -> list[tuple[str, int, float]]:
    """Wall-clock self time by span category, largest first (ties by name).

    Returns ``(category, spans, self_seconds)`` rows.  A span's self time is
    its duration minus its children's, so nesting never double-counts and
    the rows sum to the traced wall clock.
    """
    totals: dict[str, list] = {}

    def visit(tree: Sequence[Span]) -> None:
        for span in tree:
            entry = totals.setdefault(span.category, [0, 0.0])
            entry[0] += 1
            entry[1] += max(0.0, span.dur - sum(child.dur for child in span.children))
            visit(span.children)

    visit(spans)
    return sorted(
        ((category, n, seconds) for category, (n, seconds) in totals.items()),
        key=lambda row: (-row[2], row[0]),
    )

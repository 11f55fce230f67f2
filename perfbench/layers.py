"""Per-layer measurement: spans timed around calls into the program's layers.

The benchmark records its own spans — name, op, start, duration — around
each call it makes into a layer's public function, and adopts durations the
program already reports (``repro.obs`` spans via ``Runtime.recording()``,
``PhaseExecution`` records, the server's exported Chrome traces).  Nothing
is instrumented inside the program.  Spans stay in memory and are written
out as one Chrome trace when the run ends.

A per-layer time is the median over ops of the op's summed span time in
that layer.  Counts come from the workload's first :data:`PROBE_STRUCTURES`
structures, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import inputs
from stats import median_or_zero

#: Structures (from the start of the schedule) whose counts are reported
#: and which the layer probe re-runs: three rounds of the 2:1 class mix.
PROBE_STRUCTURES = 9

MIB = float(1 << 20)

#: Every per-layer metric and its unit, in ``BENCHMARK.json`` order.  A
#: ``*_ms`` metric is the median per-op time of the span named without the
#: suffix; the rest are counts, sizes or ratios set directly.
PER_LAYER = {
    "spgemm.symbolic_ms": "ms",
    "spgemm.validate_ms": "ms",
    "spgemm.products": "count",
    "spgemm.nnz_c": "count",
    "spgemm.expansion_mib_computed": "MiB",
    "plan.lower_ms": "ms",
    "plan.blocks": "count",
    "plan.execute.expansion_ms": "ms",
    "plan.execute.merge_ms": "ms",
    "plan.execute.coalesce_ms": "ms",
    "plan.execute.bytes_computed": "bytes",
    "plan.cache.fingerprint_ms": "ms",
    "plan.cache.miss_ms": "ms",
    "plan.cache.hit_ms": "ms",
    "plan.cache.hit_ratio": "ratio",
    "plan.cache.lowers": "count",
    "gpusim.simulate_ms": "ms",
    "gpusim.blocks": "count",
    "oocore.plan_panels_ms": "ms",
    "oocore.panels": "count",
    "oocore.spills": "count",
    "oocore.spilled_mib": "MiB",
    "oocore.merge_rounds": "count",
    "oocore.resident_peak_mib": "MiB",
    "runtime.init_ms": "ms",
    "runtime.import_ms": "ms",
    "serve.parse_ms": "ms",
    "serve.validate_ms": "ms",
    "serve.admission_ms": "ms",
    "serve.batch_wait_ms": "ms",
    "serve.session_ms": "ms",
    "serve.numeric_ms": "ms",
    "serve.serialize_ms": "ms",
    "serve.request_mib": "MiB",
    "serve.response_mib": "MiB",
    "serve.coalescence": "ratio",
    "serve.requests_per_lowering": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Bytes one intermediate product costs through expansion + merge
#: (``repro.oocore.budget.BYTES_PER_PRODUCT``); fixed here so the computed
#: expansion size means the same on every commit.
BYTES_PER_PRODUCT = 48


class Tracer:
    """In-memory span list; disabled tracers record nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = 0
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Time the block as one span of the current op."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0, t0)

    def add(self, name: str, seconds: float, t0: float | None = None) -> None:
        """Record a duration measured elsewhere (program spans, records)."""
        if self.enabled:
            start = (t0 if t0 is not None else time.perf_counter()) - self._origin
            self.spans.append({"name": name, "op": self.op, "t0": start, "dur": seconds})

    def adopt_obs(self, roots, names: dict[str, str]) -> None:
        """Adopt ``repro.obs`` spans whose name starts with a key of ``names``."""
        stack = list(roots)
        while stack:
            span = stack.pop()
            for prefix, name in names.items():
                if span.name.startswith(prefix):
                    self.add(name, span.dur)
            stack.extend(span.children)


def layer_times(spans: list[dict]) -> dict[str, float]:
    """``<name>_ms``: median over ops of each op's summed span time."""
    per_op: dict[str, dict[tuple, float]] = {}
    for s in spans:
        ops = per_op.setdefault(s["name"], {})
        key = (s.get("segment", 0), s["op"])
        ops[key] = ops.get(key, 0.0) + s["dur"]
    return {f"{name}_ms": median_or_zero(list(ops.values())) * 1e3 for name, ops in per_op.items()}


def probe(a, algo, tracer: Tracer) -> dict:
    """Re-run each numeric-plane layer of ``algo`` on ``a`` (C = A·A), timed.

    Validate, fingerprint, the symbolic pass, lowering and instrumented
    execution each run once through their public function, in the order
    the cold path runs them.  Returns the operand's counts.
    """
    from repro.plan.cache import structure_fingerprint
    from repro.spgemm.base import DEFAULT_LOWERING_CONFIG, MultiplyContext, validate_operands

    with tracer.span("spgemm.validate"):
        validate_operands(a, a)
    with tracer.span("plan.cache.fingerprint"):
        structure_fingerprint(a, a)
    ctx = MultiplyContext.build(a)
    with tracer.span("spgemm.symbolic"):
        ctx.c_row_nnz
    with tracer.span("plan.lower"):
        plan = algo.lower(ctx, DEFAULT_LOWERING_CONFIG)
    t0 = time.perf_counter()
    _, records = plan.execute_instrumented(ctx)
    total = time.perf_counter() - t0
    for stage in ("expansion", "merge"):
        tracer.add(f"plan.execute.{stage}", sum(r.seconds for r in records if r.stage == stage))
    tracer.add("plan.execute.coalesce", total - sum(r.seconds for r in records))
    counts = operand_counts(ctx)
    counts["plan.blocks"] = plan.n_blocks
    counts["plan.execute.bytes_computed"] = sum(r.bytes_touched for r in records)
    return counts


def operand_counts(ctx) -> dict:
    """Input properties of one multiply context (after its symbolic pass)."""
    products = int(ctx.total_work)
    return {
        "spgemm.products": products,
        "spgemm.nnz_c": int(ctx.nnz_c),
        "spgemm.expansion_mib_computed": products * BYTES_PER_PRODUCT / MIB,
    }


def properties(index: int, a, ctx=None, nnz_c: int | None = None) -> dict:
    """Input properties of the ``index``-th structure, for a run's provenance.

    ``nnz_c`` may come from a computed result; otherwise the symbolic pass
    of ``ctx`` (built here when not given) supplies it.
    """
    from repro.spgemm.base import MultiplyContext

    if ctx is None:
        ctx = MultiplyContext.build(a)
    products = int(ctx.total_work)
    return {
        "cls": inputs.structure_class(index),
        "n": a.shape[0],
        "nnz": a.nnz,
        "products": products,
        "nnz_c": int(ctx.nnz_c) if nnz_c is None else nnz_c,
        "expansion_bytes": products * BYTES_PER_PRODUCT,
    }


def assemble(spans: list[dict], counts: list[dict], direct: dict) -> dict:
    """Every :data:`PER_LAYER` metric: span medians, count medians, directs.

    A layer the workload never calls reads 0.
    """
    values = layer_times(spans)
    for name in {k for c in counts for k in c}:
        values[name] = median_or_zero([c[name] for c in counts if name in c])
    values.update(direct)
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def write_chrome(path: str, spans: list[dict], meta: dict) -> None:
    """Write spans as a Chrome trace (one lane per segment, us timestamps)."""
    events = [
        {
            "name": s["name"],
            "ph": "X",
            "ts": round(s["t0"] * 1e6, 3),
            "dur": round(s["dur"] * 1e6, 3),
            "pid": s.get("segment", 0),
            "tid": 0,
            "args": {"op": s["op"]},
        }
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "otherData": meta}, fh)

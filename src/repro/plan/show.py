"""Pretty-printing for ExecutionPlans (the ``repro plan show`` subcommand).

Deliberately independent of the bench layer's table helpers so the plan
package stays importable without dragging in the runner.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.plan.ir import ExecutionPlan, PhaseExecution

__all__ = ["format_plan", "format_executions"]


def _threads_range(blocks) -> str:
    if len(blocks) == 0:
        return "-"
    lo, hi = int(blocks.threads.min()), int(blocks.threads.max())
    return str(lo) if lo == hi else f"{lo}..{hi}"


def format_plan(plan: ExecutionPlan) -> str:
    """Render a plan's phases, costs and metadata as fixed-width text."""
    lines = [
        f"ExecutionPlan for {plan.algorithm!r}  (shape {plan.shape_digest()}, "
        f"{plan.order} order)",
        f"  host_seconds={plan.host_seconds:.3e}  "
        f"device_setup_cycles={plan.device_setup_cycles:.0f}  "
        f"total_ops={plan.total_ops()}",
        "",
        f"  {'phase':<22} {'stage':<10} {'dev':<4} {'blocks':>8} "
        f"{'ops':>12} {'threads':>9} {'smem':>7} {'covers':<16}",
        "  " + "-" * 94,
    ]
    for p in plan.phases:
        smem = int(p.blocks.smem_bytes.max()) if len(p.blocks) else 0
        lines.append(
            f"  {p.name:<22} {p.stage:<10} {'gpu' if p.device else 'host':<4} "
            f"{len(p.blocks):>8} {int(np.sum(p.blocks.ops)):>12} "
            f"{_threads_range(p.blocks):>9} {smem:>7} "
            f"{'-' if p.covers is None else p.covers.describe():<16}"
        )
    if plan.meta:
        lines.append("")
        lines.append("  meta:")
        for key, value in plan.meta.items():
            lines.append(f"    {key} = {value}")
    return "\n".join(lines)


def format_executions(records: Iterable[PhaseExecution]) -> str:
    """Render instrumentation records from an instrumented execution."""
    lines = [
        f"  {'phase':<22} {'stage':<10} {'ops':>12} {'wall us':>10} {'bytes':>14}",
        "  " + "-" * 74,
    ]
    for r in records:
        lines.append(
            f"  {r.name:<22} {r.stage:<10} {r.ops:>12} "
            f"{r.seconds * 1e6:>10.1f} {r.bytes_touched:>14.0f}"
        )
    return "\n".join(lines)

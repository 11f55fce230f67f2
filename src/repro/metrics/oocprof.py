"""Out-of-core profiling: render repro.oocore executor counters.

The chunked executor (:mod:`repro.oocore`) records how a budgeted multiply
actually ran — panel count and any oversized single-row panels, spill count
and bytes, the resident-set peak its accounting tracked and the process's
lifetime peak RSS.  :func:`format_ooc_stats` renders an
:class:`~repro.oocore.OocStats` for ``repro run --mem-budget`` and the
out-of-core bench (``tools/bench_oocore.py``).
"""

from __future__ import annotations

from repro.oocore import OocStats

__all__ = ["OocStats", "format_ooc_stats", "format_bytes"]


def format_bytes(n: int) -> str:
    """Binary-unit rendering (``"1.5 GiB"``); exact bytes below 1 KiB."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024
    raise AssertionError("unreachable")


def format_ooc_stats(stats: OocStats) -> str:
    """Human-readable rendering of one chunked multiply's counters.

    One summary line for the panel decomposition, one for the spill
    activity, one for the memory envelope — the numbers the oocore CI leg
    and BENCH artifacts assert against.
    """
    oversized = (
        f" ({stats.n_oversized} oversized)" if stats.n_oversized else ""
    )
    lines = [
        f"oocore: {stats.n_panels} panels{oversized}, "
        f"{stats.total_products} products under a "
        f"{format_bytes(stats.budget_bytes)} budget "
        f"({stats.max_products} products resident)",
        f"  spills: {stats.spill_count} ({format_bytes(stats.bytes_spilled)} written)",
        f"  memory: resident peak {format_bytes(stats.resident_peak_bytes)}, "
        f"process peak RSS {format_bytes(stats.peak_rss_bytes)}",
    ]
    return "\n".join(lines)

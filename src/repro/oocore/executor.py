"""The chunked out-of-core executor: panel multiplies + in-place assembly.

:func:`chunked_multiply` computes ``C = A·B`` under a memory budget that the
full intermediate expansion would blow through.  It cuts A into row panels
sized by the paper's precalculated workload sums (:mod:`repro.oocore.panels`),
runs each panel through the *existing* lowering and numeric plane (the
scheme's own ``multiply``), and keeps each panel's result as its CSR row
slice of C: the row counts in memory, the column indices and values
resident or spilled to disk through a crash-safe
:class:`~repro.oocore.spill.SpillStore` while the resident partials exceed
the budget.  After the last panel it builds C's ``indptr`` from the row
counts and copies every partial into place at its offset.

Bit-identity: row panels of A produce disjoint, ascending row slices of C,
and within a panel the product stream is the full stream's restriction to
those rows in the same relative order — so every output entry is the same
sequence of float64 additions as the in-memory path, and assembly only
places entries, never adds them.  ``chunked_multiply`` is therefore
bit-identical to ``algo.multiply`` for every scheme whose emission order
depends on the rows alone; the oocore CI leg and ``repro compare
--mem-budget`` assert exactly that.

The exception is ``block-reorganizer`` on skewed (power-law) operands.  It
classifies and B-Splits column/row pairs from each *panel's* workload, so a
pair can be split in a panel but not in memory (or split differently).  That
moves its products within the stream and re-associates the float64 sums of
the entries they feed: the structure is identical, the values differ in the
last bits (max |Δ| 5.7e-14 to 2.3e-13 at 9 panels, ⅛ of the expansion).
``tests/test_oocore.py`` pins this with a strict xfail.

Per-panel work records ``oocore.panel[i]`` observability spans, assembly an
``oocore.assemble`` span, and the returned :class:`OocStats` carries the
spill and peak-RSS counters that
:func:`repro.metrics.oocprof.format_ooc_stats` renders.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.oocore.budget import parse_mem_budget, products_for_budget
from repro.oocore.panels import Panel, plan_panels, slice_rows
from repro.oocore.spill import SpillStore
from repro.runtime import lifecycle
from repro.sparse.csr import CSRMatrix
from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm, validate_operands

__all__ = ["OocStats", "chunked_multiply"]


def _peak_rss_bytes() -> int:
    """Lifetime peak resident set of this process (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass
class OocStats:
    """Counters from one chunked multiply (all deterministic except RSS)."""

    budget_bytes: int
    max_products: int
    n_panels: int = 0
    n_oversized: int = 0
    total_products: int = 0
    spill_count: int = 0
    bytes_spilled: int = 0
    merge_rounds: int = 0  # always 0; read only by perfbench/worker.py
    resident_peak_bytes: int = 0
    peak_rss_bytes: int = 0
    panels: list[Panel] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-able summary (panel list reduced to its row ranges)."""
        return {
            "budget_bytes": self.budget_bytes,
            "max_products": self.max_products,
            "n_panels": self.n_panels,
            "n_oversized": self.n_oversized,
            "total_products": self.total_products,
            "spill_count": self.spill_count,
            "bytes_spilled": self.bytes_spilled,
            "resident_peak_bytes": self.resident_peak_bytes,
            "peak_rss_bytes": self.peak_rss_bytes,
            "panel_rows": [[p.row_start, p.row_stop] for p in self.panels],
        }


class _Partial:
    """One panel's column indices and values, resident or spilled."""

    __slots__ = ("indices", "data", "ticket", "nbytes")

    def __init__(self, indices: np.ndarray, data: np.ndarray) -> None:
        self.indices = indices
        self.data = data
        self.ticket: str | None = None
        self.nbytes = indices.nbytes + data.nbytes

    @property
    def resident(self) -> bool:
        return self.indices is not None

    def spill_to(self, store: SpillStore) -> None:
        self.ticket = store.spill(self.indices, self.data)
        self.indices = None
        self.data = None

    def take(self, store: SpillStore | None) -> tuple[np.ndarray, np.ndarray]:
        """The arrays, read back (digest-checked) if spilled; drops this
        partial's own references so each is freed once placed."""
        if self.ticket is not None:
            assert store is not None
            return store.read(self.ticket)
        arrays = self.indices, self.data
        self.indices = None
        self.data = None
        return arrays


def chunked_multiply(
    algo: SpGEMMAlgorithm,
    a: CSRMatrix,
    b: CSRMatrix | None = None,
    *,
    mem_budget: int | str,
    spill_dir: str | None = None,
) -> tuple[CSRMatrix, OocStats]:
    """Compute ``A·B`` with ``algo`` under ``mem_budget`` bytes; see module doc.

    Returns the product (bit-identical to ``algo.multiply`` on the same
    operands, except ``block-reorganizer`` on skewed operands, whose values
    may differ in the last bits) and the run's :class:`OocStats`.
    ``spill_dir`` hosts the crash-safe spill store (``$TMPDIR`` by default).
    Deliberately does *not* take a plan cache: caching one recipe per panel
    would retain budget-sized gather arrays per LRU entry, defeating the
    budget.
    """
    b = a if b is None else b
    validate_operands(a, b)
    budget_bytes = parse_mem_budget(mem_budget)
    max_products = products_for_budget(budget_bytes)
    n_rows, n_cols = a.n_rows, b.n_cols
    stats = OocStats(budget_bytes=budget_bytes, max_products=max_products)

    store: SpillStore | None = None
    try:
        with obs.span(f"oocore.chunked[{algo.name}]", "oocore") as root:
            with obs.span("oocore.plan_panels", "oocore") as sp:
                panels = plan_panels(a, b, max_products)
                stats.panels = panels
                stats.n_panels = len(panels)
                stats.n_oversized = sum(p.oversized for p in panels)
                stats.total_products = sum(p.products for p in panels)
                sp.add(
                    panels=stats.n_panels,
                    oversized=stats.n_oversized,
                    products=stats.total_products,
                )

            row_nnz = np.zeros(n_rows, dtype=np.int64)
            partials: list[_Partial] = []
            resident_bytes = 0
            for panel in panels:
                with obs.span(f"oocore.panel[{panel.index}]", "oocore") as sp:
                    a_panel = slice_rows(a, panel.row_start, panel.row_stop)
                    ctx = MultiplyContext.build(a_panel, b)
                    c_panel = algo.multiply(ctx)
                    row_nnz[panel.row_start : panel.row_stop] = c_panel.row_nnz()
                    part = _Partial(c_panel.indices, c_panel.data)
                    partials.append(part)
                    resident_bytes += part.nbytes
                    stats.resident_peak_bytes = max(stats.resident_peak_bytes, resident_bytes)
                    sp.add(
                        rows=panel.n_rows,
                        products=panel.products,
                        nnz=c_panel.nnz,
                        spilled=0,
                    )
                    # Over budget: spill oldest-first until resident again (the
                    # newest partial may itself go if it alone overshoots).
                    while resident_bytes > budget_bytes:
                        victim = next((p for p in partials if p.resident), None)
                        if victim is None:  # pragma: no cover - defensive
                            break
                        if store is None:
                            store = SpillStore(spill_dir)
                        victim.spill_to(store)
                        resident_bytes -= victim.nbytes
                        sp.add(spilled=1)

            with obs.span("oocore.assemble", "oocore") as sp:
                # Panels are contiguous, ascending row ranges, so each
                # partial's entries land in one slice of C's arrays.
                indptr = np.zeros(n_rows + 1, dtype=np.int64)
                np.cumsum(row_nnz, out=indptr[1:])
                indices = np.empty(indptr[-1], dtype=np.int64)
                data = np.empty(indptr[-1], dtype=np.float64)
                for panel, part in zip(panels, partials):
                    lo, hi = indptr[panel.row_start], indptr[panel.row_stop]
                    indices[lo:hi], data[lo:hi] = part.take(store)
                sp.add(nnz=int(indptr[-1]))

            if store is not None:
                stats.spill_count = store.spill_count
                stats.bytes_spilled = store.bytes_spilled
            stats.peak_rss_bytes = _peak_rss_bytes()
            root.add(panels=stats.n_panels, spills=stats.spill_count)
    finally:
        if store is not None:
            lifecycle.uninstall(store)

    return CSRMatrix((n_rows, n_cols), indptr, indices, data), stats

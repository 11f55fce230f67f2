"""The chunked out-of-core executor: the streaming kernel plus a spill sink.

:func:`chunked_multiply` computes ``C = A·B`` under a memory budget that
the in-memory path's resident result would blow through.  It lowers the
scheme once on the whole operand and runs the one numeric kernel
(:func:`repro.kernels.stream`) on the whole operands with the global plan's
expansion order and per-pair tie ranks, its row blocks capped at the
products the budget holds (:func:`~repro.oocore.budget.products_for_budget`).
The kernel hands each finished block's CSR row slice of C to a sink, which
keeps the row counts in memory and the column indices and values resident
or spilled to disk through a crash-safe
:class:`~repro.oocore.spill.SpillStore`, oldest first, while the resident
partials exceed the budget.  After the last block it builds C's ``indptr``
from the row counts and copies every partial into place at its offset.

Bit-identity: the same walk, the same blocks.  Every output entry's
products lie in one row block and the kernel sums them in ascending (tie
rank, expansion position) whatever the cut, with the global plan's tie
ranks, so every output entry is the same sequence of float64 additions as
the in-memory path; assembly only places entries, never adds them.
``chunked_multiply`` is therefore bit-identical to ``algo.multiply`` for
every scheme, the Block Reorganizer included; the oocore CI leg and
``repro compare --mem-budget`` assert exactly that.

Lowering records one ``plan.lower[...]`` span, the kernel and its sink an
``oocore.kernel`` span, assembly an ``oocore.assemble`` span, and the
returned :class:`OocStats` carries the block, spill and peak-RSS counters
that ``repro run --mem-budget`` prints through :mod:`repro.obs.counters`.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field

import numpy as np

from repro import kernels, obs
from repro.obs.counters import counter, derived, gauge
from repro.oocore.budget import parse_mem_budget, products_for_budget
from repro.oocore.spill import SpillStore
from repro.runtime import lifecycle
from repro.sparse.csr import CSRMatrix
from repro.spgemm.base import (
    DEFAULT_LOWERING_CONFIG,
    MultiplyContext,
    SpGEMMAlgorithm,
    validate_operands,
)

__all__ = ["OocStats", "chunked_multiply"]


def _peak_rss_bytes() -> int:
    """Lifetime peak resident set of this process (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass
class OocStats:
    """Counters from one chunked multiply (all deterministic except RSS).

    ``merge_rounds`` (always 0; read only by ``perfbench/worker.py``) and
    the raw ``panels`` list of row blocks carry no declaration, so no
    output shows them; ``panel_rows`` is their rendered summary.
    """

    budget_bytes: int = gauge("Memory budget of the run.", unit="bytes")
    max_products: int = gauge("Products one row block may expand under the budget.")
    n_panels: int = counter("Row blocks the kernel handed to the spill sink.")
    n_oversized: int = counter("Single-row blocks whose expansion alone exceeds the budget.")
    total_products: int = counter("Products expanded over all blocks.")
    spill_count: int = counter("Block partials spilled to disk.")
    bytes_spilled: int = counter("Bytes written by spills.", unit="bytes")
    merge_rounds: int = 0
    resident_peak_bytes: int = gauge("Peak bytes of resident block partials.", unit="bytes")
    peak_rss_bytes: int = gauge("Lifetime peak resident set of the process.", unit="bytes")
    panels: list[kernels.RowBlock] = field(default_factory=list)

    @derived(gauge("Row range [start, stop) of each row block."))
    def panel_rows(self) -> list[list[int]]:
        """Each block's ``[start, stop)``, in row order."""
        return [[blk.start, blk.stop] for blk in self.panels]


class _Partial:
    """One row block's column indices and values, resident or spilled."""

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


def _global_plan(
    algo: SpGEMMAlgorithm, a: CSRMatrix, b: CSRMatrix
) -> tuple[str, np.ndarray | None]:
    """Lower ``algo`` once on the whole operand and check its invariant.

    Returns what the kernel needs: the expansion order and the per-pair tie
    ranks.  Nothing reads the merge phases' blocks, which lowering defers,
    so no symbolic pass runs (bhSPARSE's row bins still count C's rows).
    The whole-operand context dies with this frame.
    """
    ctx = MultiplyContext.build(a, b)
    plan = algo.lower_traced(ctx, DEFAULT_LOWERING_CONFIG)
    plan.phase_ops(ctx)
    return plan.order, plan.tie_rank(len(ctx.pair_work))


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
    operands) and the run's :class:`OocStats`.
    ``spill_dir`` hosts the crash-safe spill store (``$TMPDIR`` by default).
    Deliberately does *not* take a plan cache: a recipe holds gathers over
    every product, which the budget exists to avoid.
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
            order, rank = _global_plan(algo, a, b)
            blocks = kernels.row_cut(a, b, max_products=min(kernels.BLOCK_PRODUCTS, max_products))
            row_nnz = np.zeros(n_rows, dtype=np.int64)
            partials: list[_Partial] = []
            resident_bytes = 0
            with obs.span("oocore.kernel", "oocore") as sp:
                for blk, blk_nnz, indices, data in kernels.stream(a, b, order, rank, blocks):
                    row_nnz[blk.start : blk.stop] = blk_nnz
                    part = _Partial(indices, data)
                    partials.append(part)
                    resident_bytes += part.nbytes
                    stats.resident_peak_bytes = max(stats.resident_peak_bytes, resident_bytes)
                    # Over budget: spill oldest-first until resident again (the
                    # newest partial may itself go if it alone overshoots).
                    while resident_bytes > budget_bytes:
                        victim = next(p for p in partials if p.resident)
                        if store is None:
                            store = SpillStore(spill_dir)
                        victim.spill_to(store)
                        resident_bytes -= victim.nbytes
                stats.panels = blocks
                stats.n_panels = len(blocks)
                stats.n_oversized = sum(blk.hi - blk.lo > max_products for blk in blocks)
                stats.total_products = blocks[-1].hi if blocks else 0
                sp.add(
                    blocks=stats.n_panels,
                    oversized=stats.n_oversized,
                    products=stats.total_products,
                    nnz=int(row_nnz.sum()),
                )

            with obs.span("oocore.assemble", "oocore") as sp:
                # Blocks are contiguous, ascending row ranges, so each
                # partial's entries land in one slice of C's arrays.
                indptr = np.zeros(n_rows + 1, dtype=np.int64)
                np.cumsum(row_nnz, out=indptr[1:])
                indices = np.empty(indptr[-1], dtype=np.int64)
                data = np.empty(indptr[-1], dtype=np.float64)
                for blk, part in zip(blocks, partials):
                    lo, hi = indptr[blk.start], indptr[blk.stop]
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

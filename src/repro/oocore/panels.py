"""Row-panel decomposition of A for the out-of-core executor.

``C = A @ B`` decomposes exactly along rows of A: each contiguous row panel
``A[lo:hi]`` produces the disjoint row slice ``C[lo:hi]``, so panel results
combine without any cross-panel arithmetic and the panel path is
bit-identical to the in-memory path row by row (the triplet stream a panel
expands is the full stream's restriction to those rows, in the same relative
order, and the merge reduces each entry in stream order).

The planner sizes panels from the paper's precalculated workload sums
(:func:`repro.plan.estimate.row_flops` — products landing in each output
row) so that one panel's intermediate expansion stays under the product
budget.  A single row whose own workload exceeds the budget becomes a
one-row panel flagged ``oversized`` — it is processed anyway (correctness
over the budget) and counted, so callers can see the budget was overrun and
by which rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.plan.estimate import row_flops
from repro.sparse.csr import CSRMatrix

__all__ = ["Panel", "plan_panels", "slice_rows"]


@dataclass(frozen=True)
class Panel:
    """One contiguous row range of A, sized to fit the product budget.

    Attributes:
        index: position in panel order (also the order partials are placed in C).
        row_start: first A row in the panel (inclusive).
        row_stop: one past the last A row.
        products: intermediate products this panel expands to.
        oversized: True when a single row alone exceeds the budget.
    """

    index: int
    row_start: int
    row_stop: int
    products: int
    oversized: bool = False

    @property
    def n_rows(self) -> int:
        return self.row_stop - self.row_start


def plan_panels(a: CSRMatrix, b: CSRMatrix, max_products: int) -> list[Panel]:
    """Greedily cut A's rows into contiguous panels of ≤ ``max_products``.

    The cut is the numeric merge's (:func:`repro.kernels.row_blocks`): each
    panel is the longest run of rows that fits, and at least one row.  Every
    row lands in exactly one panel and panels are returned in row
    order (the order the executor places them in C).  An empty A yields a
    single empty panel so the executor's pipeline needs no special case.
    """
    if max_products < 1:
        raise ValueError(f"max_products must be >= 1, got {max_products}")
    if a.n_rows == 0:
        return [Panel(index=0, row_start=0, row_stop=0, products=0)]
    ends = np.cumsum(row_flops(a, b))
    return [
        Panel(i, blk.start, blk.stop, blk.hi - blk.lo, blk.hi - blk.lo > max_products)
        for i, blk in enumerate(kernels.row_blocks(ends, max_products=max_products))
    ]


def slice_rows(a: CSRMatrix, lo: int, hi: int) -> CSRMatrix:
    """The row panel ``a[lo:hi]`` as its own CSR matrix (copied arrays)."""
    start, stop = int(a.indptr[lo]), int(a.indptr[hi])
    indptr = a.indptr[lo : hi + 1].astype(np.int64) - np.int64(start)
    return CSRMatrix(
        (hi - lo, a.n_cols),
        indptr,
        a.indices[start:stop].copy(),
        a.data[start:stop].copy(),
    )

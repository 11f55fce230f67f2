"""Row-product spGEMM baseline — the paper's 1.0x reference.

Gustavson-style: each output row ``i`` is produced by one thread, which walks
row ``a_{i*}`` and accumulates scaled rows of B.  Threads in a block get rows
of wildly different cost on power-law inputs — the thread-level load-imbalance
problem the paper's Figure 2 illustrates — but the merge is row-wise (the
cheap form), and the scheme needs no preprocessing.  The paper normalises all
results to this baseline.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro import kernels
from repro.gpusim.config import GPUConfig
from repro.gpusim.trace import PHASE_EXPANSION, PHASE_MERGE
from repro.plan.ir import Coverage, ExecutionPlan, PlanPhase
from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm
from repro.spgemm.traceutil import ctx_merge_blocks, entry_chunk_blocks

__all__ = ["RowProductSpGEMM"]


class RowProductSpGEMM(SpGEMMAlgorithm):
    """Thread-per-row Gustavson expansion with row-form merge."""

    name = "row-product"

    def __init__(self, *args, block_threads: int = 128, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.block_threads = block_threads

    def lower(self, ctx: MultiplyContext, config: GPUConfig) -> ExecutionPlan:
        """Thread-per-A-entry blocks + row-form merge; row-order expansion.

        The merge phase's blocks are built when first read (they need C's
        row counts, see :func:`~repro.spgemm.traceutil.ctx_merge_blocks`).
        """
        entry_work = self.ctx_entry_work(ctx)
        expansion = entry_chunk_blocks(
            entry_work,
            self.costs,
            threads=self.block_threads,
            instr_scale=self.costs.row_exp_instr_scale,
        )
        merge = partial(ctx_merge_blocks, ctx, self.costs, row_form=True)
        return ExecutionPlan(
            algorithm=self.name,
            phases=[
                PlanPhase(
                    "expansion", PHASE_EXPANSION, expansion, covers=Coverage("all")
                ),
                PlanPhase(
                    "merge",
                    PHASE_MERGE,
                    merge,
                    covers=Coverage("all"),
                    instr_override=self.costs.instr_per_merge_elem_row,
                ),
            ],
            order=kernels.ROW_ORDER,
            meta={"total_work": ctx.total_work},
        )

    @staticmethod
    def ctx_entry_work(ctx: MultiplyContext) -> np.ndarray:
        """Products per A-entry: ``nnz(b_{col(e)*})`` in CSR order."""
        return ctx.b_csr.row_nnz()[ctx.a_csr.indices]

"""Outer-product spGEMM baseline.

Equation (2) of the paper: ``C = Σ_k a_{*k} · b_{k*}``.  One thread block per
non-empty column/row pair with a *fixed* block size — perfectly balanced
threads inside a block (every thread does ``nnz(a_{*k})`` products), but
block-level loads vary wildly on skewed inputs, and most pairs have far fewer
effective threads than the fixed block size.  These are exactly the
inefficiencies the Block Reorganizer removes; this baseline is the paper's
0.95x reference point.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro import kernels
from repro.gpusim.config import GPUConfig
from repro.gpusim.host import device_precalc_cycles
from repro.gpusim.trace import PHASE_EXPANSION, PHASE_MERGE
from repro.plan.ir import Coverage, ExecutionPlan, PlanPhase
from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm
from repro.spgemm.traceutil import ctx_merge_blocks, outer_pair_blocks

__all__ = ["OuterProductSpGEMM"]


class OuterProductSpGEMM(SpGEMMAlgorithm):
    """Outer-product expansion with matrix-form dense-accumulator merge."""

    name = "outer-product"

    def __init__(self, *args, fixed_block_size: int = 256, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fixed_block_size = fixed_block_size

    def lower(self, ctx: MultiplyContext, config: GPUConfig) -> ExecutionPlan:
        """One fixed-size block per non-empty pair; pair-order expansion.

        The merge phase's blocks are built when first read (they need C's
        row counts, see :func:`~repro.spgemm.traceutil.ctx_merge_blocks`).
        """
        na = ctx.a_col_nnz
        nb = ctx.b_csr.row_nnz()
        nonempty = (na > 0) & (nb > 0)
        expansion = outer_pair_blocks(
            na[nonempty],
            nb[nonempty],
            self.costs,
            fixed_threads=self.fixed_block_size,
        )
        merge = partial(ctx_merge_blocks, ctx, self.costs, row_form=False)
        return ExecutionPlan(
            algorithm=self.name,
            phases=[
                PlanPhase(
                    "expansion", PHASE_EXPANSION, expansion, covers=Coverage("all")
                ),
                PlanPhase("merge", PHASE_MERGE, merge, covers=Coverage("all")),
            ],
            order=kernels.PAIR_ORDER,
            device_setup_cycles=device_precalc_cycles(
                self.costs, ctx.a_csr.nnz, ctx.b_csr.nnz
            ),
            meta={
                "n_pairs": int(np.count_nonzero(nonempty)),
                "total_work": ctx.total_work,
            },
        )

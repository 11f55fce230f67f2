"""bhSPARSE-like comparator (Liu & Vinter, IPDPS'14).

Upper-bounds each output row's nnz, bins rows by that bound, and runs a
specialised kernel per bin (heap / bitonic / mergepath), giving much better
row-level balance than scalar row-product at the cost of binning setup and
per-element merge machinery.  Lands between the vendor libraries and the
hand-tuned baselines (0.55x average in the paper), and is strongest on
relatively dense inputs.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.gpusim.config import GPUConfig
from repro.gpusim.host import device_precalc_cycles
from repro.gpusim.trace import PHASE_EXPANSION, PHASE_MERGE
from repro.plan.ir import Coverage, ExecutionPlan, PlanPhase
from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm
from repro.spgemm.traceutil import ceil_div, group_by_budget
from repro.gpusim.block import BlockArrayBuilder

__all__ = ["BhSparseSpGEMM"]

#: bin edges on the row upper bound, mirroring bhSPARSE's kernel dispatch.
_BIN_EDGES = (32, 128, 512, 2048)


class BhSparseSpGEMM(SpGEMMAlgorithm):
    """Row-binning hybrid spGEMM (bhSPARSE model)."""

    name = "bhsparse"

    #: heap-insertion instruction cost per product.
    merge_instr_scale = 8.0

    def lower(self, ctx: MultiplyContext, config: GPUConfig) -> ExecutionPlan:
        """One fused expand+merge kernel per row bin.

        Each bin's kernel covers exactly the rows that fall in its bound
        range; every output row lands in one bin, and rows never share an
        output entry, so the bins need no tie rank: the numeric result is
        the row-ordered expansion's.
        """
        work = ctx.row_work
        u = ctx.c_row_nnz
        bpe = self.costs.bytes_per_entry
        phases: list[PlanPhase] = []

        edges = (0,) + _BIN_EDGES + (np.iinfo(np.int64).max,)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (work > lo) & (work <= hi)
            if not mask.any():
                continue
            k = work[mask]
            uu = u[mask]
            builder = BlockArrayBuilder()
            # Rows in a bin have similar cost -> pack a warp per row, a few
            # rows per block, well balanced.
            threads = 128
            rows_per_block = 4
            groups = group_by_budget(np.ones(len(k), dtype=np.int64), rows_per_block)
            n_groups = int(groups[-1]) + 1
            kk = np.bincount(groups, weights=k, minlength=n_groups).astype(np.int64)
            uu_g = np.bincount(groups, weights=uu, minlength=n_groups).astype(np.int64)
            kmax = np.zeros(n_groups)
            np.maximum.at(kmax, groups, k.astype(np.float64))
            iters = ceil_div(kmax, 32) * self.merge_instr_scale
            builder.add_blocks(
                threads=threads,
                effective_threads=np.minimum(kk, threads),
                iters=iters,
                ops=kk,
                # Progressive allocation re-reads rows and double-buffers
                # intermediate results before compaction.
                unique_bytes=kk * bpe * 2.5,
                reuse_bytes=kk * 30.0,
                write_bytes=(kk + uu_g) * bpe,
                smem_bytes=12 * 1024,  # per-row heaps live in shared memory
                working_set=kk * bpe,
                transactions=kk * bpe / 32.0 * 3.4,
            )
            phases.append(
                PlanPhase(
                    f"bin<= {hi if hi < 1 << 60 else 'inf'}",
                    PHASE_EXPANSION,
                    builder.build(),
                    covers=Coverage("rows", mask),
                )
            )

        # Merge bookkeeping pass (bhSPARSE re-allocates and compacts rows).
        compact = BlockArrayBuilder()
        nnz_c = int(u.sum())
        if nnz_c:
            n_blocks = int(ceil_div(nnz_c, 4096))
            elems = np.full(n_blocks, 4096, dtype=np.int64)
            elems[-1] = nnz_c - 4096 * (n_blocks - 1)
            compact.add_blocks(
                threads=256,
                effective_threads=np.minimum(elems, 256),
                iters=ceil_div(elems, 256).astype(np.float64),
                ops=elems,
                unique_bytes=elems * bpe,
                write_bytes=elems * bpe,
                working_set=np.full(n_blocks, 4096.0 * bpe),
                transactions=elems * bpe / 16.0,
            )
        phases.append(
            PlanPhase("compact", PHASE_MERGE, compact.build(), covers=Coverage("all"))
        )

        return ExecutionPlan(
            algorithm=self.name,
            phases=phases,
            order=kernels.ROW_ORDER,
            device_setup_cycles=device_precalc_cycles(
                self.costs, ctx.a_csr.nnz, ctx.b_csr.nnz, extra_elements=len(work)
            )
            * 2.0,  # binning + progressive allocation passes
            meta={"total_work": ctx.total_work},
        )

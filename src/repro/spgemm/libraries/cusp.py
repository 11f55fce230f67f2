"""CUSP-like comparator (ESC: expand, sort, compress).

CUSP materialises every intermediate product as a COO triplet, radix-sorts
the whole list by coordinate, then segment-reduces duplicates.  The expansion
is perfectly balanced (flat index space), but the sort makes several full
passes over 16-byte records — the scheme's traffic grows as
``O(T · digits)`` and it lands last on large inputs (0.22x average in the
paper).
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.gpusim.block import BlockArrayBuilder
from repro.gpusim.config import GPUConfig
from repro.gpusim.trace import PHASE_EXPANSION, PHASE_MERGE
from repro.plan.ir import Coverage, ExecutionPlan, PlanPhase
from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm
from repro.spgemm.traceutil import ceil_div

__all__ = ["CuspSpGEMM"]

_COO_BYTES = 16.0  # row + col + value per intermediate record
_RADIX_PASSES = 5


def _flat_blocks(total_elems: int, bytes_per_elem: float, rw_factor: float, instr: float):
    """Balanced flat-index blocks sweeping ``total_elems`` records."""
    builder = BlockArrayBuilder()
    if total_elems <= 0:
        return builder.build()
    per_block = 4096
    n_blocks = int(ceil_div(total_elems, per_block))
    elems = np.full(n_blocks, per_block, dtype=np.int64)
    elems[-1] = total_elems - per_block * (n_blocks - 1)
    iters = ceil_div(elems, 256).astype(np.float64) * instr
    bytes_moved = elems * bytes_per_elem * rw_factor
    builder.add_blocks(
        threads=256,
        effective_threads=np.minimum(elems, 256),
        iters=iters,
        ops=elems,
        unique_bytes=bytes_moved * 0.5,
        reuse_bytes=np.zeros(n_blocks),
        write_bytes=bytes_moved * 0.5,
        smem_bytes=8192,
        working_set=np.full(n_blocks, per_block * bytes_per_elem),
        transactions=bytes_moved / 32.0,
    )
    return builder.build()


class CuspSpGEMM(SpGEMMAlgorithm):
    """Expand-sort-compress spGEMM (CUSP model)."""

    name = "cusp"

    def lower(self, ctx: MultiplyContext, config: GPUConfig) -> ExecutionPlan:
        """Balanced expansion, radix-sort passes, segmented compression.

        ESC computes what our numeric kernel computes — expand, order by
        coordinate, segmented sum — so its three phases map onto the
        kernel's two steps: the sort and compress phases are the kernel's
        merge step (which numbers entries without a global sort).
        """
        t = ctx.total_work
        expansion = _flat_blocks(t, _COO_BYTES, rw_factor=1.0, instr=2.0)
        sort_blocks = _flat_blocks(t, _COO_BYTES, rw_factor=2.0 * _RADIX_PASSES, instr=4.0)
        compress = _flat_blocks(t, _COO_BYTES, rw_factor=1.0, instr=1.5)
        return ExecutionPlan(
            algorithm=self.name,
            phases=[
                PlanPhase("expand", PHASE_EXPANSION, expansion, covers=Coverage("all")),
                PlanPhase("sort", PHASE_MERGE, sort_blocks, covers=Coverage("all")),
                PlanPhase("compress", PHASE_MERGE, compress, covers=Coverage("all")),
            ],
            order=kernels.ROW_ORDER,
            meta={"total_work": t},
        )

"""cuSPARSE-like comparator (``csrgemm``).

Models the two-phase (symbolic + numeric) hash-based row-product scheme of
NVIDIA's library: warp-per-row work assignment, per-product hash-table
insertion, and a second full pass to size the output before computing it.
Strengths and weaknesses follow the paper's measurements: very low fixed
overhead (wins on tiny inputs, Figure 16a s1), but poor block-level balance
on power-law rows and double work from the two passes (0.29x average on the
real-world sets).
"""

from __future__ import annotations

from repro import kernels
from repro.gpusim.config import GPUConfig
from repro.gpusim.trace import PHASE_EXPANSION, PHASE_MERGE
from repro.plan.ir import Coverage, ExecutionPlan, PlanPhase
from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm
from repro.spgemm.traceutil import row_chunk_blocks

__all__ = ["CuSparseSpGEMM"]


class CuSparseSpGEMM(SpGEMMAlgorithm):
    """Two-phase hash-based row-product spGEMM (cuSPARSE model)."""

    name = "cusparse"

    #: extra instructions per product for hash probing/insertion.
    hash_instr_scale = 6.0
    #: traffic amplification from global hash tables (probe chains + spills).
    hash_traffic_scale = 2.2

    def lower(self, ctx: MultiplyContext, config: GPUConfig) -> ExecutionPlan:
        """Symbolic pass + numeric pass, both warp-per-row.

        Numerically, the symbolic pass covers every product in row order
        and the numeric pass merges them — hash semantics produce the same
        values; insertion order only affects timing.
        """
        a_row_nnz = ctx.a_csr.row_nnz()

        def _pass(scale: float):
            return row_chunk_blocks(
                ctx.row_work,
                a_row_nnz,
                self.costs,
                threads=128,
                work_granularity=32,  # warp per row
                instr_scale=scale,
                traffic_scale=self.hash_traffic_scale,
            )

        # Symbolic pass: counts only (no value traffic) but walks everything.
        symbolic = _pass(self.hash_instr_scale * 0.6)
        numeric = _pass(self.hash_instr_scale)
        return ExecutionPlan(
            algorithm=self.name,
            phases=[
                PlanPhase("symbolic", PHASE_EXPANSION, symbolic, covers=Coverage("all")),
                PlanPhase(
                    "numeric", PHASE_MERGE, numeric,
                    covers=Coverage("all"),
                    instr_override=self.costs.instr_per_product * self.hash_instr_scale,
                ),
            ],
            order=kernels.ROW_ORDER,
            meta={"total_work": ctx.total_work},
        )

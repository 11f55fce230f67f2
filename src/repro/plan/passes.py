"""Composable reorganizer passes over ExecutionPlans.

The paper's Block Reorganizer is, structurally, a transformation of the
outer-product baseline's thread-block layout.  This module expresses it that
way: each technique is a :class:`PlanPass` that rewrites an
:class:`~repro.plan.ir.ExecutionPlan` in place —

* :class:`ClassifyPass` — workload precalculation + categorisation (Section
  IV-B).  Replaces the baseline's single expansion phase with per-class
  phases (dominator / normal / gathered), each covering its class's pairs,
  and charges the device-side precalculation cost.  Always runs first; the
  other passes read its classification from the plan's annotations.  The
  class phases' positions are the pairs' tie ranks
  (:meth:`~repro.plan.ir.ExecutionPlan.tie_rank`): an output entry sums its
  dominator products first, then normal, then gathered.
* :class:`SplitPass` — B-Splitting (Section IV-C1): dominator blocks.
* :class:`GatherPass` — B-Gathering (Section IV-C2): underloaded blocks.
* :class:`LimitPass` — B-Limiting (Section IV-D): heavy merge rows.

Dropping a pass from the pipeline *is* the Figure 10 ablation: with only
:class:`ClassifyPass` the plan degenerates to the outer-product baseline's
fixed-size blocks, exactly as the paper describes.  New techniques (batching,
multi-GPU sharding) slot in as further passes without touching any scheme.

The technique passes reshape blocks only: each replacement phase covers the
same pairs or rows as the phase it replaces, so the numeric result never
depends on which techniques run.

Passes mutate and return the plan they are given; lowering always builds a
fresh baseline plan per call, so in-place rewriting is safe and keeps the
annotation plumbing trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.core.classify import classify_pairs
from repro.core.gathering import plan_gathering
from repro.core.limiting import limited_row_mask, limiting_smem_bytes
from repro.core.splitting import plan_splitting
from repro.errors import PlanError
from repro.gpusim.block import BlockArray, BlockArrayBuilder
from repro.gpusim.host import device_precalc_cycles, host_split_seconds
from repro.gpusim.trace import PHASE_EXPANSION, PHASE_MERGE
from repro.plan.ir import Coverage, ExecutionPlan, PlanPhase
from repro.spgemm.traceutil import ctx_merge_blocks, outer_pair_blocks

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.gpusim.config import GPUConfig
    from repro.gpusim.costs import CostModel
    from repro.spgemm.base import MultiplyContext

__all__ = [
    "PlanPass",
    "ClassifyPass",
    "SplitPass",
    "GatherPass",
    "LimitPass",
    "gathered_blocks",
]


class PlanPass(Protocol):
    """A composable plan transformation.

    Implementations rewrite the plan (phases, costs, metadata) and return it.
    ``signature()`` is the pass's JSON-able identity — pass name plus every
    parameter that affects its output — aggregated into the owning scheme's
    bench fingerprint, so reorganising a pipeline invalidates cached cells.
    """

    def signature(self) -> dict:
        """JSON-able identity of this pass and its parameters."""
        ...

    def run(
        self,
        plan: ExecutionPlan,
        ctx: MultiplyContext,
        config: GPUConfig,
        costs: CostModel,
    ) -> ExecutionPlan:
        """Transform ``plan`` for this problem and target, returning it."""
        ...


def _classes(plan: ExecutionPlan, pass_name: str):
    classes = plan.annotations.get("classes")
    if classes is None:
        raise PlanError(f"{pass_name} requires ClassifyPass to have run first")
    return classes


@dataclass(frozen=True)
class ClassifyPass:
    """Workload categorisation: split the expansion by pair class.

    The baseline outer-product plan has one fixed-size expansion phase; this
    pass replaces it with up to three class phases.  Until a technique pass
    rewrites them, dominator and underloaded phases keep baseline-sized
    fixed blocks (the disabled-technique behaviour of the Figure 10
    ablation), while normal pairs always get appropriately-sized blocks.
    """

    alpha: float = 0.1
    max_threads: int = 256
    baseline_threads: int = 256

    def signature(self) -> dict:
        """Identity: the classification thresholds and block sizes."""
        return {
            "pass": "classify",
            "alpha": self.alpha,
            "max_threads": self.max_threads,
            "baseline_threads": self.baseline_threads,
        }

    def run(self, plan, ctx, config, costs) -> ExecutionPlan:
        """Split the expansion phase by block class and annotate the plan."""
        na = ctx.a_col_nnz
        nb = ctx.b_csr.row_nnz()
        classes = classify_pairs(ctx.pair_work, nb, alpha=self.alpha)

        expansion: list[PlanPhase] = []
        if classes.n_dominators:
            blocks = outer_pair_blocks(
                na[classes.dominator], nb[classes.dominator], costs,
                fixed_threads=self.baseline_threads,
            )
            expansion.append(PlanPhase(
                "expansion-dominator", PHASE_EXPANSION, blocks,
                covers=Coverage("pairs", classes.dominator),
            ))
        if classes.n_normal:
            blocks = outer_pair_blocks(
                na[classes.normal], nb[classes.normal], costs,
                max_threads=self.max_threads,
            )
            expansion.append(PlanPhase(
                "expansion-normal", PHASE_EXPANSION, blocks,
                covers=Coverage("pairs", classes.normal),
            ))
        if classes.n_underloaded:
            blocks = outer_pair_blocks(
                na[classes.underloaded], nb[classes.underloaded], costs,
                fixed_threads=self.baseline_threads,
            )
            expansion.append(PlanPhase(
                "expansion-gathered", PHASE_EXPANSION, blocks,
                covers=Coverage("pairs", classes.underloaded),
            ))

        plan.phases = expansion + [p for p in plan.phases if p.stage == PHASE_MERGE]
        # Classification itself runs on the device (Section V): charge the
        # per-pair categorisation to the precalc kernel, not host_seconds.
        plan.device_setup_cycles = device_precalc_cycles(
            costs, ctx.a_csr.nnz, ctx.b_csr.nnz, extra_elements=len(na)
        )
        plan.meta = {
            "n_dominators": classes.n_dominators,
            "n_underloaded": classes.n_underloaded,
            "n_normal": classes.n_normal,
            "dominator_threshold": classes.threshold,
        }
        plan.annotations["classes"] = classes
        plan.annotations["na"] = na
        plan.annotations["nb"] = nb
        return plan


@dataclass(frozen=True)
class SplitPass:
    """B-Splitting: divide each dominator pair over many smaller blocks.

    Each split block takes a consecutive chunk of its dominator's column
    entries against the whole row vector (the paper's mapper array), so
    the split blocks compute exactly the dominator pairs' products — "the
    same results as the original vector pairs".  The phase keeps the
    dominator coverage; only its blocks change.
    """

    splitting_factor: int | None = None
    max_threads: int = 256

    def signature(self) -> dict:
        """Identity: the splitting factor and block size."""
        return {
            "pass": "split",
            "splitting_factor": self.splitting_factor,
            "max_threads": self.max_threads,
        }

    def run(self, plan, ctx, config, costs) -> ExecutionPlan:
        """Replace the dominator expansion phase with split sub-blocks."""
        classes = _classes(plan, "SplitPass")
        if not classes.n_dominators:
            return plan
        na, nb = plan.annotations["na"], plan.annotations["nb"]
        splan = plan_splitting(
            na, nb, classes.dominator, config.n_sms,
            factor_override=self.splitting_factor,
        )
        factor_of_block = np.repeat(splan.factors, splan.factors).astype(np.float64)
        blocks = outer_pair_blocks(
            splan.na, splan.nb, costs,
            max_threads=self.max_threads,
            extra_unique_bytes=8.0,  # mapper-array lookup per block
            shared_b_fraction=1.0 - 1.0 / factor_of_block,
        )
        plan.replace_phase(
            "expansion-dominator",
            PlanPhase(
                "expansion-dominator", PHASE_EXPANSION, blocks,
                covers=Coverage("pairs", classes.dominator),
            ),
        )
        plan.host_seconds += host_split_seconds(costs, splan.split_entries)
        plan.meta["n_split_blocks"] = splan.n_blocks
        plan.meta["split_factors"] = splan.factors.tolist()[:16]
        return plan


def gathered_blocks(gplan, costs) -> BlockArray:
    """Trace blocks for combined (gathered) micro-blocks."""
    builder = BlockArrayBuilder()
    if gplan.n_blocks == 0:
        return builder.build()
    bpe = costs.bytes_per_entry
    unique = (gplan.na_sum + gplan.nb_sum) * bpe
    reuse = gplan.ops * 8.0
    writes = gplan.ops * bpe
    # Partitions stream disjoint (but individually sequential) vectors, so a
    # combined block's traffic is the sum of its micro-blocks' traffic plus a
    # sector of slack per partition: gathering amortises launch, issue and
    # latency — not bandwidth.
    transactions = (unique + writes) / 32.0 + gplan.partitions
    builder.add_blocks(
        threads=32,
        effective_threads=gplan.effective_threads,
        iters=gplan.iters,
        ops=gplan.ops,
        unique_bytes=unique,
        reuse_bytes=reuse,
        write_bytes=writes,
        smem_bytes=1024,
        working_set=unique,
        transactions=transactions,
    )
    return builder.build()


@dataclass(frozen=True)
class GatherPass:
    """B-Gathering: combine underloaded pairs into warp-filling blocks.

    Gathering changes block shape only — which products are computed (and by
    which class phase) is unchanged, so the phase keeps its pair coverage and
    the executor's op check carries over to the combined blocks.
    """

    def signature(self) -> dict:
        """Identity: gathering takes no parameters."""
        return {"pass": "gather"}

    def run(self, plan, ctx, config, costs) -> ExecutionPlan:
        """Pack underloaded expansion blocks into full warps."""
        classes = _classes(plan, "GatherPass")
        if not classes.n_underloaded:
            return plan
        na, nb = plan.annotations["na"], plan.annotations["nb"]
        gplan = plan_gathering(na, nb, classes.underloaded)
        plan.replace_phase(
            "expansion-gathered",
            PlanPhase(
                "expansion-gathered", PHASE_EXPANSION, gathered_blocks(gplan, costs),
                covers=Coverage("pairs", classes.underloaded),
            ),
        )
        plan.meta["n_gathered_blocks"] = gplan.n_blocks
        return plan


@dataclass(frozen=True)
class LimitPass:
    """B-Limiting: cap merge-block residency on heavy output rows.

    The row split reads only ``ctx.row_work``; both merge phases defer their
    blocks, which need C's row counts, until they are read
    (:func:`~repro.spgemm.traceutil.ctx_merge_blocks`).
    """

    beta: float = 10.0
    limiting_factor: int = 4

    def signature(self) -> dict:
        """Identity: the beta threshold and limiting factor."""
        return {
            "pass": "limit",
            "beta": self.beta,
            "limiting_factor": self.limiting_factor,
        }

    def run(self, plan, ctx, config, costs) -> ExecutionPlan:
        """Cap merge-block residency on heavy rows via shared-memory padding."""
        mask = limited_row_mask(ctx.row_work, beta=self.beta)
        plan.meta["n_limited_rows"] = int(np.count_nonzero(mask))
        replacements: list[PlanPhase] = []
        if mask.any():
            smem = limiting_smem_bytes(4096, self.limiting_factor, config.smem_per_sm)
            heavy = partial(ctx_merge_blocks, ctx, costs, row_mask=mask, smem_bytes=smem)
            replacements.append(PlanPhase(
                "merge-limited", PHASE_MERGE, heavy, covers=Coverage("rows", mask)
            ))
        light = partial(ctx_merge_blocks, ctx, costs, row_mask=~mask)
        replacements.append(PlanPhase(
            "merge", PHASE_MERGE, light, covers=Coverage("rows", ~mask)
        ))
        plan.replace_phase("merge", *replacements)
        return plan

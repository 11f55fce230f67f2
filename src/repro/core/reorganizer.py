"""The Block Reorganizer (Section IV): the paper's contribution.

Pipeline: precalculate block-wise and row-wise workloads → classify pairs →
B-Split dominators → B-Gather low performers → expand → B-Limit heavy merge
rows → merge.  Every stage can be toggled independently (the Figure 10
ablation); with all three off, the trace degenerates to the outer-product
baseline's fixed-size blocks.

The class is a thin front over :mod:`repro.plan.passes`: lowering builds the
outer-product baseline plan and pushes it through a pass pipeline derived
from :class:`ReorganizerOptions` (see :func:`plan_pipeline`).  Classification
splits the expansion into per-class phases, whose positions become the
pairs' tie ranks in the numeric kernel; the technique passes reshape only
the thread-block descriptors the simulator consumes, each keeping its
phase's coverage — the paper's "same results as the original vector pairs"
— which the executor checks against the blocks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.errors import ConfigurationError
from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.gpusim.config import GPUConfig
    from repro.plan.ir import ExecutionPlan
    from repro.plan.passes import PlanPass

__all__ = [
    "ReorganizerOptions",
    "BlockReorganizer",
    "plan_pipeline",
    "options_from_pipeline",
]


@dataclass(frozen=True)
class ReorganizerOptions:
    """Tunables of the Block Reorganizer.

    Attributes:
        enable_splitting: apply B-Splitting to dominator pairs.
        enable_gathering: apply B-Gathering to underloaded pairs.
        enable_limiting: apply B-Limiting to heavy merge rows.
        alpha: dominator-threshold selectivity (Section IV-B).
        beta: merge-row-threshold selectivity (Section IV-D; paper value 10).
        splitting_factor: pin the per-dominator splitting factor (Figure 11
            sweep); None chooses the greedy power-of-two automatically.
        limiting_factor: extra-shared-memory steps of 6144 bytes (Figure 14
            sweep; paper settles on 4).
        max_threads: thread cap for appropriately-sized expansion blocks.
        baseline_threads: fixed block size used for categories whose
            technique is disabled (matches the outer-product baseline).
    """

    enable_splitting: bool = True
    enable_gathering: bool = True
    enable_limiting: bool = True
    alpha: float = 0.1
    beta: float = 10.0
    splitting_factor: int | None = None
    limiting_factor: int = 4
    max_threads: int = 256
    baseline_threads: int = 256

    def __post_init__(self) -> None:
        if self.max_threads < 32 or self.max_threads % 32:
            raise ConfigurationError("max_threads must be a positive multiple of 32")


def plan_pipeline(options: ReorganizerOptions) -> list["PlanPass"]:
    """The pass pipeline an option set denotes.

    ClassifyPass always leads (it publishes the pair classification the
    technique passes consume); each enabled technique appends its pass.
    Dropping a technique simply drops its pass — the Figure 10 ablation.
    """
    # Imported lazily: repro.plan.passes imports this package at module
    # scope, so a top-level import here would close an import cycle.
    from repro.plan.passes import ClassifyPass, GatherPass, LimitPass, SplitPass

    passes: list[PlanPass] = [
        ClassifyPass(
            alpha=options.alpha,
            max_threads=options.max_threads,
            baseline_threads=options.baseline_threads,
        )
    ]
    if options.enable_splitting:
        passes.append(
            SplitPass(
                splitting_factor=options.splitting_factor,
                max_threads=options.max_threads,
            )
        )
    if options.enable_gathering:
        passes.append(GatherPass())
    if options.enable_limiting:
        passes.append(
            LimitPass(beta=options.beta, limiting_factor=options.limiting_factor)
        )
    return passes


def options_from_pipeline(passes: Sequence["PlanPass"]) -> ReorganizerOptions:
    """Inverse of :func:`plan_pipeline`.

    Reconstructs the option set a pipeline came from.  Parameters of
    *disabled* techniques are unrecoverable (the pass that carried them is
    absent) and come back at their dataclass defaults — the round trip is
    exact whenever disabled techniques kept their defaults, which is how
    every ablation in the repo is expressed.
    """
    from repro.plan.passes import ClassifyPass, GatherPass, LimitPass, SplitPass

    if not passes or not isinstance(passes[0], ClassifyPass):
        raise ConfigurationError("pipeline must start with ClassifyPass")
    classify = passes[0]
    kwargs: dict = {
        "enable_splitting": False,
        "enable_gathering": False,
        "enable_limiting": False,
        "alpha": classify.alpha,
        "max_threads": classify.max_threads,
        "baseline_threads": classify.baseline_threads,
    }
    for p in passes[1:]:
        if isinstance(p, SplitPass):
            kwargs["enable_splitting"] = True
            kwargs["splitting_factor"] = p.splitting_factor
        elif isinstance(p, GatherPass):
            kwargs["enable_gathering"] = True
        elif isinstance(p, LimitPass):
            kwargs["enable_limiting"] = True
            kwargs["beta"] = p.beta
            kwargs["limiting_factor"] = p.limiting_factor
        else:
            raise ConfigurationError(f"unknown reorganizer pass: {p!r}")
    return ReorganizerOptions(**kwargs)


class BlockReorganizer(SpGEMMAlgorithm):
    """Outer-product spGEMM optimised with B-Splitting/Gathering/Limiting."""

    name = "block-reorganizer"

    def __init__(self, *args, options: ReorganizerOptions | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.options = options or ReorganizerOptions()

    def fingerprint(self) -> dict:
        """Identity for the result cache: base fields plus the option set."""
        fp = super().fingerprint()
        fp["options"] = dataclasses.asdict(self.options)
        return fp

    def pipeline(self) -> list["PlanPass"]:
        """The pass pipeline this instance lowers through."""
        return plan_pipeline(self.options)

    def plan_signature(self) -> dict:
        """Lowering identity: baseline scheme plus the pass pipeline."""
        return {
            "lowering": "outer-product",
            "passes": [p.signature() for p in self.pipeline()],
        }

    def lower(self, ctx: MultiplyContext, config: "GPUConfig") -> "ExecutionPlan":
        """Baseline outer-product plan pushed through the pass pipeline."""
        # Lazy for the same cycle reason as plan_pipeline: the spgemm package
        # initialises outerproduct after base, and loading it can re-enter
        # this module via repro.plan.passes.
        from repro.spgemm.outerproduct import OuterProductSpGEMM

        baseline = OuterProductSpGEMM(
            self.costs, fixed_block_size=self.options.baseline_threads
        )
        plan = baseline.lower(ctx, config)
        plan.algorithm = self.name
        for p in self.pipeline():
            with obs.span(f"reorganize.{p.signature()['pass']}", "plan") as sp:
                plan = p.run(plan, ctx, config, self.costs)
                sp.add(phases=len(plan.phases), ops=int(plan.total_ops()))
        return plan

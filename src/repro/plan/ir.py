"""The ExecutionPlan IR: one description of an spGEMM execution, two planes.

Historically every scheme maintained ``multiply()`` (numeric plane) and
``build_trace()`` (performance plane) as parallel hand-written code paths, so
nothing *structurally* guaranteed that the trace fed to the simulator
described the work the numeric plane actually performed.  The plan IR closes
that gap: a scheme lowers once to an :class:`ExecutionPlan` — an ordered list
of :class:`PlanPhase`, each carrying the thread-block descriptors of a kernel
launch *and* the :class:`Coverage` of the products that launch computes —
and the shared executors derive both planes from it:

* :meth:`ExecutionPlan.execute` first enforces, from the coverages alone,
  that each device expansion phase covers exactly as many products as its
  blocks account for (``blocks.total_ops``) and that the expansion phases
  cover every product exactly once — violations raise
  :class:`~repro.errors.PlanError` before any numeric work.  It then runs
  the one numeric kernel, :func:`repro.kernels.spgemm`, in the plan's
  expansion order with the plan's per-pair tie rank.
* :meth:`ExecutionPlan.to_trace` projects the device phases onto the
  simulator's :class:`~repro.gpusim.trace.KernelTrace`, stamping the plan's
  shape digest into the trace metadata so bench artifacts record which plan
  produced them.

The paper's techniques reshape thread blocks without changing what is
computed, so the numeric result depends on two plan properties only: the
expansion :attr:`~ExecutionPlan.order` (pair order for the outer-product
family, row order for Gustavson-style schemes) and the tie rank
(:meth:`ExecutionPlan.tie_rank`), which orders the sums of pairs expanded
by different phases.

Reorganisation techniques (B-Splitting and friends) are *passes* over plans —
see :mod:`repro.plan.passes`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import kernels, obs
from repro.errors import PlanError
from repro.gpusim.block import BlockArray
from repro.gpusim.trace import (
    PHASE_EXPANSION,
    PHASE_MERGE,
    PHASE_SETUP,
    KernelPhase,
    KernelTrace,
)
from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids a base<->plan cycle
    from repro.spgemm.base import MultiplyContext

__all__ = ["Coverage", "PlanPhase", "PhaseExecution", "ExecutionPlan"]

_STAGES = (PHASE_EXPANSION, PHASE_MERGE, PHASE_SETUP)
_AXES = ("all", "pairs", "rows")


@dataclass(frozen=True, eq=False)
class Coverage:
    """Which products of the expansion ``C-hat`` a phase computes.

    ``axis`` is ``"all"`` (every product), ``"pairs"`` (the products of the
    column/row pairs ``k`` with ``mask[k]``) or ``"rows"`` (the products
    landing in the output rows ``i`` with ``mask[i]``).
    """

    axis: str
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.axis not in _AXES:
            raise PlanError(f"unknown coverage axis {self.axis!r}")
        if (self.axis == "all") != (self.mask is None):
            raise PlanError("a mask goes with, and only with, 'pairs' or 'rows'")
        if self.mask is not None:
            object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))

    def ops(self, ctx: MultiplyContext) -> int:
        """How many products of ``ctx`` this coverage selects."""
        if self.mask is None:
            return ctx.total_work
        work = ctx.pair_work if self.axis == "pairs" else ctx.row_work
        if len(self.mask) != len(work):
            raise PlanError(
                f"{self.axis} coverage mask has {len(self.mask)} entries, "
                f"the problem has {len(work)}"
            )
        return int(work[self.mask].sum())

    def describe(self) -> str:
        """Short label for plan listings: ``all``, ``pairs 3/40``, ``rows 5/90``."""
        if self.mask is None:
            return "all"
        return f"{self.axis} {int(np.count_nonzero(self.mask))}/{len(self.mask)}"


class _Blocks:
    """:attr:`PlanPhase.blocks`: a :class:`BlockArray` or a zero-argument
    builder of one, called on the first read and replaced by its result.

    Class access raises :class:`AttributeError`, which tells
    :func:`dataclasses.dataclass` the field has no default.
    """

    def __get__(self, phase, owner=None) -> BlockArray:
        if phase is None:
            raise AttributeError("blocks")
        blocks = phase.__dict__["_blocks"]
        if callable(blocks):
            blocks = phase.__dict__["_blocks"] = blocks()
        return blocks

    def __set__(self, phase, blocks) -> None:
        phase.__dict__["_blocks"] = blocks


@dataclass
class PlanPhase:
    """One phase of a plan: a kernel launch and the products it computes.

    Attributes:
        name: human-readable label (e.g. ``"expansion-dominator"``).
        stage: coarse bucket — ``expansion``, ``merge`` or ``setup`` — shared
            with :class:`~repro.gpusim.trace.KernelPhase`.
        blocks: thread-block descriptors this launch dispatches (the
            performance plane's view of the phase).  A lowering may pass a
            zero-argument builder instead (a :func:`functools.partial`),
            called on the first read: the merge phases' blocks need C's
            row counts (``ctx.c_row_nnz``), which only the performance plane
            reads before the numeric run has counted them.
        covers: the products this phase computes (expansion) or merges
            (merge); its op count.  ``None`` for modelling-only phases that
            compute nothing.
        instr_override: per-warp-iteration instruction cost override,
            forwarded to the simulator phase.
        device: False for host-side phases (CPU schemes); host phases are
            executed numerically but omitted from the kernel trace and
            exempt from the block/op consistency check.
    """

    name: str
    stage: str
    blocks: BlockArray = _Blocks()
    covers: Coverage | None = None
    instr_override: float | None = None
    device: bool = True

    def __post_init__(self) -> None:
        if self.stage not in _STAGES:
            raise PlanError(f"unknown plan phase stage {self.stage!r}")


@dataclass(frozen=True)
class PhaseExecution:
    """Instrumentation record for one executed phase (numeric plane).

    ``ops`` is the number of products the phase covers, and
    ``bytes_touched`` the modelled global traffic of the phase's blocks
    (unique + reuse + write) — the counters :mod:`repro.metrics` aggregates
    into plan profiles.  The kernel runs as one expansion step and one merge
    step; ``seconds`` is a step's measured host wall time on the first phase
    of its stage and 0 on the others, so per-stage sums are measured times.
    """

    name: str
    stage: str
    device: bool
    n_blocks: int
    ops: int
    seconds: float
    bytes_touched: float


@dataclass
class ExecutionPlan:
    """A lowered spGEMM execution: ordered phases plus host/setup costs.

    Attributes:
        algorithm: name of the scheme that lowered to this plan.
        phases: kernel launches in dependency order.
        order: the numeric kernel's expansion order —
            :data:`~repro.kernels.PAIR_ORDER` (outer product) or
            :data:`~repro.kernels.ROW_ORDER` (Gustavson).  Each scheme's
            ``lower`` sets it; it decides which position an output entry's
            products sum in when A's rows store columns out of order.
        host_seconds: host-side preprocessing time.
        device_setup_cycles: device-side preprocessing cost in GPU cycles.
        meta: free-form diagnostics surfaced in bench output.
        annotations: pass-to-pass scratch space (classification masks and the
            like); never serialised and never part of the shape digest.
    """

    algorithm: str
    phases: list[PlanPhase] = field(default_factory=list)
    order: str = kernels.ROW_ORDER
    host_seconds: float = 0.0
    device_setup_cycles: float = 0.0
    meta: dict = field(default_factory=dict)
    annotations: dict = field(default_factory=dict)

    # -- structure -----------------------------------------------------
    @property
    def n_blocks(self) -> int:
        """Total thread blocks across every phase."""
        return sum(len(p.blocks) for p in self.phases)

    def total_ops(self) -> int:
        """Useful products across device expansion phases (GFLOPS basis)."""
        return sum(
            p.blocks.total_ops
            for p in self.phases
            if p.device and p.stage == PHASE_EXPANSION
        )

    def phase(self, name: str) -> PlanPhase:
        """Look up one phase by name."""
        for p in self.phases:
            if p.name == name:
                return p
        raise PlanError(f"plan for {self.algorithm!r} has no phase {name!r}")

    def replace_phase(self, name: str, *replacements: PlanPhase) -> None:
        """Splice ``replacements`` in place of the phase called ``name``."""
        for i, p in enumerate(self.phases):
            if p.name == name:
                self.phases[i : i + 1] = list(replacements)
                return
        raise PlanError(f"plan for {self.algorithm!r} has no phase {name!r}")

    def shape_digest(self) -> str:
        """Stable 16-hex digest of the plan's structure.

        Covers phase names, stages, block counts, op totals and overrides —
        enough to tell two differently-reorganised plans apart — but not the
        raw block columns, so the digest is cheap and insensitive to
        annotation scratch.  Stamped into trace metadata by
        :meth:`to_trace`.
        """
        shape = {
            "algorithm": self.algorithm,
            "phases": [
                {
                    "name": p.name,
                    "stage": p.stage,
                    "device": p.device,
                    "n_blocks": len(p.blocks),
                    "ops": int(p.blocks.ops.sum()),
                    "instr_override": p.instr_override,
                }
                for p in self.phases
            ],
        }
        blob = json.dumps(shape, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    # -- performance plane ---------------------------------------------
    def to_trace(self) -> KernelTrace:
        """Project the device phases onto a simulator kernel trace."""
        meta = dict(self.meta)
        meta["plan_shape"] = self.shape_digest()
        return KernelTrace(
            algorithm=self.algorithm,
            phases=[
                KernelPhase(p.name, p.stage, p.blocks, p.instr_override)
                for p in self.phases
                if p.device
            ],
            host_seconds=self.host_seconds,
            device_setup_cycles=self.device_setup_cycles,
            meta=meta,
        )

    # -- numeric plane ---------------------------------------------------
    def phase_ops(self, ctx: MultiplyContext) -> list[int]:
        """Products each phase covers, after enforcing the IR's invariant.

        Each device expansion phase must cover exactly ``blocks.total_ops``
        products, and the expansion phases together must cover every
        product of ``ctx`` exactly once.  Host phases are exempt from the
        block check only.  Raises :class:`~repro.errors.PlanError`.
        """
        ops = [0 if p.covers is None else p.covers.ops(ctx) for p in self.phases]
        covers = []
        for phase, n in zip(self.phases, ops):
            if phase.stage != PHASE_EXPANSION:
                continue
            if phase.device and n != phase.blocks.total_ops:
                raise PlanError(
                    f"{self.algorithm!r} phase {phase.name!r} covers {n} "
                    f"products but its blocks account for {phase.blocks.total_ops}"
                )
            if phase.covers is not None:
                covers.append(phase.covers)

        axes = {c.axis for c in covers} - {"all"}
        if len(axes) > 1:
            raise PlanError(f"{self.algorithm!r} expansion mixes pair and row coverage")
        axis = axes.pop() if axes else "pairs"
        work = ctx.pair_work if axis == "pairs" else ctx.row_work
        hits = np.zeros(len(work), dtype=np.int64)
        for c in covers:
            hits += 1 if c.mask is None else c.mask
        uncovered = int(work[hits == 0].sum())
        if uncovered:
            raise PlanError(
                f"{self.algorithm!r} expansion phases leave {uncovered} of "
                f"{ctx.total_work} products uncovered"
            )
        repeated = int(work[hits > 1].sum())
        if repeated:
            raise PlanError(
                f"{self.algorithm!r} expansion phases cover {repeated} products more than once"
            )
        return ops

    def tie_rank(self, n_pairs: int) -> np.ndarray | None:
        """Per-pair tie rank: the position of the expansion phase covering it.

        Only pair-subset phases rank their pairs (the Block Reorganizer's
        class phases: dominator, normal, gathered); ``None`` when every rank
        is 0, as for the other six schemes.
        """
        rank = None
        expansion = [p for p in self.phases if p.stage == PHASE_EXPANSION]
        for position, phase in enumerate(expansion):
            if position and phase.covers is not None and phase.covers.axis == "pairs":
                if rank is None:
                    rank = np.zeros(n_pairs, dtype=np.int64)
                rank[phase.covers.mask] = position
        return rank

    def run(
        self, ctx: MultiplyContext, *, gathers: bool = False
    ) -> tuple[CSRMatrix, list[int], dict[str, float], tuple | None]:
        """Check the invariant, then run the kernel.

        Returns ``(C, ops, seconds, recipe)``: the products each phase
        covers (:meth:`phase_ops`), each stage's measured step time (the
        kernel's expansion and merge steps, each summed over its row
        blocks), and, with ``gathers``, the ``(a_entries, counts, b_gather,
        group)`` arrays of a replay recipe (:mod:`repro.plan.cache`), else
        None.  It reads no phase's blocks, so a merge phase's deferred
        blocks stay unbuilt.

        The merge counts C's row entries, so a context whose
        :attr:`~repro.spgemm.base.MultiplyContext.c_row_nnz` nothing has
        read yet takes them from the result's ``indptr`` instead of running
        the symbolic pass; deferred blocks built later read them from there.
        """
        ops = self.phase_ops(ctx)
        rank = self.tie_rank(len(ctx.pair_work))
        seconds = {PHASE_EXPANSION: 0.0, PHASE_MERGE: 0.0}
        with obs.span("numeric.spgemm", "numeric") as sp:
            indptr, indices, data, captured = kernels.spgemm(
                ctx.a_csr, ctx.b_csr, self.order, rank, gathers=gathers, steps=seconds
            )
            sp.add(ops=ctx.total_work, nnz=len(indices))
        if "c_row_nnz" not in vars(ctx):
            ctx.c_row_nnz = np.diff(indptr)
        return CSRMatrix(ctx.out_shape, indptr, indices, data), ops, seconds, captured

    def execute(self, ctx: MultiplyContext) -> CSRMatrix:
        """Run the plan numerically; returns ``C``."""
        return self.run(ctx)[0]

    def execute_instrumented(
        self, ctx: MultiplyContext
    ) -> tuple[CSRMatrix, list[PhaseExecution]]:
        """Numeric execution with one instrumentation record per phase.

        The expansion step's time is recorded on the first expansion phase
        and the merge step's on the first merge phase.  The records read
        every phase's blocks, so they build any deferred merge blocks (from
        the row counts the run just stored); :meth:`execute` builds none.
        """
        result, ops, seconds, _ = self.run(ctx)
        records = [
            PhaseExecution(
                name=phase.name,
                stage=phase.stage,
                device=phase.device,
                n_blocks=len(phase.blocks),
                ops=n,
                seconds=seconds.pop(phase.stage, 0.0),
                bytes_touched=float(
                    phase.blocks.unique_bytes.sum()
                    + phase.blocks.reuse_bytes.sum()
                    + phase.blocks.write_bytes.sum()
                ),
            )
            for phase, n in zip(self.phases, ops)
        ]
        return result, records

"""The ExecutionPlan IR: one description of an spGEMM execution, two planes.

Historically every scheme maintained ``multiply()`` (numeric plane) and
``build_trace()`` (performance plane) as parallel hand-written code paths, so
nothing *structurally* guaranteed that the trace fed to the simulator
described the work the numeric plane actually performed.  The plan IR closes
that gap: a scheme lowers once to an :class:`ExecutionPlan` — an ordered list
of :class:`PlanPhase`, each carrying both the thread-block descriptors of a
kernel launch *and* the vectorised numeric kernel that performs the same
work — and the shared executors derive both planes from it:

* :meth:`ExecutionPlan.execute` runs the numeric kernels and enforces, per
  device expansion phase, that the kernel emitted exactly as many products as
  the phase's blocks account for (``blocks.total_ops``) — consistency by
  construction, violations raise :class:`~repro.errors.PlanError`.
* :meth:`ExecutionPlan.to_trace` projects the device phases onto the
  simulator's :class:`~repro.gpusim.trace.KernelTrace`, stamping the plan's
  shape digest into the trace metadata so bench artifacts record which plan
  produced them.

Numeric kernels are closures ``kernel(state) -> int`` over a
:class:`NumericState`, which owns the triplet stream and lazily caches the
two canonical expansions so that phases restricted to a pair/row subset cost
one mask application, not a re-expansion.

Reorganisation techniques (B-Splitting and friends) are *passes* over plans —
see :mod:`repro.plan.passes`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.errors import PlanError
from repro.gpusim.block import BlockArray
from repro.gpusim.trace import (
    PHASE_EXPANSION,
    PHASE_MERGE,
    PHASE_SETUP,
    KernelPhase,
    KernelTrace,
)

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids a base<->plan cycle
    from repro.sparse.csr import CSRMatrix
    from repro.spgemm.base import MultiplyContext

__all__ = ["NumericState", "PlanPhase", "PhaseExecution", "ExecutionPlan"]

_STAGES = (PHASE_EXPANSION, PHASE_MERGE, PHASE_SETUP)


class NumericState:
    """Mutable numeric-plane state threaded through a plan's kernels.

    Owns the stream of intermediate triplets the expansion kernels emit and
    the coalesced result the merge kernels produce.  The two canonical
    expansions are computed lazily and cached, so several phases that each
    expand a *subset* of pairs or rows share one vectorised expansion.

    With ``track_provenance=True`` the state additionally records, per
    emitted triplet, which stored entry of ``A`` and of ``B`` produced it
    (in ``a_csr``/``b_csr`` entry positions) and keeps the merge's
    :class:`~repro.spgemm.merge.MergeRecipe` — everything
    :mod:`repro.plan.cache` needs to replay the numeric plane on new values
    with the same sparsity structure without re-running any symbolic work.
    """

    def __init__(self, ctx: MultiplyContext, *, track_provenance: bool = False) -> None:
        self.ctx = ctx
        self.track_provenance = track_provenance
        #: False once any kernel emits without provenance; the capture layer
        #: then refuses to build a replay recipe from this execution.
        self.provenance_complete = track_provenance
        self._parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._prov: list[tuple[np.ndarray, np.ndarray]] = []
        self._outer: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._row: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._outer_src: tuple[np.ndarray, np.ndarray] | None = None
        self._row_src: tuple[np.ndarray, np.ndarray] | None = None
        self._csc_to_csr: np.ndarray | None = None
        self.merge_recipe = None  # set by coalesce() when tracking
        self.result: CSRMatrix | None = None

    # -- lazy canonical expansions -------------------------------------
    def outer_expansion(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """C-hat triplets in outer-product (pair) order, computed once."""
        if self._outer is None:
            from repro.spgemm.expansion import expand_outer, expand_outer_indices

            if self.track_provenance:
                rows, cols, a_idx, b_idx = expand_outer_indices(
                    self.ctx.a_csc, self.ctx.b_csr
                )
                self._outer = (
                    rows, cols, self.ctx.a_csc.data[a_idx] * self.ctx.b_csr.data[b_idx]
                )
                self._outer_src = (self._csc_positions_to_csr(a_idx), b_idx)
            else:
                self._outer = expand_outer(self.ctx.a_csc, self.ctx.b_csr)
        return self._outer

    def row_expansion(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """C-hat triplets in row-product (Gustavson) order, computed once."""
        if self._row is None:
            from repro.spgemm.expansion import expand_row, expand_row_indices

            if self.track_provenance:
                rows, cols, a_idx, b_idx = expand_row_indices(
                    self.ctx.a_csr, self.ctx.b_csr
                )
                self._row = (
                    rows, cols, self.ctx.a_csr.data[a_idx] * self.ctx.b_csr.data[b_idx]
                )
                self._row_src = (a_idx, b_idx)
            else:
                self._row = expand_row(self.ctx.a_csr, self.ctx.b_csr)
        return self._row

    # -- provenance ----------------------------------------------------
    def _csc_positions_to_csr(self, csc_idx: np.ndarray) -> np.ndarray:
        """Map stored-entry positions of ``a_csc`` to positions of ``a_csr``.

        Canonical formats have one stored entry per coordinate, so the map is
        the stable column sort :func:`~repro.sparse.convert.csr_to_csc`
        performs — a pure function of the structure, computed once.
        """
        if self._csc_to_csr is None:
            self._csc_to_csr = np.argsort(self.ctx.a_csr.indices, kind="stable")
        return self._csc_to_csr[csc_idx]

    def outer_sources(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Provenance of the outer expansion (csr-space), or ``(None, None)``."""
        if not self.track_provenance:
            return None, None
        self.outer_expansion()
        return self._outer_src

    def row_sources(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Provenance of the row expansion (csr-space), or ``(None, None)``."""
        if not self.track_provenance:
            return None, None
        self.row_expansion()
        return self._row_src

    # -- triplet stream ------------------------------------------------
    def emit(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        *,
        a_src: np.ndarray | None = None,
        b_src: np.ndarray | None = None,
        a_space: str = "csr",
    ) -> int:
        """Append expanded triplets to the stream; returns how many.

        ``a_src``/``b_src`` give each triplet's producing stored entry of
        ``A``/``B`` (``a_space`` names the A entry ordering, ``"csr"`` or
        ``"csc"``); they are recorded only when provenance tracking is on,
        and an emission without them marks the capture incomplete.
        """
        self._parts.append((rows, cols, vals))
        if self.track_provenance:
            if a_src is None or b_src is None:
                self.provenance_complete = False
            elif self.provenance_complete:
                if a_space == "csc":
                    a_src = self._csc_positions_to_csr(a_src)
                self._prov.append((a_src, b_src))
        return len(rows)

    @property
    def emitted(self) -> int:
        """Total triplets emitted so far (the executor's consistency meter)."""
        return sum(len(part[0]) for part in self._parts)

    def pending(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The emitted stream as three flat arrays (emission order)."""
        if not self._parts:
            zi = np.zeros(0, dtype=np.int64)
            return zi, zi.copy(), np.zeros(0, dtype=np.float64)
        if len(self._parts) > 1:
            merged = tuple(
                np.concatenate([part[i] for part in self._parts]) for i in range(3)
            )
            self._parts = [merged]  # type: ignore[list-item]
        return self._parts[0]

    def provenance(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The stream's ``(a_src, b_src)`` in emission order, if complete."""
        if not (self.track_provenance and self.provenance_complete):
            return None
        if not self._prov:
            zi = np.zeros(0, dtype=np.int64)
            return zi, zi.copy()
        if len(self._prov) > 1:
            self._prov = [tuple(
                np.concatenate([part[i] for part in self._prov]) for i in range(2)
            )]  # type: ignore[list-item]
        return self._prov[0]

    def sort_pending(self) -> int:
        """Stably sort the stream by output coordinate (ESC's sort step).

        A stable sort by flat key followed by the merge's own stable sort
        leaves duplicate-coordinate summation order unchanged, so schemes
        that model an explicit sort kernel stay bit-identical to a direct
        coalesce.
        """
        rows, cols, vals = self.pending()
        keys = rows.astype(np.int64) * np.int64(self.ctx.out_shape[1]) + cols
        order = np.argsort(keys, kind="stable")
        self._parts = [(rows[order], cols[order], vals[order])]
        prov = self.provenance()
        if prov is not None and len(prov[0]):
            self._prov = [(prov[0][order], prov[1][order])]
        return len(rows)

    def coalesce(self) -> CSRMatrix:
        """Merge the emitted stream into canonical CSR (idempotent)."""
        if self.result is None:
            from repro.sparse.csr import CSRMatrix
            from repro.spgemm.merge import plan_merge

            rows, cols, vals = self.pending()
            if len(rows) == 0:
                self.result = CSRMatrix.empty(self.ctx.out_shape)
            else:
                recipe = plan_merge(rows, cols, self.ctx.out_shape)
                self.result = recipe.apply(vals)
                if self.track_provenance:
                    self.merge_recipe = recipe
        return self.result


@dataclass
class PlanPhase:
    """One phase of a plan: a kernel launch and the numeric work it does.

    Attributes:
        name: human-readable label (e.g. ``"expansion-dominator"``).
        stage: coarse bucket — ``expansion``, ``merge`` or ``setup`` — shared
            with :class:`~repro.gpusim.trace.KernelPhase`.
        blocks: thread-block descriptors this launch dispatches (the
            performance plane's view of the phase).
        kernel: vectorised numeric kernel ``kernel(state) -> int`` performing
            the phase's work on a :class:`NumericState`; returns the op count
            it performed (instrumentation).  ``None`` for modelling-only
            phases with no numeric effect.
        instr_override: per-warp-iteration instruction cost override,
            forwarded to the simulator phase.
        device: False for host-side phases (CPU schemes); host phases are
            executed numerically but omitted from the kernel trace and
            exempt from the block/op consistency check.
    """

    name: str
    stage: str
    blocks: BlockArray
    kernel: Callable[[NumericState], int] | None = None
    instr_override: float | None = None
    device: bool = True

    def __post_init__(self) -> None:
        if self.stage not in _STAGES:
            raise PlanError(f"unknown plan phase stage {self.stage!r}")


@dataclass(frozen=True)
class PhaseExecution:
    """Instrumentation record for one executed phase (numeric plane).

    ``ops`` is what the kernel reported doing, ``seconds`` the measured host
    wall time of the vectorised kernel, and ``bytes_touched`` the modelled
    global traffic of the phase's blocks (unique + reuse + write) — the
    counters :mod:`repro.metrics` aggregates into plan profiles.
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
        host_seconds: host-side preprocessing time.
        device_setup_cycles: device-side preprocessing cost in GPU cycles.
        meta: free-form diagnostics surfaced in bench output.
        annotations: pass-to-pass scratch space (classification masks and the
            like); never serialised and never part of the shape digest.
    """

    algorithm: str
    phases: list[PlanPhase] = field(default_factory=list)
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
    def execute(self, ctx: MultiplyContext) -> CSRMatrix:
        """Run the numeric kernels in phase order and coalesce the result."""
        return self.execute_instrumented(ctx)[0]

    def execute_instrumented(
        self, ctx: MultiplyContext, state: NumericState | None = None
    ) -> tuple[CSRMatrix, list[PhaseExecution]]:
        """Numeric execution with per-phase instrumentation records.

        Enforces the IR's core invariant: a device expansion phase's kernel
        must emit exactly ``blocks.total_ops`` products.  An externally built
        ``state`` (e.g. one tracking provenance for the plan cache) may be
        supplied; it must wrap the same ``ctx``.
        """
        if state is None:
            state = NumericState(ctx)
        records: list[PhaseExecution] = []
        for phase in self.phases:
            with obs.span(f"numeric.phase[{phase.name}]", phase.stage) as sp:
                before = state.emitted
                start = time.perf_counter()
                ops = phase.kernel(state) if phase.kernel is not None else 0
                seconds = time.perf_counter() - start
                if phase.device and phase.stage == PHASE_EXPANSION:
                    emitted = state.emitted - before
                    expected = phase.blocks.total_ops
                    if emitted != expected:
                        raise PlanError(
                            f"{self.algorithm!r} phase {phase.name!r} emitted "
                            f"{emitted} products but its blocks account for {expected}"
                        )
                sp.add(ops=int(ops), blocks=len(phase.blocks))
            records.append(
                PhaseExecution(
                    name=phase.name,
                    stage=phase.stage,
                    device=phase.device,
                    n_blocks=len(phase.blocks),
                    ops=int(ops),
                    seconds=seconds,
                    bytes_touched=float(
                        phase.blocks.unique_bytes.sum()
                        + phase.blocks.reuse_bytes.sum()
                        + phase.blocks.write_bytes.sum()
                    ),
                )
            )
        with obs.span("numeric.coalesce", PHASE_MERGE) as sp:
            result = state.coalesce()
            sp.add(nnz=result.nnz)
        return result, records

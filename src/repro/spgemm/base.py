"""Algorithm interface: every spGEMM scheme has a numeric and a performance plane.

:class:`MultiplyContext` packages one multiplication problem (operands in the
formats the kernels read, plus the precalculated workload vectors the paper's
Section IV-B computes).  An algorithm then offers:

* ``lower(ctx, config)`` — the one scheme-specific hook: lower the problem
  to an :class:`~repro.plan.ir.ExecutionPlan`, whose phases carry both the
  thread-block descriptors and the products each launch covers, and which
  names the numeric kernel's expansion order.
* ``multiply(ctx)`` — the numeric plane: a thin executor over the plan.
* ``build_trace(ctx, config)`` — the performance plane: the plan's device
  phases projected onto a :class:`~repro.gpusim.trace.KernelTrace`.
* ``run(ctx, simulator)`` — both, conveniently.

Because both planes derive from one plan, the trace describes exactly the
work the numeric plane performs — the executor enforces it per phase.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.errors import FingerprintError, SparseFormatError
from repro.gpusim.config import TITAN_XP, GPUConfig
from repro.gpusim.costs import DEFAULT_COSTS, CostModel
from repro.gpusim.simulator import GPUSimulator
from repro.gpusim.stats import KernelStats
from repro.gpusim.trace import KernelTrace
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import check_multipliable
from repro.spgemm.expansion import expand_outer
from repro.spgemm.merge import merge_triplets, symbolic_row_nnz

if TYPE_CHECKING:  # pragma: no cover - type-only; plan imports stay lazy here
    from repro.plan.cache import PlanCache
    from repro.plan.ir import ExecutionPlan, PhaseExecution

__all__ = [
    "DEFAULT_LOWERING_CONFIG",
    "MultiplyContext",
    "SpGEMMAlgorithm",
    "validate_operands",
]


def validate_operands(a: CSRMatrix | CSCMatrix, b: CSRMatrix | CSCMatrix) -> None:
    """Structural validation of a multiply's operands, naming the offender.

    Called at the ``multiply()`` boundaries so malformed operands raise
    :class:`~repro.errors.SparseFormatError` (with the offending operand and
    field named) instead of surfacing as a deep NumPy ``IndexError`` from an
    expansion kernel.  Plan-cache structure hits never reach this check: a
    hit means the identical structure already validated on its cold path.
    """
    for which, matrix in (("A", a), ("B", b)):
        try:
            matrix.validate()
        except SparseFormatError as exc:
            raise SparseFormatError(
                f"operand {which} ({type(matrix).__name__}): {exc}"
            ) from None

#: Target used when lowering for the numeric plane alone.  The numeric result
#: must not depend on the simulated GPU; the only lowering decision that reads
#: the config on the numeric side is B-Splitting's factor choice (via
#: ``n_sms``), pinned here to the paper's primary system for determinism.
DEFAULT_LOWERING_CONFIG = TITAN_XP


@dataclass
class MultiplyContext:
    """One multiplication problem plus its precalculated workload vectors.

    The vectors mirror the paper's precalculation step: ``pair_work`` is the
    block-wise nnz of the outer-product formulation, ``row_work`` the row-wise
    nnz used by the merge model and B-Limiting.  Every vector reads A in CSR:
    the CSC copy (:attr:`a_csc`) is built only for the reference product.
    Operands are taken as given; every caller in the library validates them
    first (:func:`validate_operands`) or builds them from a catalog dataset.
    """

    a_csr: CSRMatrix
    b_csr: CSRMatrix

    @classmethod
    def build(
        cls, a: CSRMatrix, b: CSRMatrix | None = None, a_csc: CSCMatrix | None = None
    ) -> "MultiplyContext":
        """Build a context for ``a @ b`` (``b`` defaults to ``a``: C = A^2).

        ``a_csc`` is A's CSC form when the caller already holds one (the
        dataset loader does); otherwise :attr:`a_csc` converts on first use.
        """
        b = a if b is None else b
        check_multipliable(a.shape, b.shape)
        ctx = cls(a_csr=a, b_csr=b)
        if a_csc is not None:
            ctx.a_csc = a_csc
        return ctx

    @cached_property
    def a_csc(self) -> CSCMatrix:
        """A in CSC, converted on first use: only :attr:`reference_c` and the
        dataset tools read it."""
        return self.a_csr.to_csc()

    # ------------------------------------------------------------------
    # Precalculated workloads (Section IV-B)
    # ------------------------------------------------------------------
    @cached_property
    def a_col_nnz(self) -> np.ndarray:
        """Stored entries per column of A, ``nnz(a_{*k})``, counted from CSR."""
        return np.bincount(self.a_csr.indices, minlength=self.a_csr.n_cols)

    @cached_property
    def pair_work(self) -> np.ndarray:
        """Products per column/row pair k — the block-wise nnz."""
        return self.a_col_nnz * self.b_csr.row_nnz()

    @property
    def total_work(self) -> int:
        """nnz(C-hat): total intermediate products."""
        return int(self.pair_work.sum())

    @cached_property
    def row_work(self) -> np.ndarray:
        """Intermediate products landing in each output row — row-wise nnz."""
        from repro.plan.estimate import row_flops

        return row_flops(self.a_csr, self.b_csr)

    @cached_property
    def reference_c(self) -> CSRMatrix:
        """The exact product via outer expansion + merge, computed lazily.

        Only value consumers (tests, benchmark oracles) read it; the symbolic
        pass (:attr:`c_row_nnz`) and lowering never do.
        """
        rows, cols, vals = expand_outer(self.a_csc, self.b_csr)
        return merge_triplets(rows, cols, vals, self.out_shape)

    @cached_property
    def c_row_nnz(self) -> np.ndarray:
        """Unique output coordinates per row (the symbolic multiply).

        Only the performance plane's cost model reads it: the merge phases'
        blocks, which lowering defers until they are read, and bhSPARSE's
        row bins.  A numeric run fills it for free —
        :meth:`~repro.plan.ir.ExecutionPlan.run` stores the merged result's
        row counts here when nothing has read it yet — so a cold multiply
        never counts C twice.  Read before that, it runs the structure-only
        symbolic pass, :func:`~repro.spgemm.merge.symbolic_row_nnz`: no
        values, no expansion, no merge.  Both give ``reference_c.row_nnz()``:
        the merge keeps explicit zeros, so stored entries are unique
        coordinates.
        """
        return symbolic_row_nnz(self.a_csr, self.b_csr, self.row_work)

    @property
    def out_shape(self) -> tuple[int, int]:
        return (self.a_csr.n_rows, self.b_csr.n_cols)

    @property
    def nnz_c(self) -> int:
        return int(self.c_row_nnz.sum())


class SpGEMMAlgorithm(abc.ABC):
    """Base class for every spGEMM scheme in the library."""

    #: short identifier used in bench tables ("row-product", "cusparse", ...)
    name: str = "abstract"

    #: False for stateful/tuned schemes whose output is not a pure function of
    #: their constructor parameters; those bypass the persistent result cache.
    fingerprintable: bool = True

    def __init__(self, costs: CostModel = DEFAULT_COSTS) -> None:
        self.costs = costs

    def fingerprint(self) -> dict:
        """JSON-able identity of everything that affects this scheme's output.

        Subclasses with extra tunables (e.g. the Block Reorganizer's
        :class:`ReorganizerOptions`) must extend the returned dict; schemes
        whose behaviour is not a pure function of constructor parameters set
        ``fingerprintable = False`` instead.
        """
        if not self.fingerprintable:
            raise FingerprintError(
                f"{self.name!r} results are not content-addressable"
            )
        return {
            "class": type(self).__name__,
            "name": self.name,
            "costs": dataclasses.asdict(self.costs),
            "plan": self.plan_signature(),
        }

    def plan_signature(self) -> dict:
        """JSON-able identity of the scheme's lowering pipeline.

        Folded into :meth:`fingerprint` so a reorganised pass pipeline (or a
        new lowering) orphans cached bench cells.  Schemes composed of plan
        passes extend the ``passes`` list with each pass's ``signature()``.
        """
        return {"lowering": type(self).__name__, "passes": []}

    @abc.abstractmethod
    def lower(self, ctx: MultiplyContext, config: GPUConfig) -> ExecutionPlan:
        """Lower this problem to an :class:`~repro.plan.ir.ExecutionPlan`.

        The single scheme-specific hook: the returned plan carries both the
        thread blocks launched on ``config`` and, per phase, the products
        they compute; it also sets the numeric kernel's expansion order.
        """

    def lower_traced(self, ctx: MultiplyContext, config: GPUConfig) -> ExecutionPlan:
        """:meth:`lower` wrapped in an observability span (shared entry).

        Every executor path (``multiply``, ``build_trace``, ``profile_plan``
        and the plan cache's cold path) lowers through this hook so the
        trace's ``plan.lower[...]`` node counts lowerings exactly once each,
        with phase and op counters attached.  It counts no blocks: that
        would build the deferred merge-phase blocks, and with them the
        symbolic pass, on paths that never read them (the simulator's
        ``gpusim.run[...]`` span counts them).
        """
        with obs.span(f"plan.lower[{self.name}]", "plan") as sp:
            plan = self.lower(ctx, config)
            sp.add(phases=len(plan.phases), ops=int(plan.total_ops()))
        return plan

    def multiply(
        self,
        ctx: MultiplyContext,
        *,
        plan_cache: "PlanCache | None" = None,
    ) -> CSRMatrix:
        """Compute ``A @ B`` exactly, by executing the lowered plan.

        With a :class:`~repro.plan.cache.PlanCache`, a repeat multiply whose
        operands have a previously seen sparsity structure skips lowering and
        all symbolic work, replaying only the numeric phase (bit-identical).
        Operands are structurally validated at this boundary (the plan
        cache's replay fast path skips re-validation of known structures).
        """
        if plan_cache is not None:
            return plan_cache.multiply(self, ctx.a_csr, ctx.b_csr, ctx=ctx)
        validate_operands(ctx.a_csr, ctx.b_csr)
        return self.lower_traced(ctx, DEFAULT_LOWERING_CONFIG).execute(ctx)

    def build_trace(self, ctx: MultiplyContext, config: GPUConfig) -> KernelTrace:
        """Describe the thread blocks this scheme launches on ``config``."""
        return self.lower_traced(ctx, config).to_trace()

    def profile_plan(
        self, ctx: MultiplyContext, config: GPUConfig | None = None
    ) -> tuple[CSRMatrix, list[PhaseExecution]]:
        """Numeric execution with per-phase instrumentation records."""
        plan = self.lower_traced(
            ctx, config if config is not None else DEFAULT_LOWERING_CONFIG
        )
        return plan.execute_instrumented(ctx)

    def run(
        self, ctx: MultiplyContext, simulator: GPUSimulator
    ) -> tuple[CSRMatrix, KernelStats]:
        """Numeric result + simulated profile in one call."""
        c = self.multiply(ctx)
        stats = simulator.run(self.build_trace(ctx, simulator.config))
        return c, stats

    def simulate(self, ctx: MultiplyContext, simulator: GPUSimulator) -> KernelStats:
        """Simulated profile only (benches reuse the shared numeric result)."""
        return simulator.run(self.build_trace(ctx, simulator.config))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"

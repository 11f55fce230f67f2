"""ExecutionPlan IR mechanics, the executor's consistency invariant, the
merge phases' deferred blocks, and the reorganizer's pass-pipeline round
trip."""

import dataclasses

import numpy as np
import pytest

from repro import kernels
from repro.bench.runner import paper_algorithms
from repro.core.reorganizer import (
    BlockReorganizer,
    ReorganizerOptions,
    options_from_pipeline,
    plan_pipeline,
)
from repro.errors import ConfigurationError, PlanError
from repro.gpusim.block import BlockArray
from repro.gpusim.config import TITAN_XP
from repro.gpusim.simulator import GPUSimulator
from repro.oocore import chunked_multiply
from repro.plan.cache import PlanCache
from repro.plan import passes
from repro.plan.ir import Coverage, ExecutionPlan, PlanPhase
from repro.plan.passes import ClassifyPass, GatherPass, LimitPass, SplitPass
from repro.sparse.csr import CSRMatrix
from repro.spgemm import outerproduct, rowproduct
from repro.spgemm.base import MultiplyContext
from repro.spgemm.libraries import MklSpGEMM
from repro.spgemm.outerproduct import OuterProductSpGEMM

from .oracle import assert_identical, assert_scipy_product, drop_zeros, scipy_product

SCHEMES = [algo.name for algo in paper_algorithms()]

#: Merge phases whose blocks each scheme's lowering defers (the others
#: build every phase's blocks while lowering).
DEFERRED_MERGE_PHASES = {"row-product": 1, "outer-product": 1, "block-reorganizer": 2}


def _scheme(name):
    return next(algo for algo in paper_algorithms() if algo.name == name)


@pytest.fixture
def ctx(square_csr):
    return MultiplyContext.build(square_csr)


@pytest.fixture
def skewed_ctx(skewed_csr):
    return MultiplyContext.build(skewed_csr)


class TestPlanPhase:
    def test_rejects_unknown_stage(self):
        with pytest.raises(PlanError):
            PlanPhase("bogus", "transmogrify", BlockArray.empty())


class TestExecutionPlanStructure:
    def test_phase_lookup(self, ctx):
        plan = OuterProductSpGEMM().lower(ctx, TITAN_XP)
        assert plan.phase("expansion").stage == "expansion"
        with pytest.raises(PlanError):
            plan.phase("nonexistent")

    def test_replace_phase_splices(self, ctx):
        plan = OuterProductSpGEMM().lower(ctx, TITAN_XP)
        merge = plan.phase("merge")
        a = PlanPhase("merge-a", "merge", merge.blocks, covers=merge.covers)
        b = PlanPhase("merge-b", "merge", BlockArray.empty())
        plan.replace_phase("merge", a, b)
        assert [p.name for p in plan.phases] == ["expansion", "merge-a", "merge-b"]
        with pytest.raises(PlanError):
            plan.replace_phase("merge", a)
        _, records = plan.execute_instrumented(ctx)
        assert [r.ops for r in records] == [ctx.total_work, ctx.total_work, 0]

    def test_shape_digest_reflects_structure(self, ctx):
        algo = OuterProductSpGEMM()
        plan = algo.lower(ctx, TITAN_XP)
        again = algo.lower(ctx, TITAN_XP)
        assert plan.shape_digest() == again.shape_digest()
        again.replace_phase("merge")  # drop the merge phase entirely
        assert plan.shape_digest() != again.shape_digest()

    def test_trace_carries_plan_shape(self, ctx):
        plan = OuterProductSpGEMM().lower(ctx, TITAN_XP)
        trace = plan.to_trace()
        assert trace.meta["plan_shape"] == plan.shape_digest()

    def test_plan_shape_reaches_simulated_stats(self, ctx):
        stats = OuterProductSpGEMM().simulate(ctx, GPUSimulator(TITAN_XP))
        assert "plan_shape" in stats.meta


def _two_pair_phases(plan, first, second):
    """Replace the expansion with two host phases covering the pair masks
    (host phases skip the block check, so only the coverage is tested)."""
    plan.replace_phase(
        "expansion",
        PlanPhase("first", "expansion", BlockArray.empty(), Coverage("pairs", first), device=False),
        PlanPhase("second", "expansion", BlockArray.empty(), Coverage("pairs", second), device=False),
    )


class TestExecutorInvariant:
    def test_uncovered_products_raise(self, ctx):
        plan = OuterProductSpGEMM().lower(ctx, TITAN_XP)
        half = np.arange(len(ctx.pair_work)) % 2 == 0
        _two_pair_phases(plan, half, np.zeros_like(half))
        with pytest.raises(PlanError, match="uncovered"):
            plan.execute(ctx)

    def test_overlapping_coverage_raises(self, ctx):
        plan = OuterProductSpGEMM().lower(ctx, TITAN_XP)
        everything = ctx.pair_work >= 0
        _two_pair_phases(plan, everything, ctx.pair_work > 0)
        with pytest.raises(PlanError, match="more than once"):
            plan.execute(ctx)

    def test_disjoint_pair_phases_rank_and_match(self, ctx):
        """Two host phases partitioning the pairs pass the check; the second
        ranks its pairs 1, and the product is still exact."""
        plan = OuterProductSpGEMM().lower(ctx, TITAN_XP)
        half = np.arange(len(ctx.pair_work)) % 2 == 0
        _two_pair_phases(plan, half, ~half)
        rank = plan.tie_rank(len(half))
        np.testing.assert_array_equal(rank, (~half).astype(np.int64))
        want = scipy_product(ctx.a_csr, ctx.b_csr, rank)
        assert_identical(drop_zeros(plan.execute(ctx)), want)

    def test_mixed_coverage_axes_raise(self, ctx):
        plan = OuterProductSpGEMM().lower(ctx, TITAN_XP)
        empty = BlockArray.empty()
        plan.replace_phase(
            "expansion",
            PlanPhase("p", "expansion", empty, Coverage("pairs", ctx.pair_work > 0), device=False),
            PlanPhase("r", "expansion", empty, Coverage("rows", ctx.row_work < 0), device=False),
        )
        with pytest.raises(PlanError, match="mixes"):
            plan.execute(ctx)

    def test_mask_length_checked(self, ctx):
        plan = OuterProductSpGEMM().lower(ctx, TITAN_XP)
        plan.phase("merge").covers = Coverage("rows", np.ones(3, dtype=bool))
        with pytest.raises(PlanError, match="mask has 3 entries"):
            plan.execute(ctx)

    def test_empty_plan_coalesces_to_empty(self, ctx, square_csr):
        """A plan without phases covers nothing: an error on a problem with
        products, an empty C only on one without."""
        plan = ExecutionPlan(algorithm="noop")
        with pytest.raises(PlanError, match="uncovered"):
            plan.execute(ctx)
        empty = MultiplyContext.build(CSRMatrix.empty(square_csr.shape))
        c = plan.execute(empty)
        assert c.nnz == 0
        assert c.shape == square_csr.shape

    def test_tampered_blocks_raise(self, ctx):
        plan = OuterProductSpGEMM().lower(ctx, TITAN_XP)
        exp = plan.phase("expansion")
        exp.blocks = exp.blocks.select(np.arange(len(exp.blocks)) < len(exp.blocks) - 1)
        with pytest.raises(PlanError):
            plan.execute(ctx)

    def test_instrumented_execution_records_all_phases(self, ctx):
        result, records = OuterProductSpGEMM().profile_plan(ctx)
        assert_scipy_product(result, ctx.a_csr, ctx.b_csr)
        assert [r.name for r in records] == ["expansion", "merge"]
        assert records[0].ops == ctx.total_work
        assert all(r.seconds >= 0.0 for r in records)

    def test_step_time_lands_on_first_phase_of_its_stage(self, skewed_ctx):
        """The kernel is timed as one expansion and one merge step; later
        phases of a stage record 0 while keeping their own op counts."""
        _, records = BlockReorganizer().profile_plan(skewed_ctx)
        for stage in ("expansion", "merge"):
            staged = [r for r in records if r.stage == stage]
            assert staged[0].seconds > 0.0
            assert all(r.seconds == 0.0 for r in staged[1:])
        expansion = [r.ops for r in records if r.stage == "expansion"]
        assert sum(expansion) == skewed_ctx.total_work


class TestHostPlans:
    def test_mkl_phases_are_host_side(self, ctx):
        plan = MklSpGEMM().lower(ctx, TITAN_XP)
        assert all(not p.device for p in plan.phases)
        assert plan.total_ops() == 0  # device ops only
        trace = plan.to_trace()
        assert trace.phases == []
        assert trace.host_seconds > 0
        assert_scipy_product(plan.execute(ctx), ctx.a_csr, ctx.b_csr, MklSpGEMM())


class TestDeferredBlocks:
    """Merge phases build their blocks when first read, from C's row counts:
    a numeric run takes those from the kernel, so only the performance plane
    (and bhSPARSE's lowering, whose row bins read them) runs the symbolic
    pass, and no path converts A to CSC."""

    @pytest.mark.parametrize("path", ["plan-cache", "multiply", "chunked"])
    @pytest.mark.parametrize("name", SCHEMES)
    def test_cold_multiply_runs_no_symbolic_pass_or_csc_copy(
        self, name, path, skewed_csr, monkeypatch
    ):
        calls = {"symbolic": 0, "to_csc": 0}
        symbolic, to_csc = kernels.row_nnz, CSRMatrix.to_csc

        def counting_symbolic(*args, **kwargs):
            calls["symbolic"] += 1
            return symbolic(*args, **kwargs)

        def counting_to_csc(self):
            calls["to_csc"] += 1
            return to_csc(self)

        monkeypatch.setattr(kernels, "row_nnz", counting_symbolic)
        monkeypatch.setattr(CSRMatrix, "to_csc", counting_to_csc)
        algo, a = _scheme(name), skewed_csr
        if path == "plan-cache":
            c = PlanCache(algo).multiply(a, a)
        elif path == "multiply":
            c = algo.multiply(MultiplyContext.build(a, a))
        else:
            c, _ = chunked_multiply(algo, a, a, mem_budget="256K")
        assert calls == {"symbolic": int(name == "bhsparse"), "to_csc": 0}
        monkeypatch.undo()
        assert_scipy_product(c, a, a, algo)

    @pytest.mark.parametrize("name", SCHEMES)
    def test_numeric_runs_build_no_merge_blocks(self, name, skewed_csr, monkeypatch):
        """A cold plan-cache miss, ``multiply`` and ``execute()`` read no
        phase's blocks, so the deferred merge blocks stay unbuilt; only the
        instrumented run's records build them, once per deferred phase."""
        calls = []
        for module in (outerproduct, rowproduct, passes):
            def counting(*args, _build=module.ctx_merge_blocks, **kwargs):
                calls.append(1)
                return _build(*args, **kwargs)

            monkeypatch.setattr(module, "ctx_merge_blocks", counting)
        algo, a = _scheme(name), skewed_csr
        PlanCache(algo).multiply(a, a)
        algo.multiply(MultiplyContext.build(a, a))
        ctx = MultiplyContext.build(a, a)
        plan = algo.lower(ctx, TITAN_XP)
        deferred = sum(callable(vars(phase)["_blocks"]) for phase in plan.phases)
        plan.execute(ctx)
        assert calls == []
        plan.execute_instrumented(ctx)
        assert len(calls) == deferred
        assert deferred == DEFERRED_MERGE_PHASES.get(name, 0)

    @pytest.mark.parametrize("name", SCHEMES)
    def test_trace_after_numeric_run_equals_symbolic_trace(self, name, skewed_csr):
        """A plan whose deferred blocks read the kernel's row counts projects
        the same trace as one lowered after the symbolic pass."""
        algo = _scheme(name)
        ran = MultiplyContext.build(skewed_csr)
        plan = algo.lower(ran, TITAN_XP)
        plan.execute(ran)
        fresh = MultiplyContext.build(skewed_csr)
        fresh.c_row_nnz
        got, want = plan.to_trace(), algo.lower(fresh, TITAN_XP).to_trace()
        assert got.meta["plan_shape"] == want.meta["plan_shape"]
        assert [(p.name, p.stage) for p in got.phases] == [
            (p.name, p.stage) for p in want.phases
        ]
        for mine, theirs in zip(got.phases, want.phases):
            for column in dataclasses.fields(BlockArray):
                np.testing.assert_array_equal(
                    getattr(mine.blocks, column.name), getattr(theirs.blocks, column.name)
                )

    def test_blocks_built_once_on_first_read(self):
        built = []

        def build():
            built.append(1)
            return BlockArray.empty()

        phase = PlanPhase("merge", "merge", build)
        assert built == []
        assert phase.blocks is phase.blocks
        assert built == [1]


OPTION_SETS = [
    ReorganizerOptions(),
    ReorganizerOptions(enable_splitting=False),
    ReorganizerOptions(enable_gathering=False),
    ReorganizerOptions(enable_limiting=False),
    ReorganizerOptions(
        enable_splitting=False, enable_gathering=False, enable_limiting=False
    ),
    ReorganizerOptions(alpha=0.3, beta=5.0, splitting_factor=4, limiting_factor=2),
    ReorganizerOptions(max_threads=128, baseline_threads=512),
]


class TestPassPipeline:
    @pytest.mark.parametrize("options", OPTION_SETS)
    def test_options_round_trip(self, options):
        assert options_from_pipeline(plan_pipeline(options)) == options

    @pytest.mark.parametrize("options", OPTION_SETS)
    def test_round_trip_preserves_fingerprint(self, options):
        original = BlockReorganizer(options=options)
        rebuilt = BlockReorganizer(
            options=options_from_pipeline(plan_pipeline(options))
        )
        assert rebuilt.fingerprint() == original.fingerprint()

    def test_pipeline_shape_matches_options(self):
        passes = plan_pipeline(ReorganizerOptions(enable_gathering=False))
        assert [type(p) for p in passes] == [ClassifyPass, SplitPass, LimitPass]
        assert isinstance(plan_pipeline(ReorganizerOptions())[2], GatherPass)

    def test_rejects_headless_pipeline(self):
        with pytest.raises(ConfigurationError):
            options_from_pipeline([GatherPass()])

    def test_ablation_is_pass_removal(self, skewed_ctx):
        """Dropping a pass yields the same plan as disabling its option."""
        full = BlockReorganizer(options=ReorganizerOptions())
        ablated = BlockReorganizer(options=ReorganizerOptions(enable_splitting=False))
        assert len(full.pipeline()) == len(ablated.pipeline()) + 1
        assert (
            full.lower(skewed_ctx, TITAN_XP).shape_digest()
            != ablated.lower(skewed_ctx, TITAN_XP).shape_digest()
        )

    def test_plan_signature_lists_passes(self):
        sig = BlockReorganizer(options=ReorganizerOptions()).plan_signature()
        assert sig["lowering"] == "outer-product"
        assert [p["pass"] for p in sig["passes"]] == [
            "classify", "split", "gather", "limit",
        ]

    def test_technique_pass_requires_classification(self, skewed_ctx):
        plan = OuterProductSpGEMM().lower(skewed_ctx, TITAN_XP)
        with pytest.raises(PlanError):
            GatherPass().run(plan, skewed_ctx, TITAN_XP, OuterProductSpGEMM().costs)


class TestCustomPass:
    def test_external_pass_composes(self, skewed_ctx):
        """A pass defined outside the repo's pipeline slots straight in."""

        class TagPass:
            def signature(self):
                return {"pass": "tag"}

            def run(self, plan, ctx, config, costs):
                plan.meta["tagged"] = True
                return plan

        algo = BlockReorganizer()
        plan = algo.lower(skewed_ctx, TITAN_XP)
        plan = TagPass().run(plan, skewed_ctx, TITAN_XP, algo.costs)
        assert plan.meta["tagged"] is True
        a = skewed_ctx.a_csr
        assert_scipy_product(plan.execute(skewed_ctx), a, a, algo)

"""Cross-plane consistency: for every scheme, the plan's block-accounted work
must equal the numeric plane's op counts, on fixtures and on a catalog
dataset."""

import pytest

from repro.bench.runner import get_context
from repro.gpusim.config import TITAN_XP
from repro.spgemm.base import MultiplyContext

from tests.oracle import assert_scipy_product
from tests.test_algorithms import ALL_ALGORITHMS


@pytest.fixture(params=["square", "skewed"])
def any_ctx(request, square_csr, skewed_csr):
    return MultiplyContext.build(
        square_csr if request.param == "square" else skewed_csr
    )


@pytest.fixture(scope="module")
def catalog_ctx():
    return get_context("poisson3da")


@pytest.mark.parametrize("algo_cls", ALL_ALGORITHMS, ids=lambda c: c.name)
class TestPlanMatchesNumericPlane:
    def test_block_work_equals_numeric_ops(self, algo_cls, any_ctx):
        """Every product the kernels emit is accounted for by some expansion
        phase's blocks, and vice versa."""
        algo = algo_cls()
        plan = algo.lower(any_ctx, TITAN_XP)
        result, records = algo.profile_plan(any_ctx)
        emitted = sum(r.ops for r in records if r.stage == "expansion")
        assert emitted == any_ctx.total_work
        if plan.total_ops():  # device schemes; the CPU scheme has no blocks
            assert plan.total_ops() == emitted
        assert_scipy_product(result, any_ctx.a_csr, any_ctx.b_csr, algo)

    def test_catalog_sample(self, algo_cls, catalog_ctx):
        algo = algo_cls()
        plan = algo.lower(catalog_ctx, TITAN_XP)
        result, records = algo.profile_plan(catalog_ctx)
        emitted = sum(r.ops for r in records if r.stage == "expansion")
        assert emitted == catalog_ctx.total_work
        if plan.total_ops():
            assert plan.total_ops() == emitted
        assert_scipy_product(result, catalog_ctx.a_csr, catalog_ctx.b_csr, algo)

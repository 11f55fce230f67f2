"""Tests for B-Splitting (Section IV-C1)."""

import numpy as np
import pytest

from repro.core.splitting import choose_split_factors, plan_splitting
from repro.errors import ConfigurationError
from repro.spgemm.base import MultiplyContext
from repro.spgemm.reference import reference_spgemm


class TestFactors:
    def test_power_of_two(self):
        factors = choose_split_factors(np.array([10_000, 5_000]), n_sms=30)
        assert np.all((factors & (factors - 1)) == 0)

    def test_exceeds_sm_count(self):
        factors = choose_split_factors(np.array([100_000]), n_sms=30)
        assert factors[0] >= 2 * 30

    def test_capped_by_vector_length(self):
        factors = choose_split_factors(np.array([5]), n_sms=30)
        assert factors[0] <= 5

    def test_override(self):
        factors = choose_split_factors(np.array([10_000]), n_sms=30, factor_override=8)
        assert factors[0] == 8

    def test_invalid_override(self):
        with pytest.raises(ConfigurationError):
            choose_split_factors(np.array([10]), 30, factor_override=0)


class TestPlan:
    def test_no_dominators(self):
        plan = plan_splitting(np.array([5]), np.array([5]), np.array([False]), 30)
        assert plan.n_blocks == 0
        assert plan.split_entries == 0

    def test_work_conserved(self):
        na = np.array([1000, 7, 3000])
        nb = np.array([500, 7, 200])
        mask = np.array([True, False, True])
        plan = plan_splitting(na, nb, mask, n_sms=30)
        # Split blocks of each dominator sum to the original column length.
        for pair, expected in ((0, 1000), (2, 3000)):
            assert plan.na[plan.pair_ids == pair].sum() == expected
        # nb is never split.
        assert np.all(plan.nb[plan.pair_ids == 0] == 500)
        assert np.all(plan.nb[plan.pair_ids == 2] == 200)

    def test_pieces_balanced(self):
        plan = plan_splitting(
            np.array([1001]), np.array([10]), np.array([True]), n_sms=30
        )
        assert plan.na.max() - plan.na.min() <= 1

    def test_no_empty_pieces(self):
        plan = plan_splitting(np.array([70]), np.array([9]), np.array([True]), n_sms=30)
        assert np.all(plan.na > 0)

    def test_split_entries_counts_both_vectors(self):
        plan = plan_splitting(np.array([100]), np.array([40]), np.array([True]), 30)
        assert plan.split_entries == 140


class TestNumericSplitting:
    def test_full_reorganizer_numeric_with_forced_split(self, skewed_csr):
        from repro.core.reorganizer import BlockReorganizer, ReorganizerOptions

        ctx = MultiplyContext.build(skewed_csr)
        algo = BlockReorganizer(options=ReorganizerOptions(alpha=0.5, splitting_factor=4))
        assert algo.multiply(ctx).allclose(reference_spgemm(skewed_csr))

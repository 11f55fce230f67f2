"""Dataset catalog and loader tests.

These avoid the largest stand-ins; loading a handful verifies the catalog's
wiring, determinism and the regular/irregular class contract.
"""

import pytest

from repro.datasets.catalog import DatasetSpec, get_spec, list_names, list_specs
from repro.datasets.loader import clear_cache, load
from repro.errors import DatasetError
from repro.sparse.ops import total_expansion_work
from repro.sparse.stats import degree_stats


class TestCatalog:
    def test_28_real_world(self):
        assert len(list_names("florida")) + len(list_names("stanford")) == 28

    def test_16_synthetic(self):
        assert len(list_names("synthetic")) == 16

    def test_unknown_name(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            get_spec("nope")

    def test_specs_complete(self):
        for spec in list_specs():
            assert spec.seed != 0 or spec.collection == "synthetic"
            assert spec.generator
            assert spec.paper_dim > 0

    def test_bad_collection_rejected(self):
        with pytest.raises(DatasetError, match="collection"):
            DatasetSpec(
                name="x", collection="bogus", operation="A@A",
                generator="banded_regular", params={}, seed=1,
            )

    def test_bad_operation_rejected(self):
        with pytest.raises(DatasetError, match="operation"):
            DatasetSpec(
                name="x", collection="florida", operation="A@C",
                generator="banded_regular", params={}, seed=1,
            )

    def test_florida_paper_stats_recorded(self):
        spec = get_spec("filter3d")
        assert spec.paper_dim == 106_000
        assert spec.paper_nnz_a == 2_700_000
        assert spec.paper_nnz_c == 20_100_000


class TestLoader:
    def test_load_regular_class(self):
        ds = load("poisson3da")
        assert not degree_stats(ds.a.row_nnz()).skewed
        assert ds.b is ds.a  # C = A^2

    def test_load_irregular_class(self):
        ds = load("as_caida")
        assert degree_stats(ds.a.row_nnz()).skewed

    def test_degree_matches_paper(self):
        ds = load("harbor")
        spec = ds.spec
        paper_degree = spec.paper_nnz_a / spec.paper_dim
        realised = ds.a.nnz / ds.a.n_rows
        # Coalescing of duplicate draws loses some entries; the stand-in
        # keeps the paper's degree within ~20%.
        assert abs(realised - paper_degree) / paper_degree < 0.20

    def test_ab_pair_distinct(self):
        ds = load("ab15")
        assert ds.b is not ds.a
        assert ds.a.shape == ds.b.shape

    def test_cache_returns_same_object(self):
        a = load("poisson3da")
        b = load("poisson3da")
        assert a is b

    def test_clear_cache(self):
        a = load("poisson3da")
        clear_cache()
        b = load("poisson3da")
        assert a is not b
        assert a.a.allclose(b.a)  # still deterministic

    def test_csc_consistent(self):
        """A's CSC form, converted on demand, round-trips and counts the
        same expansion work as the loader's CSR count."""
        ds = load("poisson3da")
        a_csc = ds.a.to_csc()
        assert a_csc.to_csr().allclose(ds.a)
        assert ds.expansion_work == total_expansion_work(a_csc, ds.b)

    def test_expansion_work_positive(self):
        assert load("poisson3da").expansion_work > 0

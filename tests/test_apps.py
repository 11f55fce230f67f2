"""Tests for the graph-analytics applications (repro.apps)."""

import numpy as np
import pytest

from repro.apps import (
    batched_personalized_pagerank,
    common_neighbors,
    cosine_similarity,
    jaccard_similarity,
    k_hop_reachability,
    k_hop_walks,
    pagerank,
    recommend_by_paths,
    top_similar_pairs,
    transition_matrix,
)
from repro.core import BlockReorganizer
from repro.errors import ConfigurationError
from repro.sparse import CSRMatrix, rmat_graph500

from .oracle import assert_scipy_product


@pytest.fixture
def ring():
    """A directed 5-cycle: 0 -> 1 -> 2 -> 3 -> 4 -> 0."""
    dense = np.zeros((5, 5))
    for i in range(5):
        dense[i, (i + 1) % 5] = 1.0
    return CSRMatrix.from_dense(dense)


@pytest.fixture
def star():
    """Node 0 points at nodes 1..4 (and nothing points back)."""
    dense = np.zeros((5, 5))
    dense[0, 1:] = 1.0
    return CSRMatrix.from_dense(dense)


@pytest.fixture
def graph():
    return rmat_graph500(8, 8, seed=3).to_csr()


@pytest.fixture
def engine():
    return BlockReorganizer()


class TestPageRank:
    def test_uniform_on_ring(self, ring):
        result = pagerank(ring)
        assert result.converged
        assert np.allclose(result.scores, 0.2, atol=1e-6)

    def test_scores_sum_to_one(self, graph):
        result = pagerank(graph)
        assert result.scores.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(result.scores > 0)

    def test_dangling_nodes_handled(self, star):
        result = pagerank(star)
        assert result.converged
        assert result.scores.sum() == pytest.approx(1.0, abs=1e-6)
        # Leaves all receive equal rank, greater than a no-inlink hub's base.
        assert np.allclose(result.scores[1:], result.scores[1])

    def test_transition_matrix_column_stochastic(self, graph):
        p = transition_matrix(graph)
        col_sums = np.zeros(p.n_cols)
        coo = p.to_coo()
        np.add.at(col_sums, coo.cols, coo.vals)
        has_out = graph.row_nnz() > 0
        assert np.allclose(col_sums[has_out], 1.0)

    def test_invalid_damping(self, ring):
        with pytest.raises(ConfigurationError):
            pagerank(ring, damping=1.5)

    def test_hub_ranks_high(self):
        # Everyone links to node 0.
        dense = np.zeros((6, 6))
        dense[1:, 0] = 1.0
        dense[0, 1] = 1.0
        result = pagerank(CSRMatrix.from_dense(dense))
        assert result.scores[0] == result.scores.max()

    def test_batched_personalized(self, graph, engine):
        n = graph.n_rows
        seeds = CSRMatrix(
            (2, n),
            np.array([0, 1, 2]),
            np.array([3, 7], dtype=np.int64),
            np.array([1.0, 1.0]),
        )
        scores = batched_personalized_pagerank(graph, seeds, engine, n_steps=2)
        assert scores.shape == (2, n)
        assert scores.nnz > 0

    def test_batched_shape_check(self, graph, engine):
        bad = CSRMatrix.empty((2, graph.n_rows + 1))
        with pytest.raises(ConfigurationError):
            batched_personalized_pagerank(graph, bad, engine)


class TestSimilarity:
    def test_common_neighbors_definition(self, engine):
        dense = np.array(
            [
                [0.0, 1.0, 1.0, 0.0],
                [0.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        a = CSRMatrix.from_dense(dense)
        assert_scipy_product(common_neighbors(a, engine), a, a.transpose(), engine)

    def test_cosine_bounds(self, graph, engine):
        cos = cosine_similarity(graph, engine)
        assert cos.nnz > 0
        assert cos.data.max() <= 1.0 + 1e-9
        assert cos.data.min() >= 0.0

    def test_cosine_self_similarity_one(self, graph, engine):
        cos = cosine_similarity(graph, engine).to_dense()
        has_edges = graph.row_nnz() > 0
        assert np.allclose(np.diag(cos)[has_edges], 1.0)

    def test_jaccard_bounds_and_self(self, graph, engine):
        jac = jaccard_similarity(graph, engine)
        assert jac.data.max() <= 1.0 + 1e-9
        dense = jac.to_dense()
        has_edges = graph.row_nnz() > 0
        assert np.allclose(np.diag(dense)[has_edges], 1.0)

    def test_jaccard_known_value(self, engine):
        # rows {0,1} and {1,2}: intersection 1, union 3.
        dense = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        jac = jaccard_similarity(CSRMatrix.from_dense(dense), engine).to_dense()
        assert jac[0, 1] == pytest.approx(1.0 / 3.0)

    def test_top_similar_pairs(self, graph, engine):
        cos = cosine_similarity(graph, engine)
        pairs = top_similar_pairs(cos, 10)
        assert len(pairs) <= 10
        scores = [s for _, _, s in pairs]
        assert scores == sorted(scores, reverse=True)
        assert all(i < j for i, j, _ in pairs)


class TestReachability:
    def test_walk_counts_match_dense_powers(self, graph, engine):
        walks = k_hop_walks(graph, 3, engine)
        assert_scipy_product(walks.at(2), graph, graph, engine)
        assert_scipy_product(walks.at(3), walks.at(2), graph, engine)

    def test_reachability_on_ring(self, ring, engine):
        reach2 = k_hop_reachability(ring, 2, engine).to_dense()
        # From node 0 within 2 hops: nodes 1 and 2.
        assert reach2[0, 1] == 1.0 and reach2[0, 2] == 1.0
        assert reach2[0, 3] == 0.0
        reach5 = k_hop_reachability(ring, 5, engine).to_dense()
        assert reach5[0].sum() == 5.0  # the full cycle, self included via 5 hops

    def test_reachability_values_boolean(self, graph, engine):
        reach = k_hop_reachability(graph, 2, engine)
        assert np.all(reach.data == 1.0)

    def test_invalid_k(self, ring, engine):
        with pytest.raises(ConfigurationError):
            k_hop_walks(ring, 0, engine)
        with pytest.raises(ConfigurationError):
            k_hop_reachability(ring, 0, engine)

    def test_recommendation_excludes_known(self, engine):
        # 0 - {1,2}; 1 - {3}; 2 - {3,4}: best 2-path endpoint for 0 is 3.
        dense = np.zeros((5, 5))
        dense[0, [1, 2]] = 1.0
        dense[1, 3] = 1.0
        dense[2, [3, 4]] = 1.0
        recs = recommend_by_paths(CSRMatrix.from_dense(dense), 0, engine)
        assert recs[0][0] == 3
        assert recs[0][1] == pytest.approx(2.0)
        assert all(node not in (0, 1, 2) for node, _ in recs)

    def test_recommendation_user_bounds(self, ring, engine):
        with pytest.raises(ConfigurationError):
            recommend_by_paths(ring, 99, engine)

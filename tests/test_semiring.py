"""Semiring spGEMM tests, including the shortest-paths application."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.apps import k_hop_shortest_paths, single_source_distances
from repro.errors import ConfigurationError, ShapeMismatchError, SparseFormatError
from repro.sparse.csr import CSRMatrix
from repro.spgemm.semiring import (
    MAX_TIMES,
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    Semiring,
    semiring_spgemm,
)
from tests.test_properties import sparse_matrices


class TestPlusTimes:
    def test_matches_ordinary_product(self, square_csr):
        c = semiring_spgemm(square_csr, semiring=PLUS_TIMES)
        dense = square_csr.to_dense()
        assert np.allclose(c.to_dense(), dense @ dense)

    @given(sparse_matrices())
    @settings(max_examples=30, deadline=None)
    def test_property_matches_dense(self, coo):
        a = coo.to_csr()
        c = semiring_spgemm(a)
        assert np.allclose(c.to_dense(), a.to_dense() @ a.to_dense(), atol=1e-9)

    def test_output_beyond_int64_keys_rejected(self):
        """A 3x1 by 1x2**62 product has 3 * 2**62 flat output keys."""
        a = CSRMatrix((3, 1), [0, 1, 2, 3], [0, 0, 0], [1.0, 2.0, 3.0])
        b = CSRMatrix((1, 2**62), [0, 1], [0], [1.0])
        with pytest.raises(ShapeMismatchError, match="int64"):
            semiring_spgemm(a, b)


class TestOrAnd:
    def test_boolean_reachability(self):
        d = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
        a = CSRMatrix.from_dense(d)
        c = semiring_spgemm(a, semiring=OR_AND)
        # Only 0 -> 2 is reachable in exactly two steps.
        expected = np.zeros((3, 3))
        expected[0, 2] = 1.0
        assert np.allclose(c.to_dense(), expected)

    def test_values_are_binary(self, square_csr):
        c = semiring_spgemm(square_csr, semiring=OR_AND)
        assert set(np.unique(c.data)).issubset({1.0})

    def test_weights_ignored(self):
        d = np.array([[0.0, 7.5], [3.25, 0.0]])
        a = CSRMatrix.from_dense(d)
        c = semiring_spgemm(a, semiring=OR_AND).to_dense()
        assert c[0, 0] == 1.0 and c[1, 1] == 1.0


class TestMinPlus:
    def test_two_leg_costs(self):
        d = np.array([[0, 2, 0], [0, 0, 3], [0, 0, 0]], dtype=float)
        a = CSRMatrix.from_dense(d)
        c = semiring_spgemm(a, semiring=MIN_PLUS).to_dense()
        # inf-identity entries are dropped; stored 0->2 cost is 5.
        assert c[0, 2] == 5.0

    def test_picks_cheaper_path(self):
        # 0 -> 2 via 1 costs 2 + 1; via 3 costs 1 + 1.5.
        d = np.zeros((4, 4))
        d[0, 1], d[1, 2] = 2.0, 1.0
        d[0, 3], d[3, 2] = 1.0, 1.5
        c = semiring_spgemm(CSRMatrix.from_dense(d), semiring=MIN_PLUS).to_dense()
        assert c[0, 2] == pytest.approx(2.5)


class TestMaxTimes:
    def test_most_reliable_two_hop(self):
        d = np.zeros((3, 3))
        d[0, 1], d[1, 2] = 0.5, 0.5  # reliability 0.25
        d[0, 2] = 0.0  # no direct edge
        c = semiring_spgemm(CSRMatrix.from_dense(d), semiring=MAX_TIMES).to_dense()
        assert c[0, 2] == pytest.approx(0.25)

    def test_all_negative_products_store_nothing(self):
        """Outside the domain an entry reduces from the identity 0: products
        -1 and -0.5 leave (0, 0) absent; -2 and 1.5 give (0, 1) = 1.5."""
        a = CSRMatrix.from_dense(np.array([[-0.5, 0.5]]))
        b = CSRMatrix.from_dense(np.array([[2.0, 4.0], [-1.0, 3.0]]))
        c = semiring_spgemm(a, b, MAX_TIMES)
        assert c.indices.tolist() == [1]
        assert c.data.tolist() == [1.5]


class TestSemiringClass:
    def test_bad_reduce_rejected(self):
        with pytest.raises(ConfigurationError):
            Semiring("bad", np.multiply, sum, 0.0)  # type: ignore[arg-type]


class TestShortestPaths:
    @pytest.fixture
    def weighted_graph(self):
        d = np.zeros((5, 5))
        d[0, 1] = 1.0
        d[1, 2] = 2.0
        d[0, 2] = 5.0
        d[2, 3] = 1.0
        d[3, 4] = 1.0
        return CSRMatrix.from_dense(d)

    def test_k1_is_direct_edges_plus_diagonal(self, weighted_graph):
        dist = k_hop_shortest_paths(weighted_graph, 1).to_dense()
        assert dist[0, 1] == 1.0
        assert dist[0, 2] == 5.0

    def test_k2_finds_cheaper_route(self, weighted_graph):
        d = single_source_distances(weighted_graph, 0, 2)
        assert d[2] == 3.0  # 0->1->2 beats the direct 5.0

    def test_converges_to_bellman_ford(self, weighted_graph):
        d = single_source_distances(weighted_graph, 0, 4)
        assert list(d) == [0.0, 1.0, 3.0, 4.0, 5.0]

    def test_unreachable_is_inf(self, weighted_graph):
        d = single_source_distances(weighted_graph, 4, 4)
        assert d[0] == np.inf

    def test_monotone_in_k(self, rng):
        dense = (rng.random((20, 20)) < 0.15) * (rng.random((20, 20)) + 0.1)
        w = CSRMatrix.from_dense(dense)
        d2 = k_hop_shortest_paths(w, 2).to_dense()
        d4 = k_hop_shortest_paths(w, 4).to_dense()
        stored2 = d2 != 0
        # Once reachable, distances never increase with a larger hop budget.
        assert np.all(d4[stored2] <= d2[stored2] + 1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize(
        "indptr, indices, data",
        [
            ([0, 1, 1], [1], [np.nan]),
            ([0, 1, 1], [1], [np.inf]),
            ([0, 2, 2], [1, 1], [3.0, 1.0]),  # one column stored twice
        ],
        ids=["nan", "inf", "duplicate"],
    )
    def test_invalid_weights_rejected(self, k, indptr, indices, data):
        w = CSRMatrix((2, 2), indptr, indices, data)
        with pytest.raises(SparseFormatError):
            k_hop_shortest_paths(w, k)

    def test_negative_weights_rejected(self):
        w = CSRMatrix.from_dense(np.array([[0.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(ConfigurationError):
            k_hop_shortest_paths(w, 2)

    def test_invalid_k(self, weighted_graph):
        with pytest.raises(ConfigurationError):
            k_hop_shortest_paths(weighted_graph, 0)

    def test_invalid_source(self, weighted_graph):
        with pytest.raises(ConfigurationError):
            single_source_distances(weighted_graph, 99, 2)

    def test_matches_networkx_when_available(self, rng):
        nx = pytest.importorskip("networkx")
        dense = (rng.random((15, 15)) < 0.25) * (rng.random((15, 15)) + 0.1)
        np.fill_diagonal(dense, 0.0)
        w = CSRMatrix.from_dense(dense)
        ours = single_source_distances(w, 0, 14)
        g = nx.from_numpy_array(dense, create_using=nx.DiGraph)
        lengths = nx.single_source_dijkstra_path_length(g, 0)
        for node in range(15):
            expected = lengths.get(node, np.inf)
            assert ours[node] == pytest.approx(expected)

"""Multi-hop reachability and recommendation — the paper's third motivating
application ("link prediction and recommendation").

``A^k`` counts k-step walks; thresholded boolean powers give k-hop
reachability sets.  Chained spGEMM is the heaviest of the motivating
workloads — every hop multiplies an increasingly dense matrix — and is where
an optimised engine pays off most.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.plan.cache import PlanCache
from repro.sparse.csr import CSRMatrix
from repro.spgemm.base import SpGEMMAlgorithm

__all__ = ["WalkCounts", "k_hop_walks", "k_hop_reachability", "recommend_by_paths"]


@dataclass(frozen=True)
class WalkCounts:
    """Walk-count matrices for hops 1..k."""

    hops: list[CSRMatrix]

    @property
    def k(self) -> int:
        return len(self.hops)

    def at(self, hop: int) -> CSRMatrix:
        """1-indexed access: ``at(1)`` is the adjacency itself."""
        return self.hops[hop - 1]


def k_hop_walks(
    adjacency: CSRMatrix, k: int, engine: SpGEMMAlgorithm | PlanCache
) -> WalkCounts:
    """Walk-count matrices ``A, A^2, ..., A^k`` via chained spGEMM.

    The left operand densifies every hop, so each product has a new
    structure; a caller-held plan cache still pays off when several calls
    share the adjacency (or when walk counts saturate early).
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    cache = PlanCache.wrap(engine)
    hops = [adjacency]
    current = adjacency
    for _ in range(k - 1):
        current = cache.multiply(current, adjacency)
        hops.append(current)
    return WalkCounts(hops)


def k_hop_reachability(
    adjacency: CSRMatrix, k: int, engine: SpGEMMAlgorithm | PlanCache
) -> CSRMatrix:
    """Boolean k-hop reachability: which nodes are within <= k hops.

    Walk counts are clamped to 1 after every hop (a boolean semiring
    emulated over the numeric engine), keeping intermediate densities — and
    hence spGEMM cost — bounded.  Once the frontier's support stops growing
    (reachability saturates), every further hop is a structure hit and runs
    as a numeric replay.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    cache = PlanCache.wrap(engine)
    bool_adjacency = _booleanize(adjacency)
    reach = bool_adjacency
    frontier = reach
    for _ in range(k - 1):
        frontier = _booleanize(cache.multiply(frontier, bool_adjacency))
        from repro.sparse.ops import add

        reach = _booleanize(add(reach, frontier))
    return reach


def recommend_by_paths(
    adjacency: CSRMatrix,
    user: int,
    engine: SpGEMMAlgorithm | PlanCache,
    *,
    n_recommendations: int = 5,
) -> list[tuple[int, float]]:
    """Friend-of-friend recommendation: strongest 2-path endpoints not
    already adjacent to ``user``."""
    if not 0 <= user < adjacency.n_rows:
        raise ConfigurationError(f"user {user} out of range")
    two_hop = k_hop_walks(adjacency, 2, engine).at(2)
    cols, scores = two_hop.row(user)
    direct, _ = adjacency.row(user)
    known = set(direct.tolist()) | {user}
    candidates = [
        (int(c), float(s)) for c, s in zip(cols, scores) if int(c) not in known
    ]
    candidates.sort(key=lambda cs: (-cs[1], cs[0]))
    return candidates[:n_recommendations]


def _booleanize(m: CSRMatrix) -> CSRMatrix:
    return CSRMatrix(
        m.shape, m.indptr.copy(), m.indices.copy(), np.ones(m.nnz, dtype=np.float64)
    )

"""Bounded-hop shortest paths via tropical (min, +) spGEMM.

``D_k = D_{k-1} (min,+) W`` gives cheapest path costs using at most k edges —
the classic algebraic-path formulation, here running on the library's
semiring engine.  Distances converge to all-pairs shortest paths once k
reaches the graph's hop diameter.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.errors import ConfigurationError
from repro.plan.cache import PlanCache
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import check_multipliable
from repro.spgemm.outerproduct import OuterProductSpGEMM
from repro.spgemm.semiring import MIN_PLUS

__all__ = ["k_hop_shortest_paths", "single_source_distances"]


def _with_zero_diagonal(w: CSRMatrix) -> CSRMatrix:
    """min(W, 0-diagonal): allow paths to stop early (use fewer than k edges)."""
    n = w.n_rows
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([np.repeat(diag, w.row_nnz()), diag])
    cols = np.concatenate([w.indices, diag])
    vals = np.concatenate([w.data, np.zeros(n)])
    return CSRMatrix(
        (n, n), *kernels.coalesce(rows, cols, vals, (n, n), reduce=np.minimum, identity=np.inf)
    )


def k_hop_shortest_paths(
    weights: CSRMatrix, k: int, *, cache: PlanCache | None = None
) -> CSRMatrix:
    """Cheapest path costs using at most ``k`` edges (stored entries only).

    Args:
        weights: non-negative edge weights; absent entries mean no edge.
        k: maximum number of edges per path (k >= 1).
        cache: optional caller-held :class:`~repro.plan.cache.PlanCache`
            (one scoped to the call by default); the distance matrix's
            structure stabilises once all <= k-hop pairs are discovered,
            after which each relaxation is a structure hit replaying only
            the (min, +) numeric phase.  A semiring product runs the
            pair-order kernel whatever scheme the cache is bound to.

    Returns:
        CSR matrix whose entry (i, j) is the min-cost i->j path of <= k
        edges; the zero diagonal (stay put) is included.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    weights.validate()
    if weights.nnz and weights.data.min() < 0:
        raise ConfigurationError("min-plus paths require non-negative weights")
    check_multipliable(weights.shape, weights.shape)
    step = _with_zero_diagonal(weights)
    dist = step
    if cache is None:
        cache = PlanCache(OuterProductSpGEMM())
    for _ in range(k - 1):
        dist = cache.semiring_multiply(dist, step, MIN_PLUS)
    return dist


def single_source_distances(
    weights: CSRMatrix,
    source: int,
    k: int,
    *,
    cache: PlanCache | None = None,
) -> np.ndarray:
    """Distances from ``source`` using at most ``k`` edges (inf = unreached)."""
    if not 0 <= source < weights.n_rows:
        raise ConfigurationError(f"source {source} out of range")
    dist = k_hop_shortest_paths(weights, k, cache=cache)
    out = np.full(weights.n_cols, np.inf)
    cols, vals = dist.row(source)
    out[cols] = vals
    return out

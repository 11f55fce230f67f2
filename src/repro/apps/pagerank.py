"""PageRank — the paper's first motivating application ("ranking").

Standard damped power iteration over a column-stochastic transition matrix,
built with the library's sparse substrate.  spGEMM enters twice: the batched
variant multiplies the transition matrix by a sparse block of seed vectors,
and :func:`pagerank_spgemm` runs the power iteration itself as a sequence of
sparse products whose operand structure never changes — the canonical
customer of the plan cache (lowering and symbolic expansion happen once, all
later iterations replay the numeric phase).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.plan.cache import PlanCache
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import spmv
from repro.spgemm.base import SpGEMMAlgorithm

__all__ = [
    "PageRankResult",
    "pagerank",
    "pagerank_spgemm",
    "transition_matrix",
    "batched_personalized_pagerank",
]


@dataclass(frozen=True)
class PageRankResult:
    """Scores plus convergence diagnostics."""

    scores: np.ndarray
    iterations: int
    residual: float
    converged: bool


def transition_matrix(adjacency: CSRMatrix) -> CSRMatrix:
    """Column-stochastic transition matrix of a (possibly weighted) digraph.

    ``P[i, j] = A[j, i] / strength(j)`` where ``strength`` is the row's total
    outgoing weight: every source node's outgoing mass is normalised to 1.
    Dangling nodes (no out-edges) keep empty columns; :func:`pagerank`
    redistributes their mass uniformly.
    """
    strength = np.zeros(adjacency.n_rows, dtype=np.float64)
    row_of = np.repeat(np.arange(adjacency.n_rows, dtype=np.int64), adjacency.row_nnz())
    np.add.at(strength, row_of, adjacency.data)
    transposed = adjacency.transpose()
    scale = np.where(strength > 0, strength, 1.0)
    data = transposed.data / scale[transposed.indices]
    return CSRMatrix(transposed.shape, transposed.indptr, transposed.indices.copy(), data)


def pagerank(
    adjacency: CSRMatrix,
    *,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> PageRankResult:
    """Damped PageRank of a directed graph given its adjacency matrix."""
    if not 0.0 < damping < 1.0:
        raise ConfigurationError(f"damping must be in (0, 1), got {damping}")
    n = adjacency.n_rows
    if n == 0:
        return PageRankResult(np.zeros(0), 0, 0.0, True)
    p = transition_matrix(adjacency)
    dangling = adjacency.row_nnz() == 0

    scores = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        dangling_mass = scores[dangling].sum() / n
        updated = damping * (spmv(p, scores) + dangling_mass) + teleport
        residual = float(np.abs(updated - scores).sum())
        scores = updated
        if residual < tol:
            return PageRankResult(scores, iteration, residual, True)
    return PageRankResult(scores, max_iter, residual, False)


def pagerank_spgemm(
    adjacency: CSRMatrix,
    engine: SpGEMMAlgorithm | PlanCache,
    *,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> PageRankResult:
    """PageRank power iteration run as fixed-structure spGEMM products.

    Each step computes ``scores_row @ P^T`` with the supplied engine, where
    the score row keeps *full support* (all n entries stored, zeros
    explicit).  Both operand structures are therefore identical every
    iteration, so with a plan cache (``engine`` may be one the caller holds)
    the whole run lowers exactly once; iterations 2..N replay the numeric
    phase.  Mathematically mirrors :func:`pagerank` (same damping, teleport
    and dangling-mass handling); results agree to float rounding, not bit
    for bit, because the summation order differs.
    """
    if not 0.0 < damping < 1.0:
        raise ConfigurationError(f"damping must be in (0, 1), got {damping}")
    n = adjacency.n_rows
    if n == 0:
        return PageRankResult(np.zeros(0), 0, 0.0, True)
    cache = PlanCache.wrap(engine)
    p_t = transition_matrix(adjacency).transpose()  # right-multiplying rows
    dangling = adjacency.row_nnz() == 0

    scores = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    full_indptr = np.array([0, n], dtype=np.int64)
    full_cols = np.arange(n, dtype=np.int64)
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        dangling_mass = scores[dangling].sum() / n
        score_row = CSRMatrix((1, n), full_indptr.copy(), full_cols.copy(), scores)
        product = cache.multiply(score_row, p_t)
        propagated = np.zeros(n, dtype=np.float64)
        cols, vals = product.row(0)
        propagated[cols] = vals
        updated = damping * (propagated + dangling_mass) + teleport
        residual = float(np.abs(updated - scores).sum())
        scores = updated
        if residual < tol:
            return PageRankResult(scores, iteration, residual, True)
    return PageRankResult(scores, max_iter, residual, False)


def batched_personalized_pagerank(
    adjacency: CSRMatrix,
    seeds: CSRMatrix,
    engine: SpGEMMAlgorithm | PlanCache,
    *,
    damping: float = 0.85,
    n_steps: int = 3,
) -> CSRMatrix:
    """Approximate personalised PageRank for many seed sets at once.

    Runs ``n_steps`` of the push iteration for a whole batch: the seed block
    ``S`` (one sparse row per query, columns = seed nodes) is repeatedly
    multiplied by the transition matrix with the supplied spGEMM engine —
    the batched-analytics pattern that motivates spGEMM in the paper's
    introduction.  The score block's structure grows as mass spreads and
    stabilises once its support saturates, at which point a caller-held
    plan cache serves every remaining step by numeric replay.

    Returns the matrix of approximate scores, one row per query.
    """
    if seeds.n_cols != adjacency.n_rows:
        raise ConfigurationError("seed columns must index graph nodes")
    cache = PlanCache.wrap(engine)
    p_t = transition_matrix(adjacency).transpose()  # right-multiplying rows
    scores = seeds
    teleport = 1.0 - damping
    accumulated = _scale(seeds, teleport)
    for _ in range(n_steps):
        scores = _scale(cache.multiply(scores, p_t), damping)
        accumulated = _add(accumulated, _scale(scores, teleport))
    return accumulated


def _scale(m: CSRMatrix, s: float) -> CSRMatrix:
    return CSRMatrix(m.shape, m.indptr.copy(), m.indices.copy(), m.data * s)


def _add(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    from repro.sparse.ops import add

    return add(a, b)

"""Node-similarity analytics — the paper's second motivating application.

Common-neighbour counting, cosine similarity and Jaccard similarity between
all node pairs reduce to the product ``A @ A^T`` (or ``A^2`` on symmetric
graphs) — exactly the spGEMM workload the paper optimises.  Any
:class:`~repro.spgemm.base.SpGEMMAlgorithm` can serve as the engine; like
the other apps, a caller-held :class:`~repro.plan.cache.PlanCache` is also
accepted so repeated queries on one graph replay their plan.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeMismatchError
from repro.plan.cache import PlanCache
from repro.sparse.csr import CSRMatrix
from repro.spgemm.base import SpGEMMAlgorithm

__all__ = ["common_neighbors", "cosine_similarity", "jaccard_similarity", "top_similar_pairs"]


def common_neighbors(
    adjacency: CSRMatrix, engine: SpGEMMAlgorithm | PlanCache
) -> CSRMatrix:
    """Count shared out-neighbours for every node pair: ``A @ A^T``.

    Entry (i, j) is ``|N(i) ∩ N(j)|`` for a 0/1 adjacency matrix (weighted
    graphs yield the weighted overlap).
    """
    return PlanCache.wrap(engine).multiply(adjacency, adjacency.transpose())


def cosine_similarity(
    adjacency: CSRMatrix, engine: SpGEMMAlgorithm | PlanCache
) -> CSRMatrix:
    """Cosine similarity of neighbourhood vectors for every node pair.

    ``cos(i, j) = (A A^T)_{ij} / (|A_i| |A_j|)`` — the common-neighbour
    matrix rescaled by row norms.
    """
    overlap = common_neighbors(adjacency, engine)
    norms = _row_norms(adjacency)
    with np.errstate(divide="ignore"):
        scale = np.where(norms > 0, 1.0 / np.maximum(norms, 1e-300), 0.0)
    row_of = np.repeat(np.arange(overlap.n_rows, dtype=np.int64), overlap.row_nnz())
    data = overlap.data * scale[row_of] * scale[overlap.indices]
    return CSRMatrix(overlap.shape, overlap.indptr.copy(), overlap.indices.copy(), data)


def jaccard_similarity(
    adjacency: CSRMatrix, engine: SpGEMMAlgorithm | PlanCache
) -> CSRMatrix:
    """Jaccard similarity of out-neighbourhoods for every node pair.

    ``J(i, j) = |N(i) ∩ N(j)| / |N(i) ∪ N(j)|`` with
    ``|union| = deg(i) + deg(j) - |intersection|``.  Defined for 0/1
    adjacency; weighted inputs are treated as unweighted structure.
    """
    pattern = CSRMatrix(
        adjacency.shape,
        adjacency.indptr.copy(),
        adjacency.indices.copy(),
        np.ones(adjacency.nnz),
    )
    overlap = common_neighbors(pattern, engine)
    degree = pattern.row_nnz().astype(np.float64)
    row_of = np.repeat(np.arange(overlap.n_rows, dtype=np.int64), overlap.row_nnz())
    union = degree[row_of] + degree[overlap.indices] - overlap.data
    data = np.where(union > 0, overlap.data / np.maximum(union, 1e-300), 0.0)
    return CSRMatrix(overlap.shape, overlap.indptr.copy(), overlap.indices.copy(), data)


def top_similar_pairs(
    similarity: CSRMatrix, k: int, *, exclude_self: bool = True
) -> list[tuple[int, int, float]]:
    """The ``k`` highest-similarity (i, j) pairs, i < j, sorted descending."""
    if similarity.n_rows != similarity.n_cols:
        raise ShapeMismatchError("similarity matrix must be square")
    coo = similarity.to_coo()
    mask = coo.rows < coo.cols if exclude_self else np.ones(coo.nnz, dtype=bool)
    rows, cols, vals = coo.rows[mask], coo.cols[mask], coo.vals[mask]
    if len(vals) == 0:
        return []
    order = np.argsort(vals)[::-1][:k]
    return [(int(rows[i]), int(cols[i]), float(vals[i])) for i in order]


def _row_norms(m: CSRMatrix) -> np.ndarray:
    norms_sq = np.zeros(m.n_rows)
    row_of = np.repeat(np.arange(m.n_rows, dtype=np.int64), m.row_nnz())
    np.add.at(norms_sq, row_of, m.data * m.data)
    return np.sqrt(norms_sq)

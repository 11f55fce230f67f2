"""repro.kernels — the numeric primitives, one NumPy function each.

Every numeric path in the library reduces to these functions: the two
symbolic expansions (outer-product and Gustavson row-product), the one
numeric kernel :func:`spgemm` every lowered plan runs (its two steps,
:func:`expand` and :func:`merge`, are public so the plan executor can time
them), :func:`coalesce` for a caller's triplets, and recipe replay's
:func:`gather_reduce`.  :mod:`repro.spgemm`, :mod:`repro.plan`,
:mod:`repro.oocore`, :mod:`repro.sparse` and :mod:`repro.apps` call these
functions directly; no other code reduces the values of duplicate
coordinates.

The algebra is the caller's: ``combine`` forms each product and ``reduce``
folds an entry's products starting from ``identity``.  The defaults are
NumPy's ``*`` (:func:`operator.mul`, which unlike a direct
:func:`numpy.multiply` call may reuse a temporary operand's buffer) and
:func:`numpy.add` from +0.0.  Semiring products and the shortest-path
diagonal pass their own; everything else uses the defaults.

The bit-identity invariant every caller relies on is one decision, made in
:func:`merge`: each output entry is reduced from ``identity`` in ascending
(tie rank, position in the expansion order).  The expansion order is pair
order (outer product) or row order (Gustavson) and is a property of the
scheme's plan; the per-pair tie rank is zero except where a plan expands
pair classes in separate phases.  Products are keyed by coordinate (and
rank), stably sorted, and accumulated with :func:`numpy.ufunc.at`, which
applies repeated indices in order — so a recipe replay, which gathers the
products in that sorted order, reduces exactly as the cold kernel did.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from repro.errors import ShapeMismatchError

__all__ = [
    "PAIR_ORDER",
    "ROW_ORDER",
    "Expansion",
    "active_name",
    "check_key_space",
    "expand_outer_indices",
    "expand_row_indices",
    "expand",
    "merge",
    "spgemm",
    "coalesce",
    "gather_reduce",
]

#: Expansion orders: pair by pair (outer product) or row by row (Gustavson).
PAIR_ORDER = "pairs"
ROW_ORDER = "rows"


def active_name() -> str:
    """Name of the kernel implementation (recorded by ``perfbench/run.py``)."""
    return "numpy"


def check_key_space(n_rows: int, n_cols: int, span: int = 1, *, error=ShapeMismatchError) -> None:
    """Raise ``error`` unless the flat keys of an ``n_rows x n_cols`` space fit in int64.

    Every flat key in the library is ``row * n_cols + col``, times ``span``
    plus a tie rank when one is given, so the largest is
    ``n_rows * n_cols * span - 1``; past ``2**63`` it would wrap and merge
    entries of different rows.
    """
    if int(n_rows) * int(n_cols) * int(span) > 2**63:
        ranks = f" x {span} tie ranks" if span > 1 else ""
        raise error(
            f"a {n_rows} x {n_cols}{ranks} coordinate space exceeds the int64 key "
            f"limit (rows x cols x ranks must be at most 2**63)"
        )


def _segment_offsets(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments of the given sizes, return (segment id, offset within
    segment) for every element of the concatenation."""
    total = int(counts.sum())
    seg_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return seg_of, offsets


def expand_outer_indices(
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    b_indptr: np.ndarray,
    b_indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symbolic outer-product expansion over CSC(A) and CSR(B) structure.

    Returns ``(rows, cols, a_idx, b_idx)`` in pair order, then by (position
    in the A column, position in the B row) — the order an outer-product
    kernel would emit.  ``a_idx``/``b_idx`` are stored-entry positions.
    """
    na = np.diff(a_indptr)
    nb = np.diff(b_indptr)
    counts = na * nb
    pair_of, offsets = _segment_offsets(counts)

    nb_per = nb[pair_of]
    a_pos = offsets // np.maximum(nb_per, 1)
    b_pos = offsets % np.maximum(nb_per, 1)

    a_idx = a_indptr[pair_of] + a_pos
    b_idx = b_indptr[pair_of] + b_pos
    return a_indices[a_idx], b_indices[b_idx], a_idx, b_idx


def expand_row_indices(
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    b_indptr: np.ndarray,
    b_indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symbolic row-product (Gustavson) expansion over CSR(A), CSR(B).

    Returns ``(rows, cols, a_idx, b_idx)`` in output-row order, then by the
    A entry within the row, then by the B entry within the gathered row.
    """
    n_rows = len(a_indptr) - 1
    a_row_nnz = np.diff(a_indptr)
    b_row_nnz = np.diff(b_indptr)
    per_entry = b_row_nnz[a_indices]
    entry_of, offsets = _segment_offsets(per_entry)

    row_of_entry = np.repeat(np.arange(n_rows, dtype=np.int64), a_row_nnz)
    rows = row_of_entry[entry_of]
    b_rows = a_indices[entry_of]
    b_idx = b_indptr[b_rows] + offsets
    return rows, b_indices[b_idx], entry_of, b_idx


class Expansion(NamedTuple):
    """The kernel's product stream, in expansion order.

    ``keys`` is each product's flat coordinate ``row * n_cols + col``,
    scaled by ``span`` and offset by the product's tie rank when any rank is
    non-zero.  ``a_idx``/``b_idx`` (only when gathers were asked for) are
    the stored entries of ``A``/``B`` in CSR order that formed each product.
    """

    keys: np.ndarray
    span: int
    vals: np.ndarray
    a_idx: np.ndarray | None
    b_idx: np.ndarray | None


def expand(
    a, b, order: str, rank=None, *, gathers: bool = False, combine=operator.mul
) -> Expansion:
    """The kernel's expansion step: every product of ``A·B`` in ``order``.

    ``a`` and ``b`` are CSR (anything with ``shape``, ``indptr``,
    ``indices`` and ``data``).  Pair order reads A by column through a
    stable sort of its column indices — the sort
    :func:`~repro.sparse.convert.csr_to_csc` performs, so a column lists its
    entries in row order whatever the order within A's rows.  ``rank`` is a
    per-pair tie rank (one entry per column of A), or None for all zero.
    ``combine`` forms each product from its two operand values.
    """
    n_rows, n_cols = a.shape[0], b.shape[1]
    span = int(np.max(rank)) + 1 if rank is not None and np.any(rank) else 1
    check_key_space(n_rows, n_cols, span)
    if order == PAIR_ORDER:
        to_csr = np.argsort(a.indices, kind="stable")
        col_indptr = np.zeros(a.shape[1] + 1, dtype=np.int64)
        np.cumsum(np.bincount(a.indices, minlength=a.shape[1]), out=col_indptr[1:])
        col_rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(a.indptr))[to_csr]
        rows, cols, a_idx, b_idx = expand_outer_indices(
            col_indptr, col_rows, b.indptr, b.indices
        )
        a_idx = to_csr[a_idx]
    elif order == ROW_ORDER:
        rows, cols, a_idx, b_idx = expand_row_indices(a.indptr, a.indices, b.indptr, b.indices)
    else:
        raise ValueError(f"unknown expansion order {order!r}")

    vals = combine(a.data[a_idx], b.data[b_idx])
    keys = rows.astype(np.int64) * np.int64(n_cols) + cols
    if span > 1:
        keys = keys * span + rank[a.indices[a_idx]]
    if not gathers:
        a_idx = b_idx = None
    return Expansion(keys, span, vals, a_idx, b_idx)


def merge(expansion: Expansion, shape: tuple[int, int], *, reduce=np.add, identity: float = 0.0):
    """The kernel's merge step: reduce the stream into canonical CSR.

    One stable sort by key groups each output entry's products in
    ascending (tie rank, stream position); each entry is reduced from
    ``identity`` with in-order ``reduce.at``.  Entries that reduce to the
    identity (sums that cancel to zero) are kept.  Returns
    ``(indptr, indices, data, gathers)`` where ``gathers`` is
    ``(a_gather, b_gather, group)`` in summation order — the arrays of a
    :class:`~repro.plan.cache.NumericRecipe` — or None when the expansion
    carries no entry positions.
    """
    n_rows, n_cols = shape
    keys, span, vals, a_idx, b_idx = expansion
    perm = np.argsort(keys, kind="stable")
    coords = keys[perm]
    if span > 1:
        coords //= span
    first = np.ones(len(coords), dtype=bool)
    np.not_equal(coords[1:], coords[:-1], out=first[1:])
    group = np.cumsum(first) - 1
    coords = coords[first]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(coords // n_cols, minlength=n_rows), out=indptr[1:])
    data = np.full(len(coords), identity, dtype=np.float64)
    reduce.at(data, group, vals[perm])
    gathers = None if a_idx is None else (a_idx[perm], b_idx[perm], group)
    return indptr, coords % n_cols, data, gathers


def spgemm(
    a,
    b,
    order: str,
    rank=None,
    *,
    gathers: bool = False,
    combine=operator.mul,
    reduce=np.add,
    identity: float = 0.0,
):
    """``C = A·B``: the one numeric kernel (:func:`expand` then :func:`merge`).

    Returns ``(indptr, indices, data, gathers)``; see the two steps.
    """
    stream = expand(a, b, order, rank, gathers=gathers, combine=combine)
    return merge(stream, (a.shape[0], b.shape[1]), reduce=reduce, identity=identity)


def coalesce(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
    *,
    reduce=np.add,
    identity: float = 0.0,
):
    """Reduce duplicate ``(row, col)`` triplets into canonical CSR.

    The merge step over the caller's triplets in their given order, so
    duplicates reduce in input order.  Coordinates must lie inside
    ``shape``.  Returns ``(indptr, indices, data)``.
    """
    check_key_space(*shape)
    keys = rows.astype(np.int64, copy=False) * np.int64(shape[1]) + cols
    stream = Expansion(keys, 1, vals, None, None)
    indptr, indices, data, _ = merge(stream, shape, reduce=reduce, identity=identity)
    return indptr, indices, data


def gather_reduce(
    a_data: np.ndarray,
    b_data: np.ndarray,
    a_gather: np.ndarray,
    b_gather: np.ndarray,
    group: np.ndarray,
    n_groups: int,
    *,
    combine=operator.mul,
    reduce=np.add,
    identity: float = 0.0,
) -> np.ndarray:
    """Recipe replay: gather both operands, combine, and reduce by ``group``
    in stream order from ``identity`` — the merge step's arithmetic."""
    out = np.full(n_groups, identity, dtype=np.float64)
    reduce.at(out, group, combine(a_data[a_gather], b_data[b_gather]))
    return out

"""repro.kernels — the numeric primitives, one NumPy function each.

Every numeric path in the library reduces to these functions: the walk that
expands stored entries of A into products (:func:`expand_entries`), the one
numeric kernel :func:`spgemm` every lowered plan runs (its two steps,
:func:`expand` and :func:`merge`, are public so the plan executor can time
them), :func:`coalesce` for a caller's triplets, recipe replay's
:func:`gather_reduce`, and :func:`row_blocks`, the one row cut that the
merge, the symbolic pass and the out-of-core panel planner share.
:mod:`repro.spgemm`, :mod:`repro.plan`, :mod:`repro.oocore`,
:mod:`repro.sparse` and :mod:`repro.apps` call these functions directly; no
other code reduces the values of duplicate coordinates.

The algebra is the caller's: ``combine`` forms each product and ``reduce``
folds an entry's products starting from ``identity``.  The defaults are
NumPy's ``*`` (:func:`operator.mul`, which unlike a direct
:func:`numpy.multiply` call may reuse a temporary operand's buffer) and
:func:`numpy.add` from +0.0.  Semiring products and the shortest-path
diagonal pass their own; everything else uses the defaults.

The bit-identity invariant every caller relies on: each output entry is
reduced from ``identity`` in ascending (tie rank, position in the expansion
order).  The expansion order is pair order (outer product) or row order
(Gustavson) and is a property of the scheme's plan; the per-pair tie rank is
zero except where a plan expands pair classes in separate phases.
:func:`expand` walks A's stored entries in an order that already lists every
entry's products that way, row block by row block, and :func:`merge` only
numbers the output entries of each block — Gustavson's dense accumulator,
binned by rows as in Liu & Vinter's framework, with a stable sort for blocks
too sparse for one — then reduces the whole stream with one
:func:`numpy.ufunc.at`, which applies repeated indices in stream order.  A
recipe replay forms the products in that same order, so it reduces exactly
as the cold kernel did.

Each stored entry of A emits its row of B as one contiguous run of
products, so the gathers the kernel hands a recipe keep A's side per entry
(the walk and each entry's product count), not per product; only B's
stored entry and the output entry are kept per product.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from repro.errors import ShapeMismatchError

__all__ = [
    "PAIR_ORDER",
    "ROW_ORDER",
    "BLOCK_PRODUCTS",
    "BLOCK_CELLS",
    "DENSE_MIN_FILL",
    "REPLAY_PRODUCTS",
    "RowBlock",
    "Expansion",
    "active_name",
    "check_key_space",
    "row_blocks",
    "expand_entries",
    "expand",
    "merge",
    "spgemm",
    "coalesce",
    "gather_reduce",
]

#: Expansion orders: pair by pair (outer product) or row by row (Gustavson).
PAIR_ORDER = "pairs"
ROW_ORDER = "rows"

#: Products one row block holds (each int64 array over a block's products
#: then takes 2 MiB at most).
BLOCK_PRODUCTS = 1 << 18
#: Cells (``block rows × n_cols``) of a dense block: the length of its bool
#: occupancy mask and of its int32 slot table.  A row wider than this is
#: never dense.
BLOCK_CELLS = 1 << 16
#: A block is dense when its products number at least this share of its
#: cells; sparser (typically wide) blocks sort their keys.
DENSE_MIN_FILL = 1 / 64
#: Most products a recipe replay forms and reduces at a time (an entry of A
#: with more is replayed alone).  Temporaries of 512 KiB come back from the
#: allocator's free lists; whole-stream ones faulted in fresh pages on some
#: replays (hundreds of faults, +5-8 ms).
REPLAY_PRODUCTS = 1 << 16


def active_name() -> str:
    """Name of the kernel implementation (recorded by ``perfbench/run.py``)."""
    return "numpy"


def check_key_space(n_rows: int, n_cols: int, *, error=ShapeMismatchError) -> None:
    """Raise ``error`` unless the flat keys of an ``n_rows x n_cols`` space fit in int64.

    Every flat key in the library is ``row * n_cols + col``, so the largest
    is ``n_rows * n_cols - 1``; past ``2**63`` it would wrap and merge
    entries of different rows.
    """
    if int(n_rows) * int(n_cols) > 2**63:
        raise error(
            f"a {n_rows} x {n_cols} coordinate space exceeds the int64 key "
            f"limit (rows x cols must be at most 2**63)"
        )


class RowBlock(NamedTuple):
    """Output rows ``start:stop``, whose products are ``lo:hi`` of the stream."""

    start: int
    stop: int
    lo: int
    hi: int
    dense: bool


def row_blocks(
    ends: np.ndarray, n_cols: int | None = None, *, max_products: int | None = None
) -> list[RowBlock]:
    """Cut the rows into contiguous blocks by cumulative work.

    ``ends[r]`` is the number of products in rows ``0..r`` (the prefix sums
    of :func:`repro.plan.estimate.row_flops`; :func:`gather_reduce` cuts A's
    entries by theirs).  Each block is the longest run of rows from where
    the last one stopped whose products fit ``max_products`` (default
    :data:`BLOCK_PRODUCTS`), and at least one row.
    Given ``n_cols``, a block is cut shorter to fit :data:`BLOCK_CELLS`
    cells and marked dense when its products then fill at least
    :data:`DENSE_MIN_FILL` of them.
    """
    if max_products is None:
        max_products = BLOCK_PRODUCTS
    mask_rows = 0 if n_cols is None else BLOCK_CELLS // max(n_cols, 1)
    blocks = []
    start = lo = 0
    while start < len(ends):
        stop = max(int(np.searchsorted(ends, lo + max_products, side="right")), start + 1)
        dense_stop = min(stop, start + mask_rows)
        dense = dense_stop > start and (
            ends[dense_stop - 1] - lo >= DENSE_MIN_FILL * n_cols * (dense_stop - start)
        )
        if dense:
            stop = dense_stop
        hi = int(ends[stop - 1])
        blocks.append(RowBlock(start, stop, lo, hi, bool(dense)))
        start, lo = stop, hi
    return blocks


def expand_entries(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The expansion walk: each stored entry of A, in the given order, emits
    its row of B in stored order.

    For an entry with inner index k (its column of A), ``starts`` holds
    ``b.indptr[k]`` and ``counts`` the length of B's row k.  Returns the
    stored entry of B behind each product; ``np.repeat(x, counts)`` spreads
    a per-entry array ``x`` over the products.
    """
    base = np.cumsum(counts)
    base -= counts
    np.subtract(starts, base, out=base)
    b_idx = np.repeat(base, counts)
    b_idx += np.arange(len(b_idx))
    return b_idx


class Expansion(NamedTuple):
    """The kernel's product stream, in expansion order.

    ``keys`` is each product's flat coordinate ``row * n_cols + col`` and
    ``blocks`` the :class:`RowBlock` cut the stream is grouped by: block
    ``i``'s products are ``keys[lo:hi]``.  ``gathers`` (None unless asked
    for) is ``(a_entries, counts, b_gather)``: A's stored entries (CSR
    positions) in walk order with the number of products each emits, and
    the stored entry of B behind each product.  Entry ``e``'s products are
    the ``counts[e]`` that follow its predecessors', so
    ``np.repeat(a_entries, counts)`` is the A entry behind each product.
    """

    keys: np.ndarray
    vals: np.ndarray
    gathers: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    blocks: list[RowBlock]


def expand(
    a, b, order: str, rank=None, *, gathers: bool = False, combine=operator.mul
) -> Expansion:
    """The kernel's expansion step: every product of ``A·B``, block by block.

    ``a`` and ``b`` are CSR (anything with ``shape``, ``indptr``,
    ``indices`` and ``data``).  The output rows are cut by
    :func:`row_blocks`, and the walk (:func:`expand_entries`) visits A's
    stored entries block by block.  Row order takes them in CSR order.  Pair
    order takes each block's entries stably sorted by (tie rank of k, k), so
    a column lists its entries in row order whatever the order within A's
    rows.  ``rank`` is a per-pair tie rank (one entry per column of A), or
    None for all zero; in row order it sorts each row's entries stably.
    Either way every output entry's products appear in ascending (tie rank,
    expansion position).  ``combine`` forms each product from its two
    operand values.
    """
    n_rows, n_cols = a.shape[0], b.shape[1]
    check_key_space(n_rows, n_cols)
    if order not in (PAIR_ORDER, ROW_ORDER):
        raise ValueError(f"unknown expansion order {order!r}")
    a_rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(a.indptr))
    counts = np.diff(b.indptr)[a.indices]
    prefix = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=prefix[1:])
    blocks = row_blocks(prefix[a.indptr[1:]], n_cols)
    ranked = rank is not None and np.any(rank)
    if order == PAIR_ORDER:
        pair_pos = a.indices
        if ranked:
            rank_order = np.empty(a.shape[1], dtype=np.int64)
            rank_order[np.argsort(rank, kind="stable")] = np.arange(a.shape[1])
            pair_pos = rank_order[a.indices]
        # Keys stay below n_blocks * n_pairs, a product of two array lengths.
        block_of = np.searchsorted([blk.stop for blk in blocks], a_rows, side="right")
        walk = np.argsort(block_of * np.int64(a.shape[1]) + pair_pos, kind="stable")
    elif ranked:
        walk = np.lexsort((rank[a.indices], a_rows))
    else:
        walk = None

    ks, a_vals, rows = a.indices, a.data, a_rows
    if walk is not None:
        ks, a_vals, rows, counts = ks[walk], a_vals[walk], rows[walk], counts[walk]
    b_idx = expand_entries(b.indptr[ks], counts)
    keys = np.repeat(rows * np.int64(n_cols), counts)
    keys += b.indices[b_idx]
    vals = combine(np.repeat(a_vals, counts), b.data[b_idx])
    captured = None
    if gathers:
        captured = (np.arange(len(ks)) if walk is None else walk, counts, b_idx)
    return Expansion(keys, vals, captured, blocks)


def merge(expansion: Expansion, shape: tuple[int, int], *, reduce=np.add, identity: float = 0.0):
    """The kernel's merge step: reduce the stream into canonical CSR.

    Each row block numbers its output entries in coordinate order.  A dense
    block marks its products' cells in a bool mask and numbers the occupied
    cells through an int32 slot table; any other block stably sorts its
    keys.  Then one in-order ``reduce.at`` over the stream reduces each
    entry from ``identity`` in ascending (tie rank, stream position), as the
    expansion laid the products out.  Entries that reduce to the identity
    (sums that cancel to zero) are kept.  Returns ``(indptr, indices, data,
    gathers)`` where ``gathers`` is the expansion's ``(a_entries, counts,
    b_gather)`` followed by ``group``, each product's output entry, in
    stream order — the arrays of a :class:`~repro.plan.cache.NumericRecipe`
    and of :func:`gather_reduce` — or None when the expansion carries none.
    """
    n_rows, n_cols = shape
    keys, vals, captured, blocks = expansion
    group = np.empty(len(keys), dtype=np.int64)
    coords = []
    n_out = 0
    for start, stop, lo, hi, dense in blocks:
        if hi == lo:
            continue
        if dense:
            cells = keys[lo:hi] - start * np.int64(n_cols)
            mask = np.zeros((stop - start) * n_cols, dtype=bool)
            mask[cells] = True
            occupied = np.flatnonzero(mask)
            slot = np.empty(len(mask), dtype=np.int32)
            slot[occupied] = np.arange(len(occupied), dtype=np.int32)
            np.add(slot[cells], np.int64(n_out), out=group[lo:hi])
            coords.append(occupied + start * np.int64(n_cols))
        else:
            perm = np.argsort(keys[lo:hi], kind="stable")
            ordered = keys[lo:hi][perm]
            first = np.ones(len(ordered), dtype=bool)
            np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
            coords.append(ordered[first])
            ids = np.cumsum(first, out=ordered)
            ids += n_out - 1
            group[lo:hi][perm] = ids
        n_out += len(coords[-1])
    if not coords:
        coords.append(np.zeros(0, dtype=np.int64))
    coords = np.concatenate(coords) if len(coords) > 1 else coords[0]
    rows = coords // n_cols
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    # The column, without a second integer division.
    rows *= n_cols
    coords -= rows
    data = np.full(n_out, identity, dtype=np.float64)
    reduce.at(data, group, vals)
    gathers = None if captured is None else (*captured, group)
    return indptr, coords, data, gathers


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
    # Triplets arrive in any order: one block, sorted.
    stream = Expansion(keys, vals, None, [RowBlock(0, shape[0], 0, len(keys), False)])
    indptr, indices, data, _ = merge(stream, shape, reduce=reduce, identity=identity)
    return indptr, indices, data


def gather_reduce(
    a_data: np.ndarray,
    b_data: np.ndarray,
    a_entries: np.ndarray,
    counts: np.ndarray,
    b_gather: np.ndarray,
    group: np.ndarray,
    n_groups: int,
    *,
    combine=operator.mul,
    reduce=np.add,
    identity: float = 0.0,
) -> np.ndarray:
    """Recipe replay: the merge step's arithmetic on fresh operand values.

    The arguments are :func:`merge`'s gathers.  Entries ``e0:e1``, whose
    products are ``p0:p1`` of the stream, replay as one chunk::

        vals = combine(np.repeat(a_data[a_entries[e0:e1]], counts[e0:e1]),
                       b_data[b_gather[p0:p1]])
        reduce.at(out, group[p0:p1], vals)

    so each output entry reduces from ``identity`` in stream order, as the
    cold kernel did.  :func:`row_blocks` cuts the entries by their product
    counts into chunks of at most :data:`REPLAY_PRODUCTS` products (an
    entry with more is a chunk by itself).
    """
    out = np.full(n_groups, identity, dtype=np.float64)
    for e0, e1, p0, p1, _ in row_blocks(np.cumsum(counts), max_products=REPLAY_PRODUCTS):
        if p1 > p0:
            a_vals = np.repeat(a_data[a_entries[e0:e1]], counts[e0:e1])
            reduce.at(out, group[p0:p1], combine(a_vals, b_data[b_gather[p0:p1]]))
    return out

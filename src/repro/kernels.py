"""repro.kernels — the numeric primitives, one NumPy function each.

Every numeric path in the library reduces to these functions: the walk that
expands stored entries of A into products (:func:`expand_entries`), the one
numeric kernel (:func:`stream`, which yields ``C = A·B`` row block by row
block, and :func:`spgemm`, which joins the blocks), the symbolic pass that
counts C's entries per row over the same walk (:func:`row_nnz`),
:func:`coalesce` for a caller's triplets, recipe replay's
:func:`gather_reduce`, and :func:`row_blocks`, the one row cut the kernel,
the symbolic pass and the out-of-core executor share.
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
zero except where a plan expands pair classes in separate phases.  The
kernel cuts the output rows into blocks (:func:`row_cut`) and handles one
block at a time, so the products of the whole stream never sit in memory at
once: it walks the block's stored entries of A in an order that already
lists every entry's products that way, forms the block's products, numbers
the block's output entries — Gustavson's dense accumulator, binned by rows
as in Liu & Vinter's framework, with a stable sort for blocks too sparse
for one — and reduces them with one :func:`numpy.ufunc.at`, which applies
repeated indices in stream order.  Every output entry's products lie in one
block, so the blocks never add into each other.  A recipe replay forms the
products in that same order, so it reduces exactly as the cold kernel did.

Each stored entry of A emits its row of B as one contiguous run of
products, so the gathers the kernel hands a recipe keep A's side per entry
(the walk and each entry's product count), not per product; only B's
stored entry and the output entry are kept per product.
"""

from __future__ import annotations

import operator
import time
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
    "active_name",
    "check_key_space",
    "row_blocks",
    "row_cut",
    "expand_entries",
    "stream",
    "spgemm",
    "row_nnz",
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


def row_cut(a, b, *, max_products: int | None = None) -> list[RowBlock]:
    """The kernel's cut of ``A·B``'s output rows (:func:`row_blocks` with
    ``n_cols``), from the products each row expands to."""
    work = np.zeros(len(a.indices) + 1, dtype=np.int64)
    np.cumsum(np.diff(b.indptr)[a.indices], out=work[1:])
    return row_blocks(work[a.indptr[1:]], b.shape[1], max_products=max_products)


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


def _walk(a, b, blk: RowBlock, order: str, key: np.ndarray | None):
    """One row block of the expansion walk, without values.

    Row order takes the block's stored entries of A in CSR order (each
    row's stably sorted by ``key``, the tie rank, when given).  Pair order
    takes them stably sorted by ``key[k]`` (the position of k's tie rank,
    or k itself when ``key`` is None), so a column lists its entries in row
    order whatever the order within A's rows.  Returns ``(walk, counts,
    b_idx, cells)``: the walk over the block's entries (positions from the
    block's first entry; None for CSR order), the products each emits, the
    stored entry of B behind each product and each product's cell
    ``(row - blk.start) * n_cols + col``.
    """
    e0, e1 = int(a.indptr[blk.start]), int(a.indptr[blk.stop])
    ks = a.indices[e0:e1]
    n_cols = b.shape[1]
    row_of = np.arange(blk.stop - blk.start, dtype=np.int64) * np.int64(n_cols)
    row_entries = a.indptr[blk.start : blk.stop + 1] - e0
    walk = None
    if order == PAIR_ORDER:
        walk = np.argsort(ks if key is None else key[ks], kind="stable")
    elif key is not None:
        walk = np.lexsort((key[ks], np.repeat(row_of, np.diff(row_entries))))
    if walk is not None:
        ks = ks[walk]
    starts = b.indptr[ks]
    counts = b.indptr[1:][ks] - starts
    b_idx = expand_entries(starts, counts)
    if order == PAIR_ORDER:
        # The walk interleaves the block's rows: spread each entry's row.
        cells = np.repeat(np.repeat(row_of, np.diff(row_entries))[walk], counts)
    else:
        # Each row's products are contiguous: spread each row's offset.
        work = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=work[1:])
        cells = np.repeat(row_of, np.diff(work[row_entries]))
    cells += b.indices[b_idx]
    return walk, counts, b_idx, cells


def _number(cells: np.ndarray, blk: RowBlock, n_cols: int, *, ids: bool):
    """Number one block's output entries in cell order.

    A dense block marks its products' cells in a bool mask and numbers the
    occupied cells through an int32 slot table; any other block sorts its
    cells, stably when ``ids`` asks for each product's entry.  With ``ids``
    returns ``(occupied, entry)``: the occupied cells ascending and each
    product's position in them; without (the symbolic pass), the entries of
    each of the block's rows.
    """
    n_rows = blk.stop - blk.start
    if blk.dense:
        mask = np.zeros((n_rows, n_cols), dtype=bool)
        mask.ravel()[cells] = True
        if not ids:
            return np.count_nonzero(mask, axis=1)
        occupied = np.flatnonzero(mask)
        slot = np.empty(mask.size, dtype=np.int32)
        slot[occupied] = np.arange(len(occupied), dtype=np.int32)
        return occupied, slot[cells]
    if ids:
        perm = np.argsort(cells, kind="stable")
        ordered = cells[perm]
    else:
        cells.sort()
        ordered = cells
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    occupied = ordered[first]
    if not ids:
        return np.bincount(occupied // n_cols, minlength=n_rows)
    position = np.cumsum(first, out=ordered)
    position -= 1
    entry = np.empty(len(cells), dtype=np.int64)
    entry[perm] = position
    return occupied, entry


def stream(
    a,
    b,
    order: str,
    rank=None,
    blocks: list[RowBlock] | None = None,
    *,
    gathers: tuple | None = None,
    steps: dict | None = None,
    combine=operator.mul,
    reduce=np.add,
    identity: float = 0.0,
):
    """``C = A·B`` one row block at a time: the one numeric kernel.

    ``a`` and ``b`` are CSR (anything with ``shape``, ``indptr``,
    ``indices`` and ``data``).  ``blocks`` is the row cut (default
    :func:`row_cut`'s).  For each block the kernel walks its stored entries
    of A, in CSR order for row order and stably sorted by (tie rank of k,
    k) for pair order, forms its products with ``combine``, numbers its
    output entries in coordinate order and reduces each from ``identity``
    with one in-order ``reduce.at``, so every output entry's products are
    summed in ascending (tie rank, expansion position).  ``rank`` is a
    per-pair tie rank (one entry per column of A), or None for all zero; in
    row order it sorts each row's entries stably.  Entries that reduce to
    the identity (sums that cancel to zero) are kept.

    Yields ``(block, row_nnz, indices, data)``: the block's entries per row
    and its rows of C in CSR order.  ``gathers``, when given, is four
    arrays the kernel fills as it goes — A's stored entries in walk order
    and the products each emits (``nnz(A)`` long), then B's stored entry
    and C's entry behind each product (one per product, in stream order) —
    the arrays of a :class:`~repro.plan.cache.NumericRecipe` and of
    :func:`gather_reduce`.  ``steps``, when given, adds up the seconds of
    the two steps, the walk with the products (``"expansion"``) and the
    numbering with the reduction (``"merge"``), over the blocks.
    """
    n_cols = b.shape[1]
    check_key_space(a.shape[0], n_cols)
    if order not in (PAIR_ORDER, ROW_ORDER):
        raise ValueError(f"unknown expansion order {order!r}")
    if blocks is None:
        blocks = row_cut(a, b)
    key = None
    if rank is not None and np.any(rank):
        key = rank
        if order == PAIR_ORDER:
            key = np.empty(a.shape[1], dtype=np.int64)
            key[np.argsort(rank, kind="stable")] = np.arange(a.shape[1])
    n_out = 0
    for blk in blocks:
        t0 = time.perf_counter()
        walk, counts, b_idx, cells = _walk(a, b, blk, order, key)
        e0 = int(a.indptr[blk.start])
        e1 = e0 + len(counts)
        if walk is not None:
            walk += e0
        a_vals = a.data[e0:e1] if walk is None else a.data[walk]
        vals = combine(np.repeat(a_vals, counts), b.data[b_idx])
        t1 = time.perf_counter()
        occupied, entry = _number(cells, blk, n_cols, ids=True)
        rows, indices = np.divmod(occupied, n_cols)
        row_nnz = np.bincount(rows, minlength=blk.stop - blk.start)
        data = np.full(len(occupied), identity, dtype=np.float64)
        reduce.at(data, entry, vals)
        if gathers is not None:
            a_entries, a_counts, b_gather, group = gathers
            a_entries[e0:e1] = np.arange(e0, e1) if walk is None else walk
            a_counts[e0:e1] = counts
            b_gather[blk.lo : blk.hi] = b_idx
            np.add(entry, np.int64(n_out), out=group[blk.lo : blk.hi])
        n_out += len(occupied)
        if steps is not None:
            steps["expansion"] = steps.get("expansion", 0.0) + t1 - t0
            steps["merge"] = steps.get("merge", 0.0) + time.perf_counter() - t1
        yield blk, row_nnz, indices, data


def _join(parts: list[np.ndarray], dtype) -> np.ndarray:
    """The blocks' arrays end to end (one block's without a copy)."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def spgemm(
    a,
    b,
    order: str,
    rank=None,
    *,
    gathers: bool = False,
    steps: dict | None = None,
    combine=operator.mul,
    reduce=np.add,
    identity: float = 0.0,
):
    """``C = A·B`` in canonical CSR: :func:`stream`'s blocks, joined.

    Returns ``(indptr, indices, data, gathers)``, ``gathers`` being
    ``(a_entries, counts, b_gather, group)`` (see :func:`stream`) when asked
    for, else None.  The cut is :func:`row_cut`'s, which recipes depend on:
    in pair order a block's walk, and so the stream order, follows the cut.
    """
    blocks = row_cut(a, b)
    captured = None
    if gathers:
        n_products = blocks[-1].hi if blocks else 0
        captured = (
            np.empty(len(a.indices), dtype=np.int64),
            np.empty(len(a.indices), dtype=b.indptr.dtype),
            np.empty(n_products, dtype=np.int64),
            np.empty(n_products, dtype=np.int64),
        )
    n_rows = a.shape[0]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    indices, data = [], []
    algebra = {"combine": combine, "reduce": reduce, "identity": identity}
    for blk, blk_nnz, blk_indices, blk_data in stream(
        a, b, order, rank, blocks, gathers=captured, steps=steps, **algebra
    ):
        indptr[blk.start + 1 : blk.stop + 1] = blk_nnz
        indices.append(blk_indices)
        data.append(blk_data)
    np.cumsum(indptr, out=indptr)
    return indptr, _join(indices, np.int64), _join(data, np.float64), captured


def row_nnz(a, b, ends: np.ndarray | None = None) -> np.ndarray:
    """Entries of C per row, from structure alone: the symbolic pass.

    The kernel's walk over the kernel's cut, in row order, without values:
    each block builds its products' cells and counts the distinct ones per
    row, by mask or by sort (:func:`row_blocks` picks).  ``ends`` is the
    prefix sum of each row's products, computed when not given.
    """
    n_cols = b.shape[1]
    blocks = row_cut(a, b) if ends is None else row_blocks(ends, n_cols)
    out = np.zeros(a.shape[0], dtype=np.int64)
    for blk in blocks:
        if blk.hi > blk.lo:
            cells = _walk(a, b, blk, ROW_ORDER, None)[3]
            out[blk.start : blk.stop] = _number(cells, blk, n_cols, ids=False)
    return out


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

    The kernel's numbering and reduction over the caller's triplets in
    their given order, so duplicates reduce in input order.  Coordinates
    must lie inside ``shape``.  Returns ``(indptr, indices, data)``.
    """
    n_rows, n_cols = shape
    check_key_space(n_rows, n_cols)
    keys = rows.astype(np.int64, copy=False) * np.int64(n_cols) + cols
    # Triplets arrive in any order: one block, sorted.
    blk = RowBlock(0, n_rows, 0, len(keys), False)
    occupied, entry = _number(keys, blk, n_cols, ids=True)
    data = np.full(len(occupied), identity, dtype=np.float64)
    reduce.at(data, entry, vals)
    rows, indices = np.divmod(occupied, n_cols)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
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
    """Recipe replay: the kernel's arithmetic on fresh operand values.

    The arguments are :func:`stream`'s gathers.  Entries ``e0:e1``, whose
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

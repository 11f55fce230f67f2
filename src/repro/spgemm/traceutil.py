"""Shared trace-construction helpers for the spGEMM schemes.

All builders are vectorised over NumPy arrays of per-pair / per-row workloads;
none of them loops over blocks in Python.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.gpusim.block import BlockArray, BlockArrayBuilder
from repro.gpusim.costs import CostModel

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.spgemm.base import MultiplyContext

__all__ = [
    "ceil_div",
    "round_up_warp",
    "outer_pair_blocks",
    "row_chunk_blocks",
    "entry_chunk_blocks",
    "merge_blocks",
    "ctx_merge_blocks",
    "group_by_budget",
]


def ceil_div(a, b):
    """Integer ceiling division, elementwise."""
    return -(-a // b)


def round_up_warp(threads: np.ndarray | int, warp: int = 32) -> np.ndarray | int:
    """Round thread counts up to a whole number of warps (min one warp)."""
    return np.maximum(warp, ceil_div(threads, warp) * warp)


def outer_pair_blocks(
    na: np.ndarray,
    nb: np.ndarray,
    costs: CostModel,
    *,
    fixed_threads: int | None = None,
    max_threads: int = 256,
    smem_bytes: int = 2048,
    extra_unique_bytes: np.ndarray | float = 0.0,
    shared_b_fraction: np.ndarray | float = 0.0,
) -> BlockArray:
    """Expansion blocks for outer-product column/row pairs.

    Pair ``k`` launches one block: ``nb_k`` threads (one per b-row element),
    each iterating over the ``na_k`` a-column elements.  ``fixed_threads``
    models the baseline's fixed block size (the inefficiency B-Gathering
    removes); when None, blocks are sized to their effective threads as the
    Block Reorganizer does.

    Args:
        na: a-column nnz per pair (computations per thread).
        nb: b-row nnz per pair (effective threads).
        costs: cost model (bytes per entry).
        fixed_threads: allocate exactly this many threads per block.
        max_threads: cap for sized blocks; wider rows coarsen iterations.
        smem_bytes: shared-memory footprint per block.
        extra_unique_bytes: additional first-touch traffic per block (e.g.
            mapper-array reads for split blocks).
        shared_b_fraction: fraction of the b-row bytes that sibling blocks
            also read and therefore hit in L2 rather than DRAM.  B-Splitting
            sets this to ``1 - 1/factor``: split blocks deliberately share
            identical vectors (the cache dividend of Section VI-A2).
    """
    na = np.asarray(na, dtype=np.int64)
    nb = np.asarray(nb, dtype=np.int64)
    if len(na) == 0:
        return BlockArray.empty()
    bpe = costs.bytes_per_entry

    effective = np.minimum(nb, max_threads)
    if fixed_threads is None:
        threads = round_up_warp(effective)
    else:
        threads = np.full(len(na), fixed_threads, dtype=np.int64)
        effective = np.minimum(nb, fixed_threads)

    coarsen = ceil_div(nb, np.maximum(effective, 1))
    iters = (na * coarsen).astype(np.float64)
    ops = na * nb
    shared = np.asarray(shared_b_fraction, dtype=np.float64)
    unique = (na + nb * (1.0 - shared)) * bpe + np.asarray(
        extra_unique_bytes, dtype=np.float64
    )
    reuse = ops * 8.0 + nb * shared * bpe  # broadcast a re-reads + shared b
    writes = ops * bpe
    # Outer-product traffic is coalesced: sequential source vectors and
    # contiguous per-iteration output segments — the scheme's key memory
    # advantage over the row product.
    transactions = ((na + nb) * bpe + ops * bpe) / 32.0 + 2.0

    builder = BlockArrayBuilder()
    builder.add_blocks(
        threads=threads,
        effective_threads=effective,
        iters=iters,
        ops=ops,
        unique_bytes=unique,
        reuse_bytes=reuse,
        write_bytes=writes,
        smem_bytes=smem_bytes,
        working_set=(na + nb) * bpe,
        transactions=transactions,
    )
    return builder.build()


def row_chunk_blocks(
    row_work: np.ndarray,
    a_row_nnz: np.ndarray,
    costs: CostModel,
    *,
    threads: int = 128,
    rows_per_thread: int = 1,
    work_granularity: int = 1,
    instr_scale: float = 1.0,
    traffic_scale: float = 1.0,
    smem_bytes: int = 2048,
) -> BlockArray:
    """Expansion blocks for row-product schemes.

    Rows are assigned to threads in launch order, ``threads`` rows per block
    (scalar-CSR style, ``work_granularity=1``) or one *warp* per row
    (vector-CSR style, ``work_granularity=32``, as cuSPARSE-like schemes do).
    The block's critical path is the heaviest thread — the paper's
    thread-level load-imbalance problem.

    Args:
        row_work: intermediate products produced per output row.
        a_row_nnz: nnz of each A row (first-touch traffic).
        costs: cost model.
        threads: threads per block.
        rows_per_thread: row coarsening factor.
        work_granularity: lanes cooperating on one row (1 = thread-per-row,
            32 = warp-per-row).
        instr_scale: multiplier folded into iteration counts (hash insertion
            and similar per-product overheads of library schemes).
        traffic_scale: multiplier on memory traffic (hash-table spills and
            probe chains of library schemes).
        smem_bytes: shared-memory footprint per block.
    """
    row_work = np.asarray(row_work, dtype=np.int64)
    n_rows = len(row_work)
    if n_rows == 0:
        return BlockArray.empty()
    bpe = costs.bytes_per_entry

    lanes = max(1, threads // work_granularity)  # row slots per block
    rows_per_block = lanes * rows_per_thread
    n_blocks = int(ceil_div(n_rows, rows_per_block))
    pad = n_blocks * rows_per_block - n_rows

    work = np.pad(row_work, (0, pad)).reshape(n_blocks, rows_per_block)
    nnz_a = np.pad(np.asarray(a_row_nnz, dtype=np.int64), (0, pad)).reshape(
        n_blocks, rows_per_block
    )

    per_row_iters = ceil_div(work, work_granularity) * instr_scale
    # Within a thread, coarsened rows run back-to-back; across threads the
    # block waits for the heaviest lane.
    lane_iters = per_row_iters.reshape(n_blocks, lanes, rows_per_thread).sum(axis=2)
    iters = lane_iters.max(axis=1).astype(np.float64)
    ops = work.sum(axis=1)
    active_rows = (work > 0).sum(axis=1)
    effective = np.minimum(active_rows * work_granularity, threads)

    unique = (nnz_a.sum(axis=1) + ops) * bpe * traffic_scale
    reuse = ops * 4.0 * traffic_scale
    writes = ops * bpe * traffic_scale
    # Gathered reads from scattered b-rows are barely coalesced.
    transactions = ops / max(1.0, work_granularity / 4.0) * traffic_scale

    builder = BlockArrayBuilder()
    builder.add_blocks(
        threads=threads,
        effective_threads=effective,
        iters=iters,
        ops=ops,
        unique_bytes=unique,
        reuse_bytes=reuse,
        write_bytes=writes,
        smem_bytes=smem_bytes,
        working_set=unique,
        transactions=transactions,
    )
    mask = ops > 0
    return builder.build().select(mask)


def entry_chunk_blocks(
    entry_work: np.ndarray,
    costs: CostModel,
    *,
    threads: int = 128,
    instr_scale: float = 1.0,
    smem_bytes: int = 2048,
) -> BlockArray:
    """Expansion blocks for the row-product baseline: thread per A-entry.

    The paper's Figure 2 assigns one thread to each non-zero of A; thread
    ``e`` multiplies its a-value by the whole of B's row ``col(e)``.  Load
    imbalance within a block therefore follows the *B row-length* variance —
    milder than whole-output-row imbalance, but still the thread-level
    problem the paper attributes to the row-product scheme.

    Args:
        entry_work: per A-entry product count (``nnz(b_{col(e)*})``), in CSR
            order.
        costs: cost model.
        threads: entries per block.
        instr_scale: per-product instruction multiplier.
        smem_bytes: shared-memory footprint per block.
    """
    entry_work = np.asarray(entry_work, dtype=np.int64)
    n = len(entry_work)
    if n == 0:
        return BlockArray.empty()
    bpe = costs.bytes_per_entry

    n_blocks = int(ceil_div(n, threads))
    pad = n_blocks * threads - n
    work = np.pad(entry_work, (0, pad)).reshape(n_blocks, threads)

    iters = work.max(axis=1).astype(np.float64) * instr_scale
    ops = work.sum(axis=1)
    effective = np.minimum((work > 0).sum(axis=1), threads)

    unique = (threads + ops) * bpe  # a-entries plus first touch of b-rows
    reuse = ops * 4.0  # b-rows shared between threads sometimes hit cache
    writes = ops * bpe
    # Each thread streams a different b-row and writes its own output cursor:
    # within a warp the accesses interleave 32 streams, degrading coalescing
    # versus the outer product (costs.row_exp_bytes_per_op).
    transactions = ops * costs.row_exp_bytes_per_op / 32.0 + threads

    builder = BlockArrayBuilder()
    builder.add_blocks(
        threads=threads,
        effective_threads=effective,
        iters=iters,
        ops=ops,
        unique_bytes=unique,
        reuse_bytes=reuse,
        write_bytes=writes,
        smem_bytes=smem_bytes,
        working_set=unique,
        transactions=transactions,
    )
    mask = ops > 0
    return builder.build().select(mask)


def group_by_budget(values: np.ndarray, budget: int) -> np.ndarray:
    """Assign consecutive items to groups of roughly ``budget`` total value.

    Returns a group id per item.  Items larger than the budget get their own
    group.  Used to pack light merge rows into shared blocks.
    """
    values = np.asarray(values, dtype=np.int64)
    if len(values) == 0:
        return np.zeros(0, dtype=np.int64)
    cum = np.cumsum(values)
    return ((cum - values) // max(budget, 1)).astype(np.int64)


def merge_blocks(
    row_work: np.ndarray,
    c_row_nnz: np.ndarray,
    costs: CostModel,
    *,
    threads: int = 256,
    chunk_target: int = 4096,
    row_form: bool = False,
    smem_bytes: int = 4096,
    row_mask: np.ndarray | None = None,
) -> BlockArray:
    """Merge-phase blocks: dense-accumulator accumulation per output row.

    Heavy rows (work ≥ ``chunk_target``) get a dedicated block; light rows are
    packed, in row order, into blocks of roughly ``chunk_target`` accumulated
    elements.  ``row_form`` models the row-product scheme's cheaper row-wise
    accumulation (better write coalescing); matrix-form (outer product) pays
    scattered atomics — the overhead B-Limiting addresses.

    Args:
        row_work: intermediate elements per output row (k_r).
        c_row_nnz: unique outputs per row (u_r); collisions are k_r - u_r.
        costs: cost model.
        threads: threads per merge block.
        chunk_target: target accumulated elements per block.
        row_form: row-wise accumulation (row-product baseline).
        smem_bytes: shared memory per block (B-Limiting inflates this).
        row_mask: restrict to these rows (B-Limiting splits heavy/light).
    """
    k = np.asarray(row_work, dtype=np.int64)
    u = np.asarray(c_row_nnz, dtype=np.int64)
    if row_mask is not None:
        k = np.where(row_mask, k, 0)
        u = np.where(row_mask, u, 0)
    active = k > 0
    if not active.any():
        return BlockArray.empty()
    k = k[active]
    u = u[active]
    bpe = costs.bytes_per_entry

    heavy = k >= chunk_target
    builder = BlockArrayBuilder()

    def _add(kk: np.ndarray, uu: np.ndarray) -> None:
        if len(kk) == 0:
            return
        iters = ceil_div(kk, threads).astype(np.float64)
        collisions = kk - uu
        unique = kk * bpe  # read back the intermediate elements
        writes = uu * bpe
        if row_form:
            # Row-wise accumulation: sequential buffers, no shared-accumulator
            # atomics; modest reuse, well-coalesced transactions.
            reuse = kk * 4.0
            transactions = kk * costs.merge_row_sectors_per_elem + uu * bpe / 32.0
        else:
            # Matrix-form dense accumulator: every element is an atomic
            # read-modify-write against the row's accumulator array, which
            # lives in cache only while co-resident working sets fit — the
            # contention B-Limiting relieves.
            reuse = kk * 16.0
            transactions = kk * costs.merge_matrix_sectors_per_elem + uu * bpe / 32.0
        builder.add_blocks(
            threads=threads,
            effective_threads=np.minimum(kk, threads),
            iters=iters,
            ops=kk,
            unique_bytes=unique,
            reuse_bytes=reuse,
            write_bytes=writes,
            smem_bytes=smem_bytes,
            working_set=uu * 16.0 + 1024.0,
            atomics=kk,
            collisions=collisions,
            transactions=transactions,
        )

    _add(k[heavy], u[heavy])

    light_k, light_u = k[~heavy], u[~heavy]
    if len(light_k):
        groups = group_by_budget(light_k, chunk_target)
        n_groups = int(groups[-1]) + 1
        kk = np.bincount(groups, weights=light_k, minlength=n_groups).astype(np.int64)
        uu = np.bincount(groups, weights=light_u, minlength=n_groups).astype(np.int64)
        _add(kk, uu)

    return builder.build()


def ctx_merge_blocks(ctx: MultiplyContext, costs: CostModel, **kwargs) -> BlockArray:
    """:func:`merge_blocks` for ``ctx``'s output rows, keyword arguments passed on.

    Lowerings defer it, ``partial(ctx_merge_blocks, ctx, costs, ...)``, as a
    merge phase's block builder (:class:`~repro.plan.ir.PlanPhase`): it
    reads ``ctx.c_row_nnz`` only when called, after a numeric run has filled
    it or, on the performance plane, through the symbolic pass.
    """
    return merge_blocks(ctx.row_work, ctx.c_row_nnz, costs, **kwargs)

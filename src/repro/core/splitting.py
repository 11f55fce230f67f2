"""B-Splitting (Section IV-C1): divide overloaded blocks.

In the paper, dominator column vectors are copied into a temporary matrix
A' whose column pointers are expanded so that each original dominator column
becomes several smaller columns; a *mapper array* records which original
pair every split column came from, so products land in exactly the same
output coordinates.  Split blocks therefore compute exactly the dominator
pairs' products — "the same results as the original vector pairs" — and
splitting is a performance-plane decision only: :func:`plan_splitting`
chooses the per-dominator splitting factor (a power of two, chosen greedily
so dominator work spreads over more blocks than the GPU has SMs) and the
per-split-block workloads.  The numeric plane computes the dominator pairs
whole (:class:`~repro.plan.passes.SplitPass` keeps their coverage), and the
host is charged for building A' (``split_entries``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "SplitPlan",
    "choose_split_factors",
    "plan_splitting",
]


@dataclass(frozen=True)
class SplitPlan:
    """Result of planning B-Splitting over the dominator pairs.

    Attributes:
        pair_ids: original pair id of each split block.
        na: a-column entries handled by each split block.
        nb: b-row entries (effective threads) of each split block — splitting
            never divides the row vector, per the paper, so this repeats the
            dominator's nb.
        factors: chosen splitting factor per dominator (aligned with
            ``dominator_ids``).
        dominator_ids: the dominator pair ids, in classification order.
        split_entries: total a-entries copied into A' (host preprocessing
            cost driver).
    """

    pair_ids: np.ndarray
    na: np.ndarray
    nb: np.ndarray
    factors: np.ndarray
    dominator_ids: np.ndarray
    split_entries: int

    @property
    def n_blocks(self) -> int:
        return len(self.pair_ids)


def choose_split_factors(
    na: np.ndarray, n_sms: int, factor_override: int | None = None
) -> np.ndarray:
    """Per-dominator splitting factor: the paper's greedy power-of-two rule.

    The factor is the smallest power of two at least ``2 * n_sms`` (so split
    blocks outnumber SMs), capped so no piece becomes empty (factor ≤ na).
    ``factor_override`` pins the factor for the Figure 11 sweep.
    """
    na = np.asarray(na, dtype=np.int64)
    if factor_override is not None:
        if factor_override < 1:
            raise ConfigurationError(f"splitting factor must be >= 1, got {factor_override}")
        target = int(factor_override)
    else:
        target = 1 << int(np.ceil(np.log2(max(2 * n_sms, 2))))
    cap = np.maximum(1, np.minimum(target, na))
    # Round the cap down to a power of two so factors stay 2^n.
    cap_pow2 = (1 << np.floor(np.log2(cap)).astype(np.int64)).astype(np.int64)
    return np.minimum(target, cap_pow2)


def plan_splitting(
    na: np.ndarray,
    nb: np.ndarray,
    dominator_mask: np.ndarray,
    n_sms: int,
    *,
    factor_override: int | None = None,
) -> SplitPlan:
    """Plan split blocks for every dominator pair.

    Each dominator with ``na_k`` column entries and factor ``f_k`` yields
    ``f_k`` blocks of ``ceil/floor(na_k / f_k)`` entries (the first
    ``na_k mod f_k`` blocks take the extra element).
    """
    dominator_ids = np.flatnonzero(dominator_mask)
    if len(dominator_ids) == 0:
        zi = np.zeros(0, dtype=np.int64)
        return SplitPlan(zi, zi, zi.copy(), zi.copy(), zi.copy(), 0)

    dom_na = np.asarray(na, dtype=np.int64)[dominator_ids]
    dom_nb = np.asarray(nb, dtype=np.int64)[dominator_ids]
    factors = choose_split_factors(dom_na, n_sms, factor_override)

    pair_ids = np.repeat(dominator_ids, factors)
    base = np.repeat(dom_na // factors, factors)
    remainder = dom_na % factors
    starts = np.cumsum(factors) - factors
    offsets = np.arange(int(factors.sum()), dtype=np.int64) - np.repeat(starts, factors)
    split_na = base + (offsets < np.repeat(remainder, factors))
    split_nb = np.repeat(dom_nb, factors)

    keep = split_na > 0
    return SplitPlan(
        pair_ids=pair_ids[keep],
        na=split_na[keep],
        nb=split_nb[keep],
        factors=factors,
        dominator_ids=dominator_ids,
        split_entries=int(dom_na.sum() + dom_nb.sum()),
    )

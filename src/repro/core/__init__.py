"""The Block Reorganizer optimization pass (the paper's contribution)."""

from repro.core.classify import WorkloadClasses, classify_pairs
from repro.core.gathering import GatherPlan, gathering_factor, plan_gathering
from repro.core.limiting import LIMIT_SMEM_STEP, limited_row_mask, limiting_smem_bytes
from repro.core.reorganizer import (
    BlockReorganizer,
    ReorganizerOptions,
    options_from_pipeline,
    plan_pipeline,
)
from repro.core.splitting import (
    SplitPlan,
    choose_split_factors,
    plan_splitting,
)

__all__ = [
    "WorkloadClasses",
    "classify_pairs",
    "GatherPlan",
    "gathering_factor",
    "plan_gathering",
    "LIMIT_SMEM_STEP",
    "limited_row_mask",
    "limiting_smem_bytes",
    "BlockReorganizer",
    "ReorganizerOptions",
    "options_from_pipeline",
    "plan_pipeline",
    "SplitPlan",
    "choose_split_factors",
    "plan_splitting",
]

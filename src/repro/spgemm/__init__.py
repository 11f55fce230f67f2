"""spGEMM schemes: numeric engine, baselines and library comparators."""

from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm
from repro.spgemm.expansion import expand_outer
from repro.spgemm.merge import merge_triplets, symbolic_row_nnz
from repro.spgemm.session import IterativeSession
from repro.spgemm.outerproduct import OuterProductSpGEMM
from repro.spgemm.reference import reference_spgemm
from repro.spgemm.rowproduct import RowProductSpGEMM
from repro.spgemm.semiring import (
    MAX_TIMES,
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    Semiring,
    semiring_spgemm,
)

__all__ = [
    "MultiplyContext",
    "SpGEMMAlgorithm",
    "IterativeSession",
    "expand_outer",
    "merge_triplets",
    "symbolic_row_nnz",
    "OuterProductSpGEMM",
    "RowProductSpGEMM",
    "reference_spgemm",
    "Semiring",
    "semiring_spgemm",
    "PLUS_TIMES",
    "OR_AND",
    "MIN_PLUS",
    "MAX_TIMES",
]

"""spGEMM schemes: numeric engine, baselines and library comparators."""

from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm
from repro.spgemm.outerproduct import OuterProductSpGEMM
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
    "OuterProductSpGEMM",
    "RowProductSpGEMM",
    "Semiring",
    "semiring_spgemm",
    "PLUS_TIMES",
    "OR_AND",
    "MIN_PLUS",
    "MAX_TIMES",
]

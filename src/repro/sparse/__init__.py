"""Sparse matrix substrate: formats, conversions, generators, statistics."""

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.convert import (
    coo_to_csc,
    coo_to_csr,
    csc_to_coo,
    csc_to_csr,
    csr_to_coo,
    csr_to_csc,
)
from repro.sparse.ops import (
    add,
    check_multipliable,
    scale,
    spmv,
)
from repro.sparse.random import banded_regular, degree_sequence_matrix, power_law, uniform_random
from repro.sparse.rmat import RMATParams, rmat, rmat_graph500
from repro.sparse.stats import DegreeStats, degree_stats, gini, is_skewed, top_share

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "coo_to_csr",
    "coo_to_csc",
    "csr_to_csc",
    "csc_to_csr",
    "csr_to_coo",
    "csc_to_coo",
    "add",
    "check_multipliable",
    "scale",
    "spmv",
    "banded_regular",
    "degree_sequence_matrix",
    "power_law",
    "uniform_random",
    "RMATParams",
    "rmat",
    "rmat_graph500",
    "DegreeStats",
    "degree_stats",
    "gini",
    "is_skewed",
    "top_share",
]

"""Semiring spGEMM: the numeric kernel over other algebras.

Graph analytics often needs matrix multiplication over a semiring other than
(+, x): boolean (or, and) for reachability, tropical (min, +) for shortest
paths, (max, x) for widest paths.  The expansion is algebra-agnostic — only
the per-product combine and the merge's reduce change — so a
:class:`Semiring` is passed to the one numeric kernel,
:func:`repro.kernels.spgemm`, as its ``combine``, ``reduce`` and
``identity``; an entry reduced to the identity is dropped.

Performance-wise a semiring product launches the same thread blocks as the
numeric product (identical sparsity work), so any
:class:`~repro.spgemm.base.SpGEMMAlgorithm` trace/simulation applies
unchanged; only the numeric plane differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import kernels
from repro.errors import ConfigurationError
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import check_multipliable
from repro.spgemm.base import validate_operands


@dataclass(frozen=True)
class Semiring:
    """An algebra for sparse matrix multiplication.

    Attributes:
        name: identifier ("plus-times", "or-and", "min-plus", ...).
        combine: vectorised binary op replacing the scalar multiply.
        reduce: NumPy ufunc replacing the scalar add in the merge; each
            entry is reduced from ``identity`` with in-order ``reduce.at``.
        identity: the reduce identity (what an absent entry means).
    """

    name: str
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(hash=False)
    reduce: np.ufunc = field(hash=False)
    identity: float

    def __post_init__(self) -> None:
        if not hasattr(self.reduce, "at"):
            raise ConfigurationError("reduce must be a NumPy ufunc (the merge calls reduce.at)")

    @property
    def algebra(self) -> dict:
        """The numeric kernel's algebra arguments for this semiring."""
        return {"combine": self.combine, "reduce": self.reduce, "identity": self.identity}

    def drop_identity(self, c: CSRMatrix) -> CSRMatrix:
        """``c`` without the entries equal to the identity (an explicit
        identity is indistinguishable from an absent entry)."""
        keep = c.data != self.identity
        row_of = np.repeat(np.arange(c.n_rows, dtype=np.int64), c.row_nnz())[keep]
        indptr = np.zeros(c.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of, minlength=c.n_rows), out=indptr[1:])
        return CSRMatrix(c.shape, indptr, c.indices[keep], c.data[keep])


PLUS_TIMES = Semiring("plus-times", np.multiply, np.add, 0.0)
"""The standard arithmetic semiring (ordinary matrix multiplication)."""

OR_AND = Semiring(
    "or-and",
    lambda a, b: ((a != 0) & (b != 0)).astype(np.float64),
    np.maximum,
    0.0,
)
"""Boolean semiring: entry (i, j) of C is 1 iff some k connects i to j."""

MIN_PLUS = Semiring("min-plus", np.add, np.minimum, np.inf)
"""Tropical semiring: entry (i, j) of C is the cheapest 2-leg path cost."""

MAX_TIMES = Semiring("max-times", np.multiply, np.maximum, 0.0)
"""Widest/most-reliable-path semiring over probabilities in [0, 1].

Its domain is non-negative values: each entry is reduced from the identity
0, so an entry whose products are all negative reduces to 0 and is dropped.
"""

__all__ = [
    "Semiring",
    "PLUS_TIMES",
    "OR_AND",
    "MIN_PLUS",
    "MAX_TIMES",
    "semiring_spgemm",
]


def semiring_spgemm(
    a: CSRMatrix, b: CSRMatrix | None = None, semiring: Semiring = PLUS_TIMES
) -> CSRMatrix:
    """Compute ``a (x) b`` over an arbitrary semiring.

    The numeric kernel in pair order (the outer product) with the
    semiring's algebra: each entry is reduced in ascending k, so
    ``PLUS_TIMES`` equals the outer-product numeric product.  Entries equal
    to the reduce identity are dropped.
    """
    b = a if b is None else b
    validate_operands(a, b)
    c, _ = semiring_kernel(a, b, semiring)
    return semiring.drop_identity(c)


def semiring_kernel(
    a: CSRMatrix, b: CSRMatrix, semiring: Semiring, *, gathers: bool = False
) -> tuple[CSRMatrix, tuple | None]:
    """:func:`repro.kernels.spgemm` in pair order over ``semiring``'s algebra.

    Entries equal to the identity are kept (see
    :meth:`Semiring.drop_identity`).  The operands are not validated.
    Returns ``(C, gathers)``, the gathers as the kernel's.
    """
    check_multipliable(a.shape, b.shape)
    indptr, indices, data, captured = kernels.spgemm(
        a, b, kernels.PAIR_ORDER, gathers=gathers, **semiring.algebra
    )
    return CSRMatrix((a.n_rows, b.n_cols), indptr, indices, data), captured

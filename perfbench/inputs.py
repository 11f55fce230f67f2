"""Seeded operands, the scipy oracle and result digests.

Operands come only from :mod:`repro.sparse.random`: ``banded_regular``
stands in for the paper's Florida meshes and ``power_law`` for its SNAP
graphs.  Structures arrive in rounds of three — two banded, one power-law —
so every workload sees a fixed 2:1 mix: a median lands inside the banded
class and a tail inside the (heavier) power-law class.

Everything is a pure function of ``(seed, workload, structure index, value
repetition)``, so the parent process can regenerate any operand a worker or
the server saw and check the result after the timed window.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.random import banded_regular, power_law

#: Class of each structure within a round of three.
ROUND = ("banded", "banded", "power_law")

#: Generator arguments per size table and class.  ``standard`` feeds
#: compare, multiply and chunked; ``serve`` keeps JSON responses well under
#: a few MB.
SIZES = {
    "standard": {
        "banded": {"n": 1500, "nnz_per_row": 16},
        "power_law": {"n": 3000, "nnz": 20000},
    },
    "serve": {
        "banded": {"n": 400, "nnz_per_row": 8},
        "power_law": {"n": 600, "nnz": 3000},
    },
}

#: The scheme each numeric workload multiplies with.  chunked runs
#: row-product: under a memory budget the Block Reorganizer splits hub rows
#: per panel, so on power-law operands its chunked result differs from the
#: in-memory one in the last bits and would fail the digest check.
ALGORITHMS = {
    "multiply": "block-reorganizer",
    "chunked": "row-product",
    "serve": "block-reorganizer",
}

_WORKLOAD_IDS = {"compare": 1, "multiply": 2, "chunked": 3, "serve": 4}


def structure_class(index: int) -> str:
    """``banded`` or ``power_law`` for the ``index``-th structure."""
    return ROUND[index % len(ROUND)]


def _seed(seed: int, workload: str, *tags: int) -> int:
    state = np.random.SeedSequence([seed, _WORKLOAD_IDS[workload], *tags])
    return int(state.generate_state(1)[0])


def structure(seed: int, workload: str, index: int, sizes: str = "standard") -> CSRMatrix:
    """The ``index``-th operand structure (with its first values)."""
    cls = structure_class(index)
    kwargs = SIZES[sizes][cls]
    s = _seed(seed, workload, index)
    coo = banded_regular(seed=s, **kwargs) if cls == "banded" else power_law(seed=s, **kwargs)
    return coo.to_csr()


def with_values(a: CSRMatrix, seed: int, workload: str, index: int, rep: int) -> CSRMatrix:
    """``a``'s structure with fresh values; ``rep == 0`` keeps ``a`` as is."""
    if rep == 0:
        return a
    rng = np.random.default_rng(_seed(seed, workload, index, rep))
    return CSRMatrix(a.shape, a.indptr, a.indices, rng.random(a.nnz) + 0.5)


def operand(seed: int, workload: str, index: int, rep: int, sizes: str = "standard") -> CSRMatrix:
    """Regenerate exactly the operand of op ``(index, rep)``."""
    return with_values(structure(seed, workload, index, sizes), seed, workload, index, rep)


def digest(m: CSRMatrix) -> str:
    """SHA-256 over shape, structure and value bits of a CSR result."""
    h = hashlib.sha256()
    h.update(np.asarray(m.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(m.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(m.indices, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(m.data, dtype=np.float64).tobytes())
    return h.hexdigest()


def oracle_mismatch(a: CSRMatrix, c: CSRMatrix) -> str | None:
    """Compare ``c`` with scipy's ``a @ a``; ``None`` when it agrees.

    Structure must be identical; values may differ by summation-order
    rounding only (all generated values are positive, so no product
    cancels and no explicit zero appears).
    """
    import scipy.sparse as sp

    ref = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    ref = (ref @ ref).tocsr()
    ref.sort_indices()
    if tuple(c.shape) != tuple(ref.shape):
        return f"shape {c.shape} != {ref.shape}"
    if not np.array_equal(np.asarray(c.indptr), ref.indptr):
        return "row structure differs from scipy"
    if not np.array_equal(np.asarray(c.indices), ref.indices):
        return "column structure differs from scipy"
    if not np.allclose(c.data, ref.data, rtol=1e-12, atol=0.0):
        return "values differ from scipy beyond rounding"
    return None

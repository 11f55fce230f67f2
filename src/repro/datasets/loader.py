"""Dataset loader: turn a catalog spec into concrete matrices.

Generation is deterministic (seeded), and loaded datasets are cached in-process
because benches touch the same matrix under several algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import DatasetError
from repro.datasets.catalog import DatasetSpec, get_spec
from repro.sparse.csr import CSRMatrix
from repro.sparse.random import banded_regular, power_law
from repro.sparse.rmat import RMATParams, rmat_general, rmat_graph500

__all__ = ["LoadedDataset", "load", "clear_cache"]


@dataclass(frozen=True)
class LoadedDataset:
    """A generated dataset ready for multiplication.

    Attributes:
        spec: the catalog entry this was generated from.
        a: left operand in CSR.
        b: right operand in CSR (same object as ``a`` for ``C = A^2``).
    """

    spec: DatasetSpec
    a: CSRMatrix
    b: CSRMatrix

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def expansion_work(self) -> int:
        """nnz(C-hat): total intermediate products of ``a @ b``."""
        from repro.plan.estimate import multiply_flops

        return multiply_flops(self.a, self.b)


#: Keyed by ``(name, recipe fingerprint)``: a respecified dataset (changed
#: generator params or seed under the same name) regenerates instead of
#: serving the stale matrices.
_CACHE: dict[tuple[str, str], LoadedDataset] = {}


def clear_cache() -> None:
    """Drop all cached datasets (tests use this to bound memory)."""
    _CACHE.clear()


def load(name: str) -> LoadedDataset:
    """Generate (or fetch from cache) the dataset registered under ``name``."""
    from repro.bench.fingerprint import context_key

    spec = get_spec(name)
    key = (name, context_key(spec))
    if key in _CACHE:
        return _CACHE[key]
    with obs.span(f"dataset.load[{name}]", "data") as sp:
        a_coo, b_coo = _generate(spec)
        a = a_coo.to_csr()
        b = b_coo.to_csr() if b_coo is not None else a
        loaded = LoadedDataset(spec=spec, a=a, b=b)
        sp.add(nnz_a=a.nnz, nnz_b=b.nnz, rows=a.n_rows)
    _CACHE[key] = loaded
    return loaded


def _generate(spec: DatasetSpec):
    """Dispatch to the generator named in the spec.

    Returns ``(a_coo, b_coo)`` with ``b_coo`` None for ``C = A^2`` datasets.
    """
    params = dict(spec.params)
    if spec.generator == "banded_regular":
        return banded_regular(seed=spec.seed, **params), None
    if spec.generator == "power_law":
        return power_law(seed=spec.seed, **params), None
    if spec.generator == "rmat_general":
        probs = params.pop("probs")
        rmat_params = RMATParams(*probs)
        return rmat_general(params=rmat_params, seed=spec.seed, **params), None
    if spec.generator == "rmat_graph500_pair":
        a = rmat_graph500(seed=spec.seed, **params)
        b = rmat_graph500(seed=spec.seed + 50_000, **params)
        return a, b
    raise DatasetError(f"unknown generator {spec.generator!r} for {spec.name!r}")

"""repro.oocore — memory-budgeted out-of-core spGEMM execution.

The paper's full-scale networks expand to intermediate product streams far
larger than the stand-in datasets the rest of the pipeline defaults to.
This package runs those multiplies under an explicit memory budget
(``--mem-budget`` on the CLI) as the one streaming numeric kernel
(:func:`repro.kernels.stream`) plus a spill sink:

* :mod:`repro.oocore.budget` — budget parsing and the bytes-per-product
  working-set model that caps the kernel's row blocks.
* :mod:`repro.oocore.spill` — the crash-safe, content-addressed disk store
  for partials evicted from the resident set.
* :mod:`repro.oocore.executor` — :func:`chunked_multiply`, which lowers
  once on the whole operand, runs the kernel with the global plan's tie
  ranks on row blocks the budget holds, keeps each finished block's CSR
  row slice of C resident or spills it, and places every slice into C,
  bit-identical to the in-memory path for every scheme.

Entry points: :meth:`repro.runtime.Runtime.multiply` routes here whenever
its config carries a budget, and ``repro run/bench/compare`` expose the
flags.
"""

from repro.oocore.budget import BYTES_PER_PRODUCT, parse_mem_budget, products_for_budget
from repro.oocore.executor import OocStats, chunked_multiply
from repro.oocore.spill import SpillStore, sweep_stale

__all__ = [
    "BYTES_PER_PRODUCT",
    "OocStats",
    "SpillStore",
    "chunked_multiply",
    "parse_mem_budget",
    "products_for_budget",
    "sweep_stale",
]

"""repro.oocore — memory-budgeted out-of-core spGEMM execution.

The paper's full-scale networks expand to intermediate product streams far
larger than the stand-in datasets the rest of the pipeline defaults to.
This package runs those multiplies under an explicit memory budget
(``--mem-budget`` on the CLI):

* :mod:`repro.oocore.budget` — budget parsing and the bytes-per-product
  working-set model.
* :mod:`repro.oocore.panels` — row-panel decomposition of A, sized from the
  precalculated workload sums so one panel's expansion fits the budget.
* :mod:`repro.oocore.spill` — the crash-safe, content-addressed disk store
  for partials evicted from the resident set.
* :mod:`repro.oocore.executor` — :func:`chunked_multiply`, the driver that
  lowers once on the whole operand, runs the numeric kernel panel by panel
  with the global plan's tie ranks and places each panel's CSR row slice
  into C, bit-identical to the in-memory path for every scheme.

Entry points: :meth:`repro.runtime.Runtime.multiply` routes here whenever
its config carries a budget, and ``repro run/bench/compare`` expose the
flags.
"""

from repro.oocore.budget import BYTES_PER_PRODUCT, parse_mem_budget, products_for_budget
from repro.oocore.executor import OocStats, chunked_multiply
from repro.oocore.panels import Panel, plan_panels, slice_rows
from repro.oocore.spill import SpillStore, sweep_stale

__all__ = [
    "BYTES_PER_PRODUCT",
    "OocStats",
    "Panel",
    "SpillStore",
    "chunked_multiply",
    "parse_mem_budget",
    "plan_panels",
    "products_for_budget",
    "slice_rows",
    "sweep_stale",
]

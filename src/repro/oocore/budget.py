"""Memory budgets for the out-of-core executor.

A budget is a byte count — given on the CLI as ``--mem-budget 4G`` — that
caps both the working set of one row block of the streaming kernel and the
partial results the executor keeps resident before spilling.  The executor
converts bytes to *products* with :data:`BYTES_PER_PRODUCT`, the peak
working-set cost of one intermediate product while a block is expanded and
merged (see the constant).
"""

from __future__ import annotations

import re

from repro.errors import OutOfCoreError

__all__ = ["BYTES_PER_PRODUCT", "parse_mem_budget", "products_for_budget"]

#: Peak bytes one intermediate product costs while its row block is
#: expanded and merged, which bounds one block's working set (the kernel
#: holds one block's products at a time).  Expansion: B's stored-entry
#: index, cell and value (24) plus the two operand-value temporaries the
#: product is formed from (16).  Merge: the same three (24) plus a sparse
#: block's sort order, sorted cells and output entries (24).  48 bytes per
#: product covers either step.
BYTES_PER_PRODUCT = 48

_UNITS = {
    "": 1,
    "B": 1,
    "K": 1 << 10,
    "KB": 1 << 10,
    "M": 1 << 20,
    "MB": 1 << 20,
    "G": 1 << 30,
    "GB": 1 << 30,
    "T": 1 << 40,
    "TB": 1 << 40,
}

_BUDGET = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([A-Za-z]*)\s*$")


def parse_mem_budget(text: str | int) -> int:
    """Parse a memory budget into bytes: ``"4G"``, ``"512M"``, ``"65536"``.

    Accepts an optional binary unit suffix (K/M/G/T, with or without a
    trailing B, case-insensitive) and fractional magnitudes (``"1.5G"``).
    Integers pass through as bytes.  Raises
    :class:`~repro.errors.OutOfCoreError` on anything unparseable or
    non-positive — a zero budget cannot hold even one product.
    """
    if isinstance(text, int):
        size = text
    else:
        match = _BUDGET.match(str(text))
        unit = match.group(2).upper() if match else None
        if match is None or unit not in _UNITS:
            raise OutOfCoreError(
                f"unparseable memory budget {text!r} "
                "(expected e.g. 4G, 512M, 64K, or plain bytes)"
            )
        size = int(float(match.group(1)) * _UNITS[unit])
    if size <= 0:
        raise OutOfCoreError(f"memory budget must be positive, got {text!r}")
    return size


def products_for_budget(budget_bytes: int) -> int:
    """How many intermediate products fit in ``budget_bytes`` (at least 1)."""
    return max(1, budget_bytes // BYTES_PER_PRODUCT)

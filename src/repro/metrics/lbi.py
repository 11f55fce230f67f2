"""Load Balancing Index (Equation 3 of the paper).

``LBI = (Σ_i cycles(SM_i) / max_j cycles(SM_j)) / N`` — the mean per-SM
execution time normalised to the slowest SM.  1.0 means perfectly balanced;
the paper measures 0.17 for unsplit dominators on skewed inputs, recovering
to 0.96 after B-Splitting (Figure 11).
"""

from __future__ import annotations

import numpy as np

__all__ = ["load_balancing_index"]


def load_balancing_index(sm_cycles: np.ndarray) -> float:
    """LBI of a vector of per-SM busy cycles (1.0 when all idle or equal)."""
    sm_cycles = np.asarray(sm_cycles, dtype=np.float64)
    if len(sm_cycles) == 0:
        return 1.0
    peak = float(sm_cycles.max())
    if peak <= 0.0:
        return 1.0
    # The mean of equal cycle counts can round one ulp above their maximum.
    return min(1.0, float(sm_cycles.mean() / peak))

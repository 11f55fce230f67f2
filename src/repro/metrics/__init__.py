"""Metrics: LBI (Eq. 3), GFLOPS, profiling reports, Prometheus exposition checks."""

from repro.metrics.gflops import FLOPS_PER_PRODUCT, gflops
from repro.metrics.lbi import load_balancing_index
from repro.metrics.profiling import ProfileReport, StageProfile, profile_report
from repro.metrics.promtext import parse_exposition, validate_exposition

__all__ = [
    "FLOPS_PER_PRODUCT",
    "gflops",
    "load_balancing_index",
    "ProfileReport",
    "StageProfile",
    "profile_report",
    "parse_exposition",
    "validate_exposition",
]

"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so callers
can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class SparseFormatError(ReproError):
    """A sparse matrix structure is malformed (bad indptr, out-of-range index, ...)."""


class ShapeMismatchError(ReproError):
    """Operand shapes are incompatible for the requested operation."""


class DatasetError(ReproError):
    """A dataset name is unknown or a generator parameter is invalid."""


class SimulationError(ReproError):
    """The GPU simulator was given an inconsistent trace or configuration."""


class ConfigurationError(ReproError):
    """An algorithm or simulator option is out of its valid range."""


class PlanError(ReproError):
    """An :class:`~repro.plan.ir.ExecutionPlan` is malformed or its numeric
    kernels are inconsistent with its block descriptors (a phase emitted a
    different number of products than its blocks account for)."""


class FingerprintError(ReproError):
    """A bench-cell component cannot be content-addressed (stateful scheme,
    non-serialisable parameter), so its results must bypass the result cache."""


class CacheError(ReproError):
    """The persistent bench result cache hit an unrecoverable condition."""


class OutOfCoreError(ReproError):
    """The out-of-core executor cannot honour its configuration: an
    unparseable memory budget, an unusable spill directory, or a spilled
    partial that cannot be read back."""

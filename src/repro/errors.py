"""Exception hierarchy for the numaprof reproduction.

All library-raised exceptions derive from :class:`NumaProfError` so callers
can catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class NumaProfError(Exception):
    """Base class for all errors raised by this package."""


class TopologyError(NumaProfError):
    """Invalid NUMA topology description (domain/core/distance mismatch)."""


class AllocationError(NumaProfError):
    """Simulated memory allocation failed (exhausted frames, bad policy)."""


class InvalidAddressError(NumaProfError):
    """An address does not fall inside any mapped segment."""


class ProtectionError(NumaProfError):
    """Page-protection operation on an unmapped or foreign range."""


class BindingError(NumaProfError):
    """Thread-to-core binding is invalid (core out of range, double bind)."""


class MechanismError(NumaProfError):
    """Sampling-mechanism misconfiguration or unsupported capability use."""


class ProgramError(NumaProfError):
    """Malformed simulated program (region nesting, missing kernels)."""


class ProfileError(NumaProfError):
    """Inconsistent profile data during collection, merge, or analysis."""


class UsageError(NumaProfError):
    """Invalid workload/machine/mechanism combination requested by a caller."""


class WorkerError(NumaProfError):
    """A shard worker process died mid-run (the worker pool broke)."""

"""Shared exception hierarchy for the repro package.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch library failures without masking programming errors (``TypeError``
etc. propagate unchanged).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class LPError(ReproError):
    """Raised when an LP cannot be solved (numerical failure, bad input)."""


class ModelError(ReproError):
    """Raised on inconsistent model construction (bad bounds, unknown variable...)."""


class PluginError(ReproError):
    """Raised when a plugin violates its contract (bad return value, re-registration...)."""


class CommError(ReproError):
    """Raised by the UG communication layer (unknown rank, closed channel...)."""


class CheckpointError(ReproError):
    """Raised when a checkpoint file cannot be written or restored."""


class GraphError(ReproError):
    """Raised on invalid Steiner graph operations (unknown vertex, deleted edge...)."""


class SDPError(ReproError):
    """Raised when the SDP relaxation solver fails to converge or receives bad data."""


class VerificationError(ReproError):
    """Raised when an independent certificate check rejects a claimed result."""

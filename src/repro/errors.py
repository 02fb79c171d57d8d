"""Exceptions shared across the :mod:`repro` package.

Every error carries an ``exit_code`` so the CLI can map failures to
distinct, stable process exit codes (loosely following ``sysexits.h``)
instead of dumping tracebacks; scripts and the service smoke tests key on
them.  ``retryable`` marks transient conditions a client should back off
and retry rather than treat as permanent.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""

    #: Process exit code the CLI uses when this error escapes a command.
    exit_code: int = 1
    #: Whether a client may retry the failed operation after a backoff.
    retryable: bool = False


class HypergraphFormatError(ReproError):
    """Raised when hypergraph input data is malformed."""

    exit_code = 65  # EX_DATAERR


class ConfigurationError(ReproError, ValueError):
    """Raised when a simulator or engine is configured inconsistently.

    A ``ValueError`` too, so a bad job payload is one error type from the
    field check through the service's HTTP 400.
    """

    exit_code = 78  # EX_CONFIG


class EngineError(ReproError):
    """Raised when an execution engine is used incorrectly."""


class FifoError(ReproError):
    """Raised on misuse of a bounded hardware FIFO model."""


class ServiceError(ReproError):
    """Base class for simulation-service failures (server or client side)."""

    exit_code = 70  # EX_SOFTWARE


class ServiceOverloadedError(ServiceError):
    """Raised when the service's admission control rejects a job because the
    queue is at its configured depth bound (or the server is draining).

    Retryable by definition: in-flight jobs keep completing, so a client
    that backs off and resubmits will eventually be admitted.
    """

    exit_code = 75  # EX_TEMPFAIL
    retryable = True


class JobNotFoundError(ServiceError):
    """Raised when a job id is unknown to the service (never submitted,
    or already evicted from the bounded finished-job retention window)."""

    exit_code = 66  # EX_NOINPUT

"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any simulator failure.  Subclasses
distinguish configuration mistakes from runtime protocol violations
(e.g. a workload touching unallocated memory, or a security-context
misuse that would silently break the constant-time guarantee).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A simulator component was constructed with invalid parameters.

    Examples: a cache whose size is not divisible by (associativity x
    line size), a BIA with a non-power-of-two entry count, or latencies
    that are not positive.
    """


class MemoryError_(ReproError):
    """An access touched memory outside any allocation.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`, which means something entirely different.
    """


class AlignmentError(MemoryError_):
    """A typed access (e.g. a 4-byte word) was not naturally aligned."""


class AllocationError(MemoryError_):
    """The allocator could not satisfy a request (exhausted or invalid)."""


class TransformError(ReproError):
    """An IR rewrite (:mod:`repro.lang.transforms`) cannot apply.

    Examples: the addressed statement is not of the kind the transform
    handles, a loop sits inside a branch-linearization region, or a
    trip-count pad was requested with a negative bound.  The repair
    driver turns these into *irreparable* verdicts instead of crashing.
    """


class ProtocolError(ReproError):
    """A component was driven in a way its protocol forbids.

    Example: issuing a CTStore for an address whose page is not covered
    by any registered dataflow linearization set, or asking a
    mitigation context to load through a DS that does not contain the
    requested address.
    """


class SecurityViolationError(ReproError):
    """The trace-equivalence checker found secret-dependent behaviour.

    Raised by :mod:`repro.attacks.analysis` verification helpers when a
    supposedly mitigated program produced observably different cache
    behaviour for two different secrets.
    """

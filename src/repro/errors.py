"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch everything coming out of the system with one ``except``
clause while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class HypergraphError(ReproError):
    """Raised when a hypergraph is malformed or an operation is invalid."""


class QueryError(ReproError):
    """Raised when a query hypergraph cannot be matched as given.

    Typical causes: a disconnected query (HGMatch requires a connected
    matching order), an empty query, or labels absent from the data.
    """


class ParseError(ReproError):
    """Raised when a hypergraph text file cannot be parsed."""


class SchedulerError(ReproError):
    """Raised on invalid scheduler or executor configuration."""


class TransportError(SchedulerError):
    """Raised on a malformed or interrupted network transport exchange.

    Covers the socket seam of the sharded executor: truncated frames,
    unknown protocol/wire versions, oversized frame lengths and peers
    vanishing mid-message.  Subclasses :class:`SchedulerError` because a
    broken transport is an executor failure from the caller's point of
    view — existing ``except SchedulerError`` handlers keep working.
    """


class JournalError(ReproError):
    """Raised on an invalid journal configuration or journal I/O failure.

    Covers the durability seam: a malformed fsync policy or snapshot
    interval, a journal directory that cannot be created (or a path
    that exists but is not a directory), or an append/fsync that fails
    mid-commit.
    """


class JournalCorruption(JournalError):
    """Raised when the mutation journal is corrupt beyond a torn tail.

    A *torn* write — a partial record at the end of the log, the
    expected residue of a crash mid-append — is silently truncated on
    open.  This error is the other case: a checksum or structural
    failure in the *middle* of the log (valid records follow the bad
    one), a record whose version breaks the committed sequence, or a
    snapshot that fails its own integrity checks.  Recovery must stop:
    replaying past the corruption would fabricate state.
    """


class ServiceBusy(ReproError):
    """Raised when the match service refuses a query at admission.

    The explicit overload signal of the always-on service: the bounded
    admission queue is at its depth limit, so the query is *refused* —
    never silently queued into an unbounded backlog or left to hang.
    ``retry_after`` is the service's backoff hint in seconds.
    """

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(
            f"match service is at its admission depth limit ({depth} "
            f"queries in flight); retry after {retry_after:.3f}s"
        )
        self.depth = depth
        self.retry_after = retry_after


class QueryCancelled(ReproError):
    """Raised when an in-flight query is cancelled.

    Covers both explicit cancellation (``ticket.cancel()``, a client
    disconnecting mid-query) and service drain: the coordinator sends
    CANCEL frames so every worker drops the query's session state, then
    surfaces this to the waiter.
    """


class TimeoutExceeded(ReproError):
    """Raised internally when a matching job exceeds its time budget.

    The bench harness converts this into a "did not finish" record instead
    of propagating it to the caller.
    """

    def __init__(self, elapsed: float, budget: float) -> None:
        super().__init__(f"query exceeded time budget: {elapsed:.3f}s > {budget:.3f}s")
        self.elapsed = elapsed
        self.budget = budget

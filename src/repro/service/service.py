"""The match service: admission, deadlines, cancellation, caching.

:class:`MatchService` is the always-on front half of the system: it
holds one engine and that engine's one
:class:`~repro.parallel.pool.ShardPool` (the width-1 grid: one
connection per shard) and turns "run this query" into a governed
operation:

* **Admission control** — at most ``queue_depth`` queries are admitted
  at once; the ``queue_depth + 1``-th is *refused* with an explicit
  :class:`~repro.errors.ServiceBusy` (retry-after hint included), never
  silently queued without bound or left to hang.  Of the admitted
  queries, ``max_concurrent`` execute at a time; the rest wait their
  turn in the bounded backlog.
* **Deadlines** — a per-query deadline is enforced coordinator-side
  mid-gather, and travels in the query's subtree requests so a worker
  stops computing for it between blocks; its expiry broadcasts CANCEL:
  a timed-out query never leaves orphaned worker state.
* **Cancellation** — :meth:`MatchTicket.cancel` (and a daemon client
  disconnecting) sets the query's cancel flag; the same remote CANCEL
  guarantee applies.
* **Result cache** — an LRU keyed by ``(graph fingerprint, graph
  version, query fingerprint)``; hits return the finished
  :class:`~repro.parallel.tasks.ParallelResult` without touching
  the pool at all (the pool's dispatch counter is the proof).
* **Drain** — stop admitting, let in-flight queries finish inside a
  timeout, cancel the stragglers, close the pool.  This is what the
  daemon runs on SIGTERM.
"""

from __future__ import annotations

import io
import threading
import time
import zlib
from collections import OrderedDict
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Optional, Sequence, Tuple

from ..errors import QueryCancelled, SchedulerError, ServiceBusy
from ..hypergraph import Hypergraph
from ..hypergraph.io import dump_native
from ..hypergraph.journal import MutationJournal
from ..parallel.pool import QueryChannel, ShardPool
from .standing import StandingQuery


def _standing_entry(handle) -> dict:
    """JSON-serialisable record of one standing-query registration.

    Structural (labels/edges/edge_labels) rather than native-text so
    edge-labelled queries round-trip faithfully; labels keep their
    int-vs-str type through JSON.
    """
    query = handle.query
    return {
        "labels": list(query.labels),
        "edges": [sorted(edge) for edge in query.edges],
        "edge_labels": (
            [query.edge_label(e) for e in range(query.num_edges)]
            if query.is_edge_labelled else None
        ),
        "order": None if handle.order is None else list(handle.order),
    }


def _standing_query_from_entry(entry: dict):
    """Rebuild the (query, order) pair of one persisted registration."""
    try:
        query = Hypergraph(
            entry["labels"],
            entry["edges"],
            edge_labels=entry.get("edge_labels"),
        )
        order = entry.get("order")
        return query, None if order is None else tuple(order)
    except (KeyError, TypeError) as exc:
        raise SchedulerError(
            f"malformed persisted standing-query entry: {exc!r}"
        ) from None


def graph_fingerprint(graph) -> Tuple[int, int, int]:
    """A stable fingerprint of a data graph's exact content.

    Extends the identity fields the ``ShardDescriptor`` handshake
    already pins (edge/vertex counts) with a CRC over the canonical
    native serialisation, the same checksum family
    ``range_table_label`` uses for placement fingerprints — equal
    graphs fingerprint equal across processes and sessions.
    """
    buffer = io.StringIO()
    dump_native(graph, buffer)
    return (
        zlib.crc32(buffer.getvalue().encode("utf-8")),
        graph.num_edges,
        graph.num_vertices,
    )


def query_fingerprint(
    query, order: "Sequence[int] | None" = None
) -> Tuple[int, int, int, "Tuple[int, ...] | None"]:
    """Fingerprint of a query (and any pinned matching order)."""
    crc, edges, vertices = graph_fingerprint(query)
    return (crc, edges, vertices, None if order is None else tuple(order))


class MatchTicket:
    """A handle on one submitted query.

    ``cached`` tickets are born finished (the result came straight out
    of the service's LRU); live tickets resolve when their worker
    thread completes, and :meth:`cancel` aborts them — before they
    start (the slot is returned immediately) or mid-flight (the query
    raises :class:`~repro.errors.QueryCancelled` at its next barrier or
    gather poll, and the workers are CANCELled remotely).
    """

    def __init__(self, future=None, cancel_event=None, result=None,
                 on_abandoned=None) -> None:
        self._future = future
        self._cancel_event = cancel_event
        self._result = result
        self._on_abandoned = on_abandoned
        self.cached = future is None

    def result(self, timeout: "float | None" = None):
        """The query's :class:`~repro.parallel.tasks.ParallelResult`.

        Re-raises whatever ended the query: ``QueryCancelled``,
        ``TimeoutExceeded``, or the shard failure that killed it.
        """
        if self._future is None:
            return self._result
        try:
            return self._future.result(timeout)
        except CancelledError:
            raise QueryCancelled(
                "query cancelled before it started"
            ) from None

    def done(self) -> bool:
        return self._future is None or self._future.done()

    def cancel(self) -> None:
        if self._cancel_event is not None:
            self._cancel_event.set()
        if self._future is not None and self._future.cancel():
            # Never started: no worker ever saw it, but the admission
            # slot must be returned here (the run body won't run).
            if self._on_abandoned is not None:
                callback, self._on_abandoned = self._on_abandoned, None
                callback()


class MatchService:
    """An always-on, multiplexing match service over one shared pool."""

    def __init__(
        self,
        engine,
        shards: int = 2,
        addresses=None,
        max_concurrent: int = 4,
        queue_depth: int = 8,
        cache_capacity: int = 128,
        default_deadline: "float | None" = None,
        retry_after: float = 0.25,
        io_timeout: "float | None" = None,
        start_method: "str | None" = None,
        chaos=None,
        journal: "MutationJournal | str | None" = None,
    ) -> None:
        if queue_depth < 1:
            raise SchedulerError("queue_depth must be >= 1")
        if max_concurrent < 1:
            raise SchedulerError("max_concurrent must be >= 1")
        # One service per engine: it takes the engine's pool slot, and
        # two services cannot both have their queries in flight there.
        if engine._match_service is not None:
            raise SchedulerError(
                "the engine already has a live match service; drain it "
                "before starting another"
            )
        self._engine = engine
        self.queue_depth = queue_depth
        self.max_concurrent = max_concurrent
        self.default_deadline = default_deadline
        self.retry_after = retry_after
        self.cache_capacity = cache_capacity
        self.chaos = chaos
        self.pool = ShardPool(
            num_shards=shards,
            addresses=addresses,
            index_backend=engine.index_backend,
            sharding=engine.sharding,
            io_timeout=io_timeout,
            start_method=start_method,
            chaos=chaos,
        )
        self.num_shards = self.pool.num_shards
        # Durability seam: every committed batch is journalled inside
        # the mutation barrier, before any broadcast, so a coordinator
        # crash replays it on restart instead of losing a commit the
        # workers may already hold.  Attached only once every argument
        # has passed: a refused constructor opens no log handle.
        if isinstance(journal, str):
            journal = MutationJournal(journal)
        self.journal = journal
        if journal is not None:
            journal.attach(engine.data)
        self._lock = threading.Lock()
        self._admitted = 0
        self._draining = False
        self._closed = False
        self._workers = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="match-service"
        )
        self._tickets: "list" = []
        self._cache: "OrderedDict" = OrderedDict()
        #: Content fingerprint of the graph the service started on —
        #: taken once, on first use; commits move the key by version.
        self._graph_fp = None
        self.cache_hits = 0
        self.cache_misses = 0
        #: True while a mutation barrier holds the service: submissions
        #: get BUSY, the barrier waits for in-flight queries to drain.
        self._mutating = False
        self._standing: "dict" = {}
        self._standing_ids = 0
        # Adopt the engine: ``engine.apply_mutations`` must route every
        # commit through this service's barrier, or the result cache
        # and standing queries silently go stale; and this pool becomes
        # *the engine's* (what it ran solo jobs on before is closed), so
        # one MUTATE, one close and every ``count(executor="processes")``
        # reach the same workers.  drain() releases both slots.
        engine._match_service = self
        previous, engine._pool = engine._pool, self.pool
        if previous is not None:
            previous.close()

    # -- submission ------------------------------------------------------

    def _graph_key(self):
        """What the cache knows the data graph by: the fingerprint of
        the graph first asked about and the version every commit bumps
        — a commit costs the key an integer, not a re-serialisation of
        the whole graph under the service lock."""
        data = self._engine.data
        if self._graph_fp is None:
            self._graph_fp = graph_fingerprint(data)
        return self._graph_fp, data.version

    def submit(
        self,
        query,
        order: "Sequence[int] | None" = None,
        deadline: "float | None" = None,
    ) -> MatchTicket:
        """Admit one query; returns a :class:`MatchTicket`.

        Raises :class:`~repro.errors.ServiceBusy` when the admission
        backlog is at ``queue_depth`` (or the service is draining) —
        the caller retries after ``retry_after`` seconds, nothing ever
        queues unboundedly or hangs.  Cache hits bypass admission *and*
        the pool entirely.
        """
        with self._lock:
            if self._closed:
                raise SchedulerError("match service is closed")
            if self._mutating:
                raise ServiceBusy(self.queue_depth, self.retry_after)
            # Key inside the lock, after the mutation gate: a mutation
            # barrier between the fingerprint and the lookup must not
            # serve a result cached for a graph that no longer exists.
            key = (self._graph_key(), query_fingerprint(query, order))
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                return MatchTicket(result=cached)
            if self._draining:
                raise ServiceBusy(self.queue_depth, self.retry_after)
            if self._admitted >= self.queue_depth:
                raise ServiceBusy(self.queue_depth, self.retry_after)
            self._admitted += 1
            self.cache_misses += 1
        budget = self.default_deadline if deadline is None else deadline
        cancel_event = threading.Event()
        future = self._workers.submit(
            self._run, query, order, budget, cancel_event, key
        )
        ticket = MatchTicket(
            future, cancel_event, on_abandoned=self._release_slot
        )
        with self._lock:
            self._tickets = [
                live for live in self._tickets if not live.done()
            ]
            self._tickets.append(ticket)
        return ticket

    def match(
        self,
        query,
        order: "Sequence[int] | None" = None,
        deadline: "float | None" = None,
    ):
        """Submit and wait: the blocking convenience wrapper."""
        return self.submit(query, order=order, deadline=deadline).result()

    def _release_slot(self) -> None:
        with self._lock:
            self._admitted -= 1

    def _run(self, query, order, budget, cancel_event, key):
        channel = QueryChannel(
            self.pool, budget=budget, cancel_event=cancel_event
        )
        completed = False
        try:
            result = channel.count(self._engine, query, order)
            completed = True
            with self._lock:
                self._cache[key] = result
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_capacity:
                    self._cache.popitem(last=False)
            return result
        finally:
            # A completed subtree job left no worker state; every other
            # exit broadcasts CANCEL here.  release() is idempotent —
            # the channel's own failure paths may have run it already.
            self.pool.release(channel.query_id, completed=completed)
            self._release_slot()

    # -- mutation --------------------------------------------------------

    def apply_mutations(self, batch, drain_timeout: float = 30.0):
        """Commit one mutation batch under a whole-service barrier.

        The sequence is: flag the barrier (new submissions get BUSY),
        wait for admitted queries to drain, apply the batch to the
        engine's graph and store, propagate the same batch to the
        pool (one ``ShardPool.mutate``), then commit every standing
        query and emit its delta.  Returns the :class:`~repro.hypergraph.dynamic
        .MutationResult`.

        Cached results for the old graph are *not* purged: the cache
        key includes the graph version the commit just bumped, so they
        can never be served again — they simply age out of the LRU.
        """
        with self._lock:
            if self._closed:
                raise SchedulerError("match service is closed")
            if self._draining:
                raise ServiceBusy(self.queue_depth, self.retry_after)
            if self._mutating:
                raise SchedulerError(
                    "a mutation batch is already being committed"
                )
            self._mutating = True
        try:
            deadline = time.monotonic() + drain_timeout
            while True:
                with self._lock:
                    if self._admitted == 0:
                        break
                    admitted = self._admitted
                if time.monotonic() >= deadline:
                    raise SchedulerError(
                        f"{admitted} queries still in flight after "
                        f"{drain_timeout}s; mutation barrier abandoned"
                    )
                time.sleep(0.01)
            engine = self._engine
            result = engine._apply_local(batch)
            if self.journal is not None:
                # Durability point: the batch hits the fsynced log
                # *before* any worker sees it, so restart-from-journal
                # can only be ahead of (never behind) the pool.
                self.journal.append(result.version, batch)
            self.pool.mutate(engine, batch, result)
            with self._lock:
                standing = list(self._standing.values())
            for query in standing:
                query.commit(engine, result)
            if self.journal is not None:
                self.journal.maybe_snapshot(engine.data)
            return result
        finally:
            with self._lock:
                self._mutating = False

    # -- standing queries ------------------------------------------------

    def register_standing(
        self,
        query,
        order: "Sequence[int] | None" = None,
        callback=None,
    ) -> StandingQuery:
        """Register ``query`` as a standing query; returns its handle.

        Seeds the handle's match set with a full (sequential)
        enumeration of the current graph, then every committed mutation
        batch updates it and emits a :class:`~repro.service.standing
        .MatchDelta`.  Refused while a mutation barrier is active (the
        seed would race the commit).
        """
        with self._lock:
            if self._closed:
                raise SchedulerError("match service is closed")
            if self._mutating:
                raise ServiceBusy(self.queue_depth, self.retry_after)
            self._standing_ids += 1
            handle = StandingQuery(
                self._standing_ids, query, order=order, callback=callback
            )
            engine = self._engine
            version = engine.data.version
        handle.seed(engine, version)
        with self._lock:
            if self._mutating:
                # A barrier slipped in while we enumerated: the seed
                # may straddle the commit.  Refuse rather than guess.
                raise ServiceBusy(self.queue_depth, self.retry_after)
            self._standing[handle.query_id] = handle
        self._persist_standing()
        return handle

    def unregister_standing(self, handle) -> None:
        """Remove a standing query; its event stream ends after a final
        drain (idempotent)."""
        query_id = getattr(handle, "query_id", handle)
        with self._lock:
            registered = self._standing.pop(query_id, None)
        if registered is not None:
            registered.close()
            self._persist_standing()

    def _persist_standing(self) -> None:
        """Mirror the live registrations into the journal directory.

        Called on every register/unregister (and once more on drain) so
        a restarted daemon can re-register the same standing queries
        against the recovered graph.  No-op without a journal.
        """
        if self.journal is None:
            return
        with self._lock:
            entries = [
                _standing_entry(handle)
                for handle in self._standing.values()
            ]
        self.journal.save_standing(entries)

    def restore_standing(self, callback=None) -> int:
        """Re-register the standing queries persisted alongside the
        journal; returns how many were restored.

        Each restored query is seeded by a fresh full enumeration of
        the *recovered* graph — its next delta therefore continues from
        the recovered version, exactly as if the registration had
        survived the restart.  ``callback`` applies to every restored
        handle (the daemon re-attaches its event fan-out here).
        """
        if self.journal is None:
            return 0
        restored = 0
        for entry in self.journal.load_standing():
            query, order = _standing_query_from_entry(entry)
            self.register_standing(query, order=order, callback=callback)
            restored += 1
        return restored

    @property
    def standing_queries(self) -> int:
        with self._lock:
            return len(self._standing)

    # -- lifecycle -------------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._admitted

    def drain(self, timeout: float = 10.0) -> None:
        """Stop admitting, finish (or cancel) in-flight work, close.

        The SIGTERM path: new submissions get BUSY immediately,
        in-flight queries get ``timeout`` seconds to finish, stragglers
        are cancelled (remote CANCEL included), the journal is flushed
        and fsynced with the standing registrations persisted beside
        it (a restarted daemon recovers both), then the pool and its
        cluster shut down.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._draining = True
            pending = list(self._tickets)
        deadline = time.monotonic() + timeout
        for ticket in pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                ticket.cancel()
                continue
            try:
                ticket.result(timeout=remaining)
            except FutureTimeoutError:
                ticket.cancel()
            except Exception:
                pass  # the query's own failure; drain marches on
        self._workers.shutdown(wait=True)
        # Persist the registrations *before* clearing them, then seal
        # the journal: flush, fsync, close — the durable state a
        # restarted daemon resumes from.
        self._persist_standing()
        with self._lock:
            self._closed = True
            standing = list(self._standing.values())
            self._standing.clear()
        for handle in standing:
            handle.close()
        if self.journal is not None:
            self.journal.close()
        # Release the engine: later mutations fall back to the
        # engine-local path instead of hitting a closed service, and
        # the next solo job builds its own pool.
        if self._engine._match_service is self:
            self._engine._match_service = None
        if self._engine._pool is self.pool:
            self._engine._pool = None
        self.pool.close()

    def close(self, timeout: float = 10.0) -> None:
        self.drain(timeout=timeout)

    def __enter__(self) -> "MatchService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""The match service: admission, deadlines, cancellation, caching.

:class:`MatchService` is the always-on front half of the system: it
holds one engine and that engine's one
:class:`~repro.parallel.pool.ShardPool` (one connection per member)
and turns "run this query" into a governed
operation:

* **Admission control** — at most ``queue_depth`` queries are admitted
  at once; the ``queue_depth + 1``-th is *refused* with an explicit
  :class:`~repro.errors.ServiceBusy` (retry-after hint included), never
  silently queued without bound or left to hang.  Of the admitted
  queries, ``max_concurrent`` execute at a time; the rest wait their
  turn in the bounded backlog.
* **Deadlines** — a per-query deadline is enforced coordinator-side
  mid-gather, and travels in the query's subtree requests so a worker
  stops computing for it between blocks: a timed-out query never
  occupies a worker past its budget, and a worker holds no state for
  it anyway (every request is self-contained).
* **Cancellation** — :meth:`MatchTicket.cancel` (and a daemon client
  disconnecting) sets the query's cancel flag; the gather gives the
  query up at once.
* **Result cache** — an LRU keyed by ``(graph fingerprint, graph
  version, query fingerprint)``; hits return the finished
  :class:`~repro.parallel.tasks.ParallelResult` without touching
  the pool at all (the pool's dispatch counter is the proof).
* **Inline** — a miss is planned once, by :meth:`MatchService.submit`;
  when :func:`~repro.core.estimation.estimate_order` puts the plan
  below :data:`INLINE_COST`, the submitting thread counts it on the
  service's own engine (the sequential ``count_part``, no funnel) and
  the ticket is born finished — no thread hop, no frame, and a service
  that only ever sees such queries never spawns a worker.  Every
  costlier miss goes to a service thread and on to the pool as a
  subtree job carrying the same plan and asking for no funnel either:
  a served result's ``counters`` is None (a caller who wants the Fig. 9
  funnel asks the engine, ``engine.count(q, counters=c,
  executor=...)``).  The estimate is an average, not a bound,
  so the inline count also stops at :data:`INLINE_BUDGET` (checked
  between blocks, like the deadline) and hands the plan to the pool
  route instead.  The one difference: an inline query cannot be
  cancelled — it is over before its ticket exists, within a few
  milliseconds by that cap.
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
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Optional, Sequence, Tuple

from ..core.estimation import estimate_order
from ..errors import (
    QueryCancelled,
    SchedulerError,
    ServiceBusy,
    TimeoutExceeded,
)
from ..hypergraph import Hypergraph
from ..hypergraph.io import dump_native
from ..hypergraph.journal import MutationJournal
from ..parallel.pool import QueryChannel, ShardPool
from ..parallel.tasks import ParallelResult
from .standing import StandingQuery

#: A miss whose plan ``estimate_order`` costs below this is counted on
#: the submitting thread, on the service's engine, instead of as a pool
#: subtree job behind a service thread.  Calibrated on
#: the e2e inputs (seed 3, 2 vCPU): ``svc_point``'s 600 queries estimate
#: 2–7 and count in 0.09 ms median (0.26 ms max) in process, against a
#: ~0.65 ms round trip to a worker; ``svc_mutate``'s hot queries
#: estimate 3–4 (~0.09 ms); the cheapest ``Q_heavy`` query estimates
#: 18.8 (median 358) yet takes 4.4 ms — the estimator undershoots it, so
#: the constant stays well below.  Anywhere in [8, 18.8) routes all
#: three sets the same way.
INLINE_COST = 10.0

#: The estimate is an average, not a bound: a query under
#: :data:`INLINE_COST` can still walk a hub's whole posting list.  An
#: inline count that runs past this many seconds (checked between
#: blocks) is abandoned and its plan goes to the pool, so the
#: submitting thread — the daemon's event loop — is never held for
#: longer than this and one block.  Far above noise: over ~42 000
#: ``svc_point`` counts in the daemon (2 vCPU) the slowest took 11.7 ms
#: (a full GC pass is 7-10 ms there) against 0.26 ms for the slowest
#: in process; below it, a cheap query that met a GC pass would open
#: the pool.
INLINE_BUDGET = 0.05


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
    native serialisation — equal graphs fingerprint equal across
    processes and sessions.
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
    of the service's LRU), and so are inline ones (counted before
    :meth:`MatchService.submit` returned); live tickets resolve when
    their worker thread completes, and :meth:`cancel` aborts them —
    before they start (the slot is returned immediately) or mid-flight
    (the query raises :class:`~repro.errors.QueryCancelled` at its next
    gather poll).
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

    @property
    def future(self):
        """The live ticket's ``concurrent.futures.Future`` (None when
        cached) — what an event loop wraps to await the result."""
        return self._future

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
            io_timeout=io_timeout,
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
        # one commit, one close and every ``count(executor="processes")``
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
        the pool entirely; a miss cheaper than :data:`INLINE_COST` is
        counted here, on the caller's thread, before this returns —
        unless it outruns :data:`INLINE_BUDGET`, then it goes to the
        pool like any costlier miss.  A query of a label type the graph
        lacks raises :class:`~repro.errors.QueryError` here, before the
        cache is consulted: a str-labelled query never hits an
        int-labelled one's entry.
        """
        self._engine.check_labels(query)
        # The query's half of the key is the graph-independent one (a
        # serialisation and a CRC): taken before the lock.
        query_key = query_fingerprint(query, order)
        with self._lock:
            if self._closed:
                raise SchedulerError("match service is closed")
            if self._mutating:
                raise ServiceBusy(self.queue_depth, self.retry_after)
            # Graph key inside the lock, after the mutation gate: a
            # mutation barrier between the key and the lookup must not
            # serve a result cached for a graph that no longer exists.
            key = (self._graph_key(), query_key)
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
        engine = self._engine
        settled = Future()
        started = time.monotonic()
        try:
            plan = engine.plan(query, order)
            if estimate_order(
                query, engine.store, plan.order
            ).estimated_cost < INLINE_COST:
                result = self._count_inline(plan, budget)
                if result is not None:
                    settled.set_result(self._remember(key, result))
        except Exception as exc:  # the query's own failure: its ticket's
            settled.set_exception(exc)
        if settled.done():
            self._release_slot()
            return MatchTicket(settled)
        if budget is not None:  # what the plan and any inline try left
            budget -= time.monotonic() - started
        cancel_event = threading.Event()
        future = self._workers.submit(
            self._run, plan, budget, cancel_event, key
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

    def _run(self, plan, budget, cancel_event, key):
        """A service thread's body: ``plan`` as one subtree job, no
        funnel."""
        try:
            channel = QueryChannel(
                self.pool, budget=budget, cancel_event=cancel_event
            )
            return self._remember(key, channel.count(self._engine, plan))
        finally:
            self._release_slot()

    def _remember(self, key, result):
        with self._lock:
            self._cache[key] = result
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_capacity:
                self._cache.popitem(last=False)
        return result

    def _count_inline(self, plan, budget) -> "ParallelResult | None":
        """Count a cheap query on the submitting thread: the sequential
        ``count_part`` of ``plan``, no funnel — no thread hop, no
        frames, no workers.  The clock is checked between blocks
        against ``budget`` and against :data:`INLINE_BUDGET`, which
        the estimate does not bound: a query that outruns the latter
        first is given up here (None) for the caller to send to the
        pool."""
        started = time.monotonic()
        try:
            embeddings = self._engine._count_plan(
                plan, 0, 1, None,
                INLINE_BUDGET if budget is None
                else min(budget, INLINE_BUDGET),
            )
        except TimeoutExceeded:
            if budget is not None and budget <= INLINE_BUDGET:
                raise  # the query's own deadline
            return None
        return ParallelResult(
            embeddings=embeddings,
            elapsed=time.monotonic() - started,
            counters=None,
        )

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
            admitted = self._wait_idle(time.monotonic() + drain_timeout)
            if admitted:
                raise SchedulerError(
                    f"{admitted} queries still in flight after "
                    f"{drain_timeout}s; mutation barrier abandoned"
                )
            engine = self._engine
            result = engine._apply_local(batch)
            if self.journal is not None:
                # Durability point: the batch hits the fsynced log
                # *before* any worker sees it, so restart-from-journal
                # can only be ahead of (never behind) the pool.
                self.journal.append(result.version, batch)
            self.pool.mutate(engine, result)
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

    def _wait_idle(self, deadline: float) -> int:
        """Wait until no admitted query holds a slot, or ``deadline``
        (monotonic) passes; returns how many still do."""
        while True:
            with self._lock:
                admitted = self._admitted
            if admitted == 0 or time.monotonic() >= deadline:
                return admitted
            time.sleep(0.01)

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
        seed would race the commit), and, as a :class:`~repro.errors
        .QueryError`, when the query's label type is one the graph
        lacks.
        """
        self._engine.check_labels(query)
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
        are cancelled, the journal is flushed
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
        # An inline count holds a slot but no ticket: over by now, as
        # it is bounded by INLINE_BUDGET, unless the caller's thread
        # is stalled — the timeout still stands.
        self._wait_idle(deadline)
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

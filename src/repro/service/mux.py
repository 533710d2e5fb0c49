"""The multiplexing shard pool: many queries, one set of connections.

:class:`~repro.parallel.coordinator.NetShardExecutor` owns its pool
for the duration of exactly one job — broadcast, gather, done.  The
match service needs the opposite shape: a pool that stays connected
across thousands of queries and carries many of them *at once*.  This
module provides it in two pieces:

:class:`MuxShardPool`
    One TCP connection per shard worker (replication is the elastic
    executor's job; the service multiplexes instead).  Every job frame
    is tagged with its query id, so one worker session holds a
    per-query state dict.  A pump thread owns the receive direction of
    every connection and routes each REPLY/QERROR to its query's queue
    by the ``query_id`` tag.  A connection that fails — severed,
    garbled, worker restarted — is recovered in place: reconnect
    through the same :func:`~repro.parallel.handshake.open_session`
    sequence (and handshake gate) the single-job executor uses, replay
    every registered query's JOB and re-dispatch the levels still owed
    to that shard.  Replay resets the worker's per-query state, which
    is safe for exactness: level replies are pure functions of
    ``(plan, frontier, shard)``, so only counter accounting can split —
    the same documented property as the replicated executor's failover.

:class:`QueryChannel`
    The per-query executor facade.  It implements the exact plug-in
    surface :func:`~repro.parallel.level_sync.run_level_synchronous`
    expects (``num_shards`` / ``_ensure_pool`` / ``_broadcast`` /
    ``_gather`` / ``_gather_iter``), so the unchanged coordinator loop
    runs per query thread and the interleaving of levels from different
    queries between barriers falls out of the pool's multiplexing —
    which is what makes multiplexed counts bit-identical to solo runs.

Reply/request alignment uses the same FIFO-token idea as the
replicated executor: each LEVEL/COLLECT dispatched to a member pushes
the query's barrier token onto that member's per-query deque, and the
pump pops one token per REPLY — so a duplicate reply created by a
recovery re-dispatch is recognised by its stale token and discarded
instead of contaminating the next barrier.
"""

from __future__ import annotations

import itertools
import pickle
import select
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import queue

from ..errors import (
    QueryCancelled,
    SchedulerError,
    TimeoutExceeded,
    TransportError,
)
from ..hypergraph.sharding import resolve_sharding
from ..hypergraph.storage import resolve_index_backend
from ..parallel import transport
from ..parallel.cluster import spawn_local_cluster
from ..parallel.handshake import CONNECT_TIMEOUT, open_session
from ..parallel.tasks import default_seed
from ..parallel.worker import default_io_timeout

#: How often a waiting gather re-checks its cancellation flag — the
#: latency bound on noticing a client cancel mid-level.
_CANCEL_POLL = 0.05


class _QueryState:
    """Coordinator-side state of one in-flight multiplexed query."""

    __slots__ = (
        "query_id", "replies", "job_body", "level_kind", "level_body",
        "pending", "dispatched_at", "token", "last_broadcast",
        "started", "budget", "deadline", "cancelled",
    )

    def __init__(self, query_id: int, budget: "float | None",
                 cancelled: "threading.Event | None") -> None:
        self.query_id = query_id
        #: Routed arrivals: ("reply", shard, body, token),
        #: ("error", shard, text) or ("lost", shard, reason).
        self.replies: "queue.Queue" = queue.Queue()
        self.job_body: "bytes | None" = None
        self.level_kind: "int | None" = None
        self.level_body: "bytes | None" = None
        #: Shards still owing a reply for the current barrier — what a
        #: member recovery consults to know which levels to re-dispatch.
        self.pending: set = set()
        self.dispatched_at: "float | None" = None
        #: Barrier token; bumped per level/collect broadcast.  Replies
        #: carry the token they answer, so stale duplicates are inert.
        self.token = 0
        self.last_broadcast: "str | None" = None
        self.started = time.monotonic()
        self.budget = budget
        self.deadline = None if budget is None else self.started + budget
        self.cancelled = (
            threading.Event() if cancelled is None else cancelled
        )


class _MuxMember:
    """One shard worker's connection in the multiplexing pool."""

    __slots__ = ("shard_id", "address", "sock", "tokens")

    def __init__(self, shard_id: int, address: Tuple[str, int],
                 sock) -> None:
        self.shard_id = shard_id
        self.address = address
        self.sock = sock
        #: query id → FIFO of barrier tokens awaiting replies on this
        #: connection (the worker answers strictly in request order).
        self.tokens: "Dict[int, deque]" = {}


class MuxShardPool:
    """A long-lived, query-multiplexing pool of shard connections.

    Construct with either ``num_shards`` (a loopback cluster is spawned
    on first :meth:`ensure_open`) or explicit worker ``addresses``;
    exactly one connection per shard — the pool's robustness story is
    reconnect-and-replay, not replication.
    """

    def __init__(
        self,
        num_shards: "int | None" = None,
        addresses: "Sequence[Tuple[str, int]] | None" = None,
        index_backend: "str | None" = None,
        sharding: "str | None" = None,
        seed: "int | None" = None,
        start_method: "str | None" = None,
        connect_timeout: float = CONNECT_TIMEOUT,
        io_timeout: "float | None" = None,
        chaos=None,
    ) -> None:
        if addresses is not None:
            addresses = [tuple(address) for address in addresses]
            if num_shards is not None and num_shards != len(addresses):
                raise SchedulerError(
                    f"num_shards={num_shards} contradicts "
                    f"{len(addresses)} worker addresses"
                )
            num_shards = len(addresses)
        if num_shards is None:
            raise SchedulerError(
                "MuxShardPool needs worker addresses or num_shards"
            )
        if num_shards < 1:
            raise SchedulerError("num_shards must be >= 1")
        self.addresses = addresses
        self.num_shards = num_shards
        self.index_backend = resolve_index_backend(index_backend)
        self.sharding = resolve_sharding(sharding)
        self.seed = default_seed() if seed is None else seed
        self.start_method = start_method
        self.connect_timeout = connect_timeout
        self.io_timeout = (
            default_io_timeout() if io_timeout is None else io_timeout
        )
        self.chaos = chaos
        #: Outbound frames dispatched to workers — the counter the
        #: cache-bypass gate watches (a cache hit must not move it).
        self.dispatched_frames = 0
        self._lock = threading.RLock()
        self._members: "List[_MuxMember]" = []
        self._queries: "Dict[int, _QueryState]" = {}
        #: DELTA acks from a MUTATE broadcast, delivered by the pump
        #: thread.  Pool-level, not per-query: mutation is a barrier
        #: over the whole pool (no queries in flight).
        self._mutation_acks: "queue.Queue" = queue.Queue()
        self._graph = None
        self._cluster = None
        self._pump: "threading.Thread | None" = None
        self._pump_stop = threading.Event()
        self._ids = itertools.count(1)

    # -- lifecycle -------------------------------------------------------

    def next_query_id(self) -> int:
        return next(self._ids)

    def ensure_open(self, engine) -> None:
        """Open (or reuse) the pool for ``engine``'s data graph."""
        if engine.index_backend != self.index_backend:
            raise SchedulerError(
                f"engine backend {engine.index_backend!r} does not match "
                f"pool backend {self.index_backend!r}"
            )
        with self._lock:
            if self._graph is engine.data and self._members:
                return
            if self._queries:
                raise SchedulerError(
                    "cannot rebuild the pool for a different graph with "
                    f"{len(self._queries)} queries in flight"
                )
            self._teardown_locked()
            if self.addresses is None:
                self._cluster = spawn_local_cluster(
                    engine.data,
                    self.num_shards,
                    self.index_backend,
                    seed=self.seed,
                    start_method=self.start_method,
                    sharding=self.sharding,
                    chaos=self.chaos,
                )
                addresses = self._cluster.addresses
            else:
                addresses = self.addresses
            slots: "List[Optional[_MuxMember]]" = [None] * self.num_shards
            try:
                for address in addresses:
                    sock, descriptor = self._open_connection(
                        address, engine.data
                    )
                    if slots[descriptor.shard_id] is not None:
                        sock.close()
                        raise SchedulerError(
                            f"two workers both announced shard id "
                            f"{descriptor.shard_id}"
                        )
                    slots[descriptor.shard_id] = _MuxMember(
                        descriptor.shard_id, tuple(address), sock
                    )
            except BaseException:
                for member in slots:
                    if member is not None:
                        self._close_sock(member.sock)
                raise
            self._members = slots  # type: ignore[assignment]
            self._graph = engine.data
            self._pump_stop.clear()
            self._pump = threading.Thread(
                target=self._pump_loop, name="mux-pool-pump", daemon=True
            )
            self._pump.start()

    def _open_connection(self, address, graph):
        """Connect + handshake one worker; returns ``(sock, descriptor)``."""
        return open_session(
            address,
            graph,
            connect_timeout=self.connect_timeout,
            io_timeout=self.io_timeout,
            chaos=self.chaos,
            index_backend=self.index_backend,
            num_shards=self.num_shards,
            num_replicas=1,
            seed=self.seed,
            sharding_label=self.sharding,
        )

    @staticmethod
    def _close_sock(sock) -> None:
        try:
            sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def _teardown_locked(self) -> None:
        self._pump_stop.set()
        for member in self._members:
            if member.sock is not None:
                try:
                    transport.send_frame(member.sock, transport.MSG_STOP)
                except (TransportError, OSError):
                    pass
                self._close_sock(member.sock)
                member.sock = None
        self._members = []
        self._graph = None
        if self._cluster is not None:
            cluster, self._cluster = self._cluster, None
            cluster.close()

    def close(self) -> None:
        """Stop the pump, end the sessions, stop any owned cluster.

        Idempotent — safe on a pool that never opened, was torn down by
        a failed open, or was already closed.
        """
        with self._lock:
            self._teardown_locked()
        pump, self._pump = self._pump, None
        if pump is not None and pump is not threading.current_thread():
            pump.join(timeout=5.0)

    def __enter__(self) -> "MuxShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- query registration and sends -----------------------------------

    def start_query(self, state: _QueryState) -> None:
        with self._lock:
            self._queries[state.query_id] = state

    def release(self, query_id: int, completed: bool) -> None:
        """Unregister a query; CANCEL it remotely unless it completed.

        Idempotent.  The CANCEL broadcast is what guarantees no worker
        keeps orphaned session state: a completed query's sessions were
        already dropped by the final reply / COLLECT, every other exit
        (deadline, client cancel, per-query error, drain) goes through
        here.
        """
        with self._lock:
            state = self._queries.pop(query_id, None)
            if state is None:
                return
            if completed:
                return
            body = transport.encode_query_body(query_id, b"")
            frame = transport.encode_frame(transport.MSG_CANCEL, body)
            for member in self._members:
                if member.sock is None:
                    continue
                member.tokens.pop(query_id, None)
                try:
                    member.sock.sendall(frame)
                except (TransportError, OSError):
                    # The connection is broken: its next use recovers
                    # it, and the reconnect drops the worker's whole
                    # session dict anyway — nothing is orphaned.
                    pass

    def send_all(self, query_id: int, kind: int, body: bytes) -> None:
        """Dispatch one query-tagged frame to every shard.

        A send that fails triggers an in-place member recovery; the
        recovery's replay covers the very frame being sent (the
        caller's query state is updated *before* the send), so there is
        no resend here.  A member that cannot be recovered fails fast:
        every registered query is handed a ``lost`` sentinel.
        """
        frame = transport.encode_frame(kind, body)
        expects_reply = kind in (
            transport.MSG_LEVEL, transport.MSG_COLLECT
        )
        with self._lock:
            state = self._queries.get(query_id)
            for member in self._members:
                if member.sock is None:
                    # A dead member: recovery's replay covers this very
                    # frame (the caller updated the query state before
                    # calling), so recover and move on.
                    self._recover_locked(member, None)
                    continue
                sock = member.sock
                try:
                    sock.sendall(frame)
                except (TransportError, OSError) as exc:
                    # Recovery replays the job and the current level to
                    # the fresh connection — including this frame.
                    self._recover_locked(member, sock, exc)
                    continue
                if expects_reply and state is not None:
                    member.tokens.setdefault(
                        query_id, deque()
                    ).append(state.token)
                self.dispatched_frames += 1

    # -- mutation --------------------------------------------------------

    def mutate(self, engine, batch, result) -> int:
        """Broadcast a committed mutation to every pooled worker.

        Called *after* the coordinator applied ``batch`` locally
        (``result`` is the :class:`~repro.hypergraph.dynamic
        .MutationResult`), and only with zero queries in flight — the
        service drains admissions first, so a mutation is a whole-pool
        barrier rather than something interleaved with levels.  Each
        worker replays the batch against its own shard and answers a
        DELTA ack echoing the new graph version and totals; any dead
        member, wrong ack, or timeout closes the pool and raises —
        there is no replica to degrade onto mid-broadcast.  A worker
        that reconnects afterwards rebuilds from its spawn-time graph
        and announces a stale version, which the handshake gate
        repairs by streaming the missed batches (CATCHUP, §2.10)
        before re-admitting it.

        Returns the number of workers that acknowledged (0 when the
        pool was never opened — nothing to keep in sync).
        """
        failure: "str | None" = None
        with self._lock:
            if not self._members or self._graph is None:
                return 0
            if self._queries:
                raise SchedulerError(
                    f"cannot mutate with {len(self._queries)} queries "
                    "in flight"
                )
            while True:  # drop stale acks from an aborted mutation
                try:
                    self._mutation_acks.get_nowait()
                except queue.Empty:
                    break
            frame = transport.encode_frame(
                transport.MSG_MUTATE,
                pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL),
            )
            for member in self._members:
                if member.sock is None:
                    failure = (
                        f"shard worker {member.shard_id} is down and "
                        "would miss this mutation; recover() will "
                        "catch it up at the next handshake"
                    )
                    break
                try:
                    member.sock.sendall(frame)
                except (TransportError, OSError) as exc:
                    failure = (
                        f"MUTATE send to shard {member.shard_id} "
                        f"failed: {exc}"
                    )
                    break
                self.dispatched_frames += 1
        if failure is not None:
            # Close outside the lock so the pump thread can drain and
            # join promptly instead of timing out against our lock.
            self.close()
            raise SchedulerError(failure)
        # Wait for acks without the lock: the pump thread delivers them.
        expected = {
            "graph_version": result.version,
            "graph_edges": engine.data.num_edges,
            "graph_vertices": engine.data.num_vertices,
        }
        deadline = time.monotonic() + self.io_timeout
        acked: set = set()
        while len(acked) < self.num_shards:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                missing = sorted(set(range(self.num_shards)) - acked)
                self.close()
                raise SchedulerError(
                    f"shard worker(s) {missing} did not acknowledge the "
                    f"mutation within the {self.io_timeout}s I/O timeout"
                )
            try:
                shard_id, body = self._mutation_acks.get(
                    timeout=min(_CANCEL_POLL, remaining)
                )
            except queue.Empty:
                continue
            try:
                ack = pickle.loads(body)
            except Exception as exc:
                self.close()
                raise SchedulerError(
                    f"shard worker {shard_id} sent an undecodable "
                    f"mutation ack: {exc}"
                ) from None
            if ack != expected:
                self.close()
                raise SchedulerError(
                    f"shard worker {shard_id} diverged after mutation: "
                    f"acked {ack!r}, expected {expected!r}"
                )
            acked.add(shard_id)
        with self._lock:
            # Identity refresh: promotion swapped engine.data for the
            # DynamicHypergraph; the workers mirror it now, so the next
            # ensure_open must not rebuild the pool.
            self._graph = engine.data
        return self.num_shards

    # -- receive pump ----------------------------------------------------

    def _pump_loop(self) -> None:
        while not self._pump_stop.is_set():
            with self._lock:
                live = [
                    (member, member.sock)
                    for member in self._members
                    if member.sock is not None
                ]
            if not live:
                if self._pump_stop.wait(_CANCEL_POLL):
                    return
                continue
            try:
                readable, _, _ = select.select(
                    [sock for _, sock in live], [], [], _CANCEL_POLL
                )
            except (OSError, ValueError):
                # A socket died (or was closed by a teardown) between
                # the snapshot and the select; re-snapshot.
                continue
            for member, sock in live:
                if sock not in readable:
                    continue
                try:
                    kind, body = transport.recv_frame(sock)
                except (TransportError, OSError) as exc:
                    with self._lock:
                        self._recover_locked(member, sock, exc)
                    continue
                self._route(member, sock, kind, body)

    def _route(self, member: _MuxMember, sock, kind: int,
               body: bytes) -> None:
        """Deliver one inbound frame to its query's queue."""
        if kind == transport.MSG_DELTA:
            # A mutation ack: pool-level, untagged (mutations are a
            # whole-pool barrier, never interleaved with queries).
            self._mutation_acks.put((member.shard_id, body))
            return
        if kind not in (transport.MSG_LEVEL_REPLY, transport.MSG_QERROR):
            with self._lock:
                self._recover_locked(
                    member, sock,
                    TransportError(
                        f"unexpected frame kind {kind:#x} from shard "
                        f"{member.shard_id}"
                    ),
                )
            return
        try:
            query_id, rest = transport.split_query_body(body)
        except TransportError as exc:
            with self._lock:
                self._recover_locked(member, sock, exc)
            return
        garbled = None
        if kind == transport.MSG_QERROR:
            try:
                rest = transport.decode_pickle_body(rest)
            except TransportError as exc:
                # The query failed whatever the report said; a peer
                # that garbles it is recovered like any failed member
                # (never a reason for the pump thread to die).
                garbled, rest = exc, f"(unreadable error report: {exc})"
        with self._lock:
            state = self._queries.get(query_id)
            if kind == transport.MSG_QERROR:
                # Errors replace replies out of band; token alignment
                # is moot — the query is failing regardless.
                member.tokens.pop(query_id, None)
                if state is not None:
                    state.replies.put(("error", member.shard_id, rest))
                if garbled is not None:
                    self._recover_locked(member, sock, garbled)
                return
            tokens = member.tokens.get(query_id)
            token = tokens.popleft() if tokens else None
        if state is None or token is None:
            return  # a cancelled/finished query's straggler: drop it
        state.replies.put(("reply", member.shard_id, rest, token))

    # -- recovery --------------------------------------------------------

    def _recover_locked(self, member: _MuxMember, failed_sock,
                        exc=None) -> bool:
        """Reconnect ``member`` in place and replay its owed work.

        Caller holds the pool lock.  ``failed_sock`` is the socket the
        caller saw fail (None to force); if the member has already been
        recovered past it, this is a no-op.  Returns True when the
        member is live again; on failure the member is marked dead and
        every registered query receives a ``lost`` sentinel — the
        fail-fast half of "fails over or fails fast".
        """
        if failed_sock is not None and member.sock is not failed_sock:
            return member.sock is not None
        if member.sock is not None:
            self._close_sock(member.sock)
            member.sock = None
        member.tokens = {}
        if self._graph is None:
            return False
        try:
            sock, descriptor = self._open_connection(
                member.address, self._graph
            )
            if descriptor.shard_id != member.shard_id:
                self._close_sock(sock)
                raise SchedulerError(
                    f"reconnected worker announced shard "
                    f"{descriptor.shard_id}, expected {member.shard_id}"
                )
            member.sock = sock
            for state in self._queries.values():
                if state.job_body is not None:
                    sock.sendall(transport.encode_frame(
                        transport.MSG_JOB, state.job_body
                    ))
                    self.dispatched_frames += 1
                if (
                    state.level_body is not None
                    and member.shard_id in state.pending
                ):
                    sock.sendall(transport.encode_frame(
                        state.level_kind, state.level_body
                    ))
                    member.tokens.setdefault(
                        state.query_id, deque()
                    ).append(state.token)
                    self.dispatched_frames += 1
            return True
        except (SchedulerError, TransportError, OSError) as recover_exc:
            if member.sock is not None:
                self._close_sock(member.sock)
                member.sock = None
            member.tokens = {}
            reason = str(exc if exc is not None else recover_exc)
            for state in self._queries.values():
                state.replies.put(("lost", member.shard_id, reason))
            return False


class QueryChannel:
    """One query's executor facade over a :class:`MuxShardPool`.

    Implements the level-synchronous plug-in surface, so
    :func:`~repro.parallel.level_sync.run_level_synchronous` executes
    unchanged per query thread; many channels share one pool, and the
    pool's multiplexing interleaves their levels between barriers.
    """

    def __init__(
        self,
        pool: MuxShardPool,
        query_id: "int | None" = None,
        budget: "float | None" = None,
        cancel_event: "threading.Event | None" = None,
    ) -> None:
        self._pool = pool
        self.query_id = (
            pool.next_query_id() if query_id is None else query_id
        )
        self.num_shards = pool.num_shards
        self._state = _QueryState(self.query_id, budget, cancel_event)

    # -- executor surface ------------------------------------------------

    def _ensure_pool(self, engine) -> None:
        self._pool.ensure_open(engine)

    def _broadcast(self, message) -> None:
        state = self._state
        tag = message[0]
        if tag == "job":
            # The version stamp lets the worker refuse a query that
            # assumes a graph it has not been mutated to yet (§2.9).
            payload = pickle.dumps(
                (
                    message[1],
                    message[2],
                    getattr(self._pool._graph, "version", 0),
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            state.job_body = transport.encode_query_body(
                self.query_id, payload
            )
            self._pool.start_query(state)
            self._pool.send_all(
                self.query_id, transport.MSG_JOB, state.job_body
            )
            return
        if tag == "level":
            payload = pickle.dumps(
                (message[1], message[2]),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            kind = transport.MSG_LEVEL
            body = transport.encode_query_body(self.query_id, payload)
        elif tag == "collect":
            kind = transport.MSG_COLLECT
            body = transport.encode_query_body(self.query_id, b"")
        else:
            raise SchedulerError(f"unknown broadcast {tag!r}")
        # State first, send second: a send-path recovery replays from
        # exactly this state, so the frame being sent is never lost.
        state.token += 1
        state.last_broadcast = tag
        state.level_kind = kind
        state.level_body = body
        state.pending = set(range(self.num_shards))
        state.dispatched_at = time.monotonic()
        self._pool.send_all(self.query_id, kind, body)

    def _gather_iter(self):
        """Replies for the current barrier, as-completed.

        Enforces, in priority order: cancellation (prompt — polled at
        :data:`_CANCEL_POLL`), the query deadline, and the pool's
        per-barrier I/O timeout.  Every failure exit releases the query
        (remote CANCEL) first, so no worker session state outlives it.
        """
        state = self._state
        seen: set = set()
        while len(seen) < self.num_shards:
            if state.cancelled.is_set():
                self._fail()
                raise QueryCancelled(
                    f"query {self.query_id} cancelled mid-level"
                )
            now = time.monotonic()
            wait_until = state.dispatched_at + self._pool.io_timeout
            if state.deadline is not None:
                wait_until = min(wait_until, state.deadline)
            if now >= wait_until:
                self._fail()
                if state.deadline is not None and now >= state.deadline:
                    raise TimeoutExceeded(
                        now - state.started, state.budget
                    )
                missing = sorted(
                    set(range(self.num_shards)) - seen
                )
                raise SchedulerError(
                    f"shard worker(s) {missing} did not answer query "
                    f"{self.query_id} within the {self._pool.io_timeout}s "
                    f"I/O timeout"
                )
            try:
                item = state.replies.get(
                    timeout=min(_CANCEL_POLL, wait_until - now)
                )
            except queue.Empty:
                continue
            tag = item[0]
            if tag == "reply":
                _, shard_id, body, token = item
                if token != state.token or shard_id in seen:
                    continue  # stale barrier or recovered duplicate
                reply = self._decode(shard_id, body)
                seen.add(shard_id)
                state.pending.discard(shard_id)
                yield shard_id, reply
            elif tag == "error":
                _, shard_id, text = item
                self._fail()
                raise SchedulerError(
                    f"query {self.query_id} failed on shard "
                    f"{shard_id}:\n{text}"
                )
            else:  # "lost"
                _, shard_id, reason = item
                self._fail()
                raise SchedulerError(
                    f"shard worker {shard_id} lost mid-query "
                    f"{self.query_id} and could not be recovered: "
                    f"{reason}"
                )

    def _gather(self):
        collected = [None] * self.num_shards
        for shard_id, reply in self._gather_iter():
            collected[shard_id] = reply
        return collected

    # -- internals -------------------------------------------------------

    def _fail(self) -> None:
        self._pool.release(self.query_id, completed=False)

    def _decode(self, shard_id: int, body: bytes):
        try:
            return transport.decode_reply(
                body, self._state.last_broadcast == "collect"
            )
        except TransportError as exc:
            self._fail()
            raise SchedulerError(
                f"shard worker {shard_id} sent an undecodable reply "
                f"for query {self.query_id}: {exc}"
            ) from None

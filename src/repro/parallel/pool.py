"""The shard pool: one set of worker connections, any number of queries.

Sec. VI of the paper has one scheduler feeding one pool of workers;
whether one query or many are in flight is the scheduler's input, not
a second engine.  This module is that pool, in two pieces:

:class:`ShardPool`
    A flat list of member connections — every member holds the whole
    graph, so any of them can answer any request — opened by one
    function (:meth:`ShardPool.ensure_open`: own loopback cluster or
    fixed addresses, through the shared
    :func:`~repro.parallel.handshake.open_session` gate).  A **pump
    thread is the only reader of member sockets**: it routes each
    REPLY/QERROR to its query's queue by the ``query_id`` tag, consumes
    the CATCHUP-REPLY a commit's CATCHUP earns (:meth:`ShardPool.mutate`
    sends and never reads) and is the pool's one failure detector:
    every frame stamps its member, and a member silent — heartbeats
    included — for :data:`~repro.parallel.worker.SILENCE_BUDGET`
    (:data:`~repro.parallel.worker.MISS_BUDGET` heartbeat intervals) is
    failed, the same rule the handshake gate reads by.
    A member that fails — on a send, on the pump's read, on a CATCHUP
    it could not apply, by silence or at a reply deadline — goes down
    **one recovery ladder** (:meth:`ShardPool._member_failed`).

:class:`QueryChannel`
    One query on the pool: the one place SUBTREE bodies are encoded and
    the one gather loop.  :meth:`QueryChannel.count` cuts the query at
    the root into parts (:meth:`ShardPool._parts`), sends each chosen
    member one self-contained SUBTREE request and adds up the REPLYs.
    A solo job (:meth:`ShardPool.run`) is one channel with a fresh
    query id, like each query the match service opens on its engine's
    same pool.

Failover
--------
A part's count is a pure function of ``(plan, part, parts, graph
version)``, so any member can answer any part and two members' answers
are bit-identical.  Hence a lost member's owed parts are re-sent to
whoever takes over; a part is worked by one member at a time.  Every
dispatch pushes its part onto the member's per-query FIFO and the pump
pops one per reply (workers answer in request order).  Query ids are
never reused on a pool, so a late reply of a finished or cancelled
query has no registered taker and is dropped, and a duplicate names a
part the gather no longer waits for.  Only per-worker *counter
accounting* can split across members; embedding counts are exact
because exactly one reply per part is taken.

``docs/ARCHITECTURE.md`` ("Failover", "Match service")
places this layer in the system and tabulates the ladder.
"""

from __future__ import annotations

import itertools
import logging
import pickle
import queue
import random
import select
import socket
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Sequence, Tuple

from ..core.counters import MatchCounters
from ..errors import (
    QueryCancelled,
    SchedulerError,
    TimeoutExceeded,
    TransportError,
)
from ..hypergraph import Hypergraph
from ..hypergraph.storage import resolve_index_backend
from . import handshake, transport
from .cluster import LocalCluster, spawn_local_cluster
from .handshake import catchup_body, open_session
from .tasks import ParallelResult
from .worker import (
    HEARTBEAT_INTERVAL,
    MISS_BUDGET,
    SILENCE_BUDGET,
    ShardDescriptor,
)

logger = logging.getLogger("repro.parallel")

#: How often a waiting gather re-checks its cancel flag and its
#: deadlines (and the pump its members' silence) — the latency bound on
#: noticing any of them.
_TICK = 0.05

#: The most the pump takes off one member's socket per round: under
#: malloc's mmap threshold, as a 1 MiB buffer costs ~17 us per read.
_RECV_BYTES = 1 << 16

_JOB_REPLIES = (transport.MSG_LEVEL_REPLY, transport.MSG_QERROR)


class _Member:
    """One live member connection of the pool."""

    __slots__ = ("name", "address", "sock", "inbox", "parts", "last_heard")

    def __init__(self, name: int, address, sock) -> None:
        #: The ``shard_id`` the worker announced.
        self.name = name
        self.address = address
        self.sock = sock
        #: Bytes the pump has read but not yet routed: at most the
        #: start of one frame.
        self.inbox = bytearray()
        #: When the pump last read a whole frame from it (a heartbeat
        #: counts; a partial frame does not).
        self.last_heard = time.monotonic()
        #: query id → FIFO of the parts awaiting replies on this
        #: connection (a drained FIFO is deleted, so an empty dict means
        #: an idle connection).  The worker answers strictly in request
        #: order, so the head names the part the next inbound reply for
        #: that query answers.
        self.parts: "Dict[int, deque]" = {}

    def owed(self) -> int:
        """Replies this connection still owes, over all queries."""
        return sum(map(len, self.parts.values()))

    def __str__(self) -> str:
        return f"shard {self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_Member({self}, address={self.address!r}, "
            f"owing={sorted(self.parts)})"
        )


class _QueryState:
    """Pool-side state of one in-flight query (guarded by the pool
    lock, except ``replies``, which is the hand-off to its channel)."""

    __slots__ = (
        "query_id", "replies", "frames", "pending", "watchers",
        "started", "budget", "deadline", "cancelled",
    )

    def __init__(self, query_id, budget, cancelled) -> None:
        self.query_id = query_id
        #: Routed arrivals: ``(tag, part, payload)`` with tag
        #: ``"reply"`` / ``"error"``, or ``("lost", None, message)``
        #: when the pool gave the query up (it says why).
        self.replies: "queue.Queue" = queue.Queue()
        #: part → its encoded SUBTREE frame, which failover re-sends.
        self.frames: "Dict[int, bytes]" = {}
        #: Parts still owing a reply, and per such part the member
        #: working it and when it was sent.
        self.pending: set = set()
        self.watchers: "Dict[int, Tuple[_Member, float]]" = {}
        self.started = time.monotonic()
        self.budget = budget
        self.deadline = None if budget is None else self.started + budget
        self.cancelled = (
            threading.Event() if cancelled is None else cancelled
        )


class _Pump(threading.Thread):
    """A pool's reader thread: the only reader of member sockets."""

    def __init__(self, pool: "ShardPool") -> None:
        super().__init__(name="shard-pool-pump", daemon=True)
        self.pool = pool
        self.stopping = False
        self.wake_r, self.wake_w = socket.socketpair()
        self.wake_w.setblocking(False)

    def wake(self) -> None:
        """Pull the thread out of its select: the member list grew."""
        try:
            self.wake_w.send(b"\0")
        except OSError:
            pass  # full (it will wake anyway) or stopping

    def stop(self) -> None:
        self.stopping = True
        transport.close_quietly(self.wake_w)  # EOF wakes the select

    def run(self) -> None:
        pool = self.pool
        epoch, live, socks = None, [], []
        try:
            while not self.stopping:
                if epoch != pool._epoch:
                    with pool._lock:
                        epoch = pool._epoch
                        live = list(pool._members)
                    socks = [self.wake_r] + [m.sock for m in live]
                try:
                    readable, _, _ = select.select(socks, [], [], _TICK)
                except (OSError, ValueError):
                    epoch = None  # a socket was closed under the select
                    continue
                # Silence is judged as of the select: a member with
                # nothing to read then had sent nothing since its
                # stamp, however long this round's reads take.
                now = time.monotonic()
                for member in live:
                    if member.sock in readable:
                        self._read(member)
                silent = [
                    m for m in live if now - m.last_heard > SILENCE_BUDGET
                ]
                if silent:
                    with pool._lock:
                        for member in silent:
                            pool._member_failed(
                                member,
                                f"silent for {now - member.last_heard:.2f}s"
                                f" (no frame, heartbeats included; budget "
                                f"{MISS_BUDGET} x {HEARTBEAT_INTERVAL}s)",
                            )
                if self.wake_r in readable and not self.wake_r.recv(4096):
                    return  # the pool hung up on the pipe: stopping
        finally:
            transport.close_quietly(self.wake_r)

    def _read(self, member: _Member) -> None:
        """Route every whole frame a ready member has sent.  One recv,
        which select says will not block; a frame's missing rest waits
        in the member's inbox for a later round, so a member stalled
        mid-frame holds up no other and is failed on its silence."""
        pool = self.pool
        try:
            chunk = member.sock.recv(_RECV_BYTES)
            if not chunk:
                raise TransportError("connection closed by peer")
            member.inbox += chunk
            for kind, body in transport.split_frames(member.inbox):
                member.last_heard = time.monotonic()
                if kind != transport.MSG_HEARTBEAT:
                    pool._route(member, kind, body)
                if member not in pool._members:
                    return  # failed by its own frame: read no further
        except (OSError, TransportError) as exc:
            with pool._lock:
                pool._member_failed(member, str(exc))


class ShardPool:
    """A pool of TCP-connected workers shared by any number of
    concurrent queries.

    Every member holds the whole data graph, so the pool is a flat list
    of interchangeable members; the ``shard_id`` a worker announces is
    only its name.  Two construction modes:

    ``ShardPool(addresses=[("host", port), ...])``
        Connect to externally managed workers (the multi-host mode; the
        CLI's ``--hosts``, or a :class:`~repro.parallel.cluster.
        LocalCluster`'s ``addresses``, which a restarted worker keeps).
        A dead address is skipped with a warning; the pool refuses to
        open only when *no* member is live.

    ``ShardPool(num_shards=N)``
        Spawn (and own) a local cluster of ``N`` members for the
        engine's data graph on first use — the single-machine
        ``--executor processes`` path, and the match service's default.
        The cluster is spawned once per graph and decides every restart
        of its workers (:meth:`~repro.parallel.cluster.LocalCluster.
        respawn`): the pool asks, and holds no restart budget of its own.

    The handshake is validated against the pool's expectations before
    any job runs: index backend, the data graph fingerprint and version
    (counts would be silently wrong; a stale worker is caught up) and
    unique names.  A *contract*
    mismatch always tears the connections down and raises
    :class:`~repro.errors.SchedulerError`; a *liveness* failure
    (connect refused, peer vanished) costs one member.

    Every member heartbeats its connection, so a dead or wedged one is
    failed over once it has been silent for
    :data:`~repro.parallel.worker.SILENCE_BUDGET` — at the handshake as
    on the pump; :data:`~repro.parallel.handshake.REPLY_DEADLINE` bounds
    every wait on a live worker's reply to one query.  A session lasts
    as long as its connection: an idle pool keeps its members.
    Failover may split a query's per-worker counter accounting across
    members; embedding counts are always exact.
    """

    def __init__(
        self,
        addresses: "Sequence[Tuple[str, int]] | None" = None,
        num_shards: "int | None" = None,
        index_backend: "str | None" = None,
        start_method: "str | None" = None,
        chaos=None,
    ) -> None:
        if addresses is not None:
            addresses = [tuple(address) for address in addresses]
            if num_shards not in (None, len(addresses)):
                raise SchedulerError(
                    f"num_shards={num_shards} contradicts "
                    f"{len(addresses)} worker addresses"
                )
            num_shards = len(addresses)
        if num_shards is None:
            raise SchedulerError(
                "ShardPool needs worker addresses or num_shards"
            )
        if num_shards < 1:
            raise SchedulerError("num_shards must be >= 1")
        self.addresses = addresses
        self.num_shards = num_shards
        self.index_backend = resolve_index_backend(index_backend)
        self.start_method = start_method
        self.chaos = chaos
        #: SUBTREE and commit CATCHUP frames sent to workers — the
        #: counter the cache-bypass gate watches (a cache hit must not
        #: move it).
        self.dispatched_frames = 0
        self._retry_rng = random.Random(0x5EED)
        #: Guards the member list, the query table, every member's
        #: parts and every send on a member socket.
        self._lock = threading.RLock()
        self._cluster: "LocalCluster | None" = None
        #: The live members, in the order they joined (empty when no
        #: pool is up).
        self._members: "List[_Member]" = []
        #: Name → last address of every member that failed out of the
        #: pool: where the ladder reconnects.
        self._lost: "Dict[int, Tuple[str, int]]" = {}
        self._queries: "Dict[int, _QueryState]" = {}
        #: The graph the pool serves, from its first open to
        #: :meth:`close` (a commit rolls it forward): an owned cluster
        #: is spawned once for it.
        self._graph: "Hypergraph | None" = None
        #: Query ids, never reused on this pool: a late reply of a
        #: finished query finds no taker.
        self._ids = itertools.count(1)
        self._pump: "_Pump | None" = None
        #: Bumped on every change to the member list; the pump re-reads
        #: it only when it moved.
        self._epoch = 0

    # -- opening and closing --------------------------------------------

    def ensure_open(self, engine) -> bool:
        """Open (or reuse) the pool for ``engine``'s data graph.

        The one place a pool comes up, whoever asks — a solo job or one
        of many service queries.  Returns True when live connections
        were reused.  A pool that owns its cluster first fails every
        member whose worker process has died — the pump may not have
        read its EOF yet — then asks the cluster to restart the members
        it lost (the worker died or went silent): one the cluster
        refuses while backing off stays lost, so a later open asks
        again.  Lost workers at fixed addresses are reconnected only by
        the ladder, when no member is left to take a part — a wedged one
        would cost every open its handshake's silence budget — or
        re-added by :meth:`admit`.  A pool with no live member left
        reconnects to its addresses, or to its cluster's workers once
        the cluster restarted the dead ones it may: a cluster is spawned
        only for a graph the pool has not served.
        """
        if engine.index_backend != self.index_backend:
            raise SchedulerError(
                f"engine backend {engine.index_backend!r} does not match "
                f"pool backend {self.index_backend!r}"
            )
        with self._lock:
            same_graph = self._graph is engine.data
            if same_graph and self._members:
                if self._cluster is not None:
                    self._reap_dead_members()
                    for name in sorted(self._lost):
                        try:
                            self._restore_member(name)
                        except SchedulerError:
                            pass  # still lost: a later open asks again
                if self._members:
                    return True
            if self._queries:
                raise SchedulerError(
                    "cannot rebuild the pool for a different graph with "
                    f"{len(self._queries)} queries in flight"
                )
            self._close_connections("the pool lost its last member")
            failures: "List[str]" = []
            if self.addresses is not None:
                addresses = self.addresses
            else:
                if self._cluster is None or not same_graph:
                    # Local mode: own a cluster for this engine's graph.
                    if self._cluster is not None:
                        self._cluster.close()
                        self._cluster = None
                    self._cluster = spawn_local_cluster(
                        engine.data,
                        self.num_shards,
                        self.index_backend,
                        start_method=self.start_method,
                        chaos=self.chaos,
                        store=engine.store,
                    )
                addresses = self._cluster_addresses(failures)
            self._members = self._connect_members(
                addresses, engine.data, failures
            )
            self._graph = engine.data
            self._epoch += 1
            self._pump = _Pump(self)
            self._pump.start()
            return False

    def _cluster_addresses(self, failures: "List[str]") -> list:
        """The owned cluster's workers, once it restarted the dead ones
        it may; a slot refused while backing off is noted lost, with
        why in ``failures``."""
        cluster = self._cluster
        addresses = []
        for name, process in enumerate(cluster.processes):
            address = cluster.addresses[name]
            if not process.is_alive():
                try:
                    address = cluster.respawn(name)
                except SchedulerError as exc:
                    failures.append(str(exc))
                    if not cluster.exhausted(name):
                        self._lost[name] = address
                    continue
            addresses.append(address)
        return addresses

    def _connect_members(
        self, addresses, graph, failures: "List[str]"
    ) -> "List[_Member]":
        """Connect and handshake every address into a fresh member
        list; an address that cannot be reached is skipped (added to
        ``failures``, which says why when none connects), one that
        fails the contract fails the open."""
        members: "List[_Member]" = []
        try:
            for address in addresses:
                where = f"{address[0]}:{address[1]}"
                try:
                    sock, descriptor = self._open_session(address, graph)
                except (TransportError, OSError) as exc:
                    failures.append(f"{where}: {exc}")
                    logger.warning(
                        "could not open shard worker at %s: %s", where, exc
                    )
                    continue
                member = _Member(descriptor.shard_id, address, sock)
                members.append(member)
                self._check_unique(member, members[:-1])
            if not members:
                raise SchedulerError(
                    f"could not connect to any shard worker: "
                    f"{'; '.join(failures)}"
                )
        except BaseException:
            for member in members:
                transport.close_quietly(member.sock)
            raise
        return members

    @staticmethod
    def _check_unique(member: _Member, others) -> None:
        if any(other.name == member.name for other in others):
            raise SchedulerError(
                f"two workers both announced shard id {member.name}"
            )

    def _open_session(self, address, graph, **expect):
        """Connect to ``address`` and validate its handshake against
        this pool's view; returns ``(sock, descriptor)``."""
        return open_session(
            address,
            graph,
            rng=self._retry_rng,
            chaos=self.chaos,
            index_backend=self.index_backend,
            **expect,
        )

    def _close_connections(
        self, message: str = "the shard pool was closed"
    ) -> None:
        """End every session — closing its connection is what ends it —
        stop the pump and fail whatever was in flight with ``message``.
        An owned cluster survives: reconnecting re-validates every
        worker."""
        with self._lock:
            if self._pump is not None:
                self._pump.stop()
            for member in self._members:
                transport.close_quietly(member.sock)
            self._members = []
            self._epoch += 1
            self._lost = {}
            for state in self._queries.values():
                state.replies.put(("lost", None, message))
            self._queries.clear()

    def close(self) -> None:
        """End the sessions; stop the owned local cluster, if any.

        Idempotent and safe at any lifecycle point: after a refused or
        partial handshake, after a previous close, or on a pool that
        never opened.  The owned cluster is released before it is
        stopped, so even an exception out of the session teardown can
        neither leak worker processes nor make a second close re-stop
        them.
        """
        pump = self._pump
        try:
            self._close_connections()
            self._graph = None
        finally:
            cluster, self._cluster = self._cluster, None
            if cluster is not None:
                cluster.close()
        if pump is not None and pump is not threading.current_thread():
            pump.join(timeout=5.0)

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- queries: registration and dispatch -----------------------------

    def run(
        self,
        engine,
        query: Hypergraph,
        order: "Sequence[int] | None" = None,
        time_budget: "float | None" = None,
        counters: "MatchCounters | None" = None,
    ):
        """Execute one solo counting job — one channel with a fresh
        query id, like a service query — and return its
        :class:`~repro.parallel.tasks.ParallelResult`
        (:meth:`QueryChannel.count`: one request and one reply per
        chosen member, each running the whole block-DFS below its slice
        of the root candidates).

        Counts are bit-identical to the sequential engine, including
        under failover, which replaces *who* answers a part but never
        *what* the answer is.  The Fig. 9 funnel is computed, and
        merged into ``counters``, only when ``counters`` is passed.
        ``time_budget`` is enforced mid-gather
        here and between blocks on the workers.  A
        job that fails with a :class:`~repro.errors.SchedulerError` on
        a pool it had to itself ends the pool's sessions (the next job
        reconnects; an owned cluster stays up, its restart budgets
        with it); with service queries registered beside it the pool
        stays up for them (a pool out of members failed them too and
        emptied the table).
        """
        channel = QueryChannel(self, budget=time_budget)
        try:
            return channel.count(engine, engine.plan(query, order), counters)
        except SchedulerError:
            # The channel has unregistered this job by now.
            if not self._queries:
                self._close_connections()
            raise

    def release(self, query_id: int) -> None:
        """Unregister a query; idempotent.  Workers hold no state for
        it — a request is self-contained — and a part still running for
        nobody stops at the budget it carried; a late reply finds no
        registered query and is dropped."""
        with self._lock:
            self._queries.pop(query_id, None)

    def _open_parts(
        self, state: _QueryState, frames: "Dict[int, bytes]"
    ) -> None:
        """Start ``state``'s parts (pool lock held): one per entry of
        ``frames``, each dispatched to one member."""
        state.frames = frames
        state.pending = set(frames)
        state.watchers = {}
        for part in frames:
            self._dispatch(state, part)

    def _parts(self) -> int:
        """How many parts a job registering now is cut into (pool lock
        held) — the one rule, from what the pool observes: its live
        members shared among the queries registered on it, this one
        included.  A job alone on N members splits N ways; with N or
        more queries in flight each goes whole to one member (nothing
        is computed twice over); never more than N parts — a part
        repeats the step-0 scan and pays the block kernel's fixed
        costs, so over-cutting only burns CPU."""
        return max(1, len(self._members) // len(self._queries))

    def _dispatch(
        self, state: _QueryState, part: int, cause: "str | None" = None
    ) -> None:
        """Send ``part``'s request to one member, climbing the ladder
        when no live one can take it."""
        while self._queries.get(state.query_id) is state:
            target = self._pick_member()
            if target is None:
                # Rungs 2-3: bring a lost member back.
                why = [cause or "no live member left to dispatch to"]
                for name in sorted(self._lost):
                    try:
                        target = self._restore_member(name)
                        break
                    except SchedulerError as exc:
                        why.append(str(exc))
                else:
                    self._lose_all("; ".join(why))
                    return
            try:
                target.sock.sendall(state.frames[part])
            except OSError as exc:
                self._member_failed(target, f"send failed: {exc}")
                continue
            target.parts.setdefault(state.query_id, deque()).append(part)
            state.watchers[part] = (target, time.monotonic())
            self.dispatched_frames += 1
            return

    def _pick_member(self) -> "_Member | None":
        """The member to dispatch a part to: the one owing the fewest
        replies (its queue preserves order), ties to the earliest
        joined.  Deterministic in the pool's own state."""
        return min(self._members, key=_Member.owed, default=None)

    # -- the pump: the only reader of member sockets --------------------

    def _route(self, member: _Member, kind: int, body: bytes) -> None:
        """Deliver one inbound frame: a job reply to its query's queue.
        A CATCHUP-REPLY is consumed (the worker checked its post-commit
        state itself); an ERROR — a CATCHUP the worker could not apply
        — fails the member into the ladder with its traceback."""
        if kind == transport.MSG_CATCHUP_REPLY:
            return
        garbled = None
        try:
            if kind == transport.MSG_ERROR:
                raise TransportError(
                    f"{member} failed a commit's CATCHUP:\n"
                    f"{transport.decode_pickle_body(body)}"
                )
            if kind not in _JOB_REPLIES:
                raise TransportError(
                    f"unexpected frame kind {kind:#x} from {member}"
                )
            query_id, rest = transport.split_query_body(body)
        except TransportError as exc:
            with self._lock:
                self._member_failed(member, str(exc))
            return
        tag = "reply"
        if kind == transport.MSG_QERROR:
            tag = "error"
            try:
                rest = transport.decode_pickle_body(rest)
            except TransportError as exc:
                # The query failed whatever the report said; a peer
                # that garbles it is failed like any other member
                # (never a reason for the pump thread to die).
                garbled, rest = exc, f"(unreadable error report: {exc})"
        with self._lock:
            parts = member.parts.get(query_id)
            part = parts.popleft() if parts else None
            if parts is not None and not parts:
                del member.parts[query_id]
            state = self._queries.get(query_id)
            # No taker: a cancelled/finished query's straggler.  An
            # error needs no part — its query is failing regardless.
            if state is not None and (part is not None or tag == "error"):
                state.replies.put((tag, part, rest))
            if garbled is not None:
                self._member_failed(member, str(garbled))

    @contextmanager
    def _idle(self, what: str):
        """Run a membership change under the pool lock, insisting that
        no query is in flight."""
        with self._lock:
            if self._queries:
                raise SchedulerError(
                    f"cannot {what} with {len(self._queries)} queries "
                    f"in flight"
                )
            yield

    # -- the recovery ladder --------------------------------------------

    def _member_failed(self, member: _Member, cause: str) -> None:
        """The one recovery ladder for a failed member (pool lock held).

        Drop it, then re-send every part it alone was working.  Who
        takes each over is decided in :meth:`_dispatch`, from what the
        pool can observe and nothing a caller sets:

        1. another live member (free: a request is self-contained);
        2. else a respawn of a lost member, when the pool owns its
           cluster and the cluster's restart policy allows it;
        3. else a reconnect in place at a lost member's last address
           (the handshake gate's CATCHUP heals a worker that went
           stale) — :meth:`_restore_member`;
        4. else a typed failure to every registered query
           (:meth:`_lose_all`).

        Only the lost process's share of counter accounting goes with
        it: a part's reply is a pure function of ``(plan, part, parts,
        graph version)``, and the gather takes exactly one per part.
        """
        if not self._drop_member(member, cause):
            return  # already out of the pool: handled by another path
        for state in list(self._queries.values()):
            for part, (worker, _) in list(state.watchers.items()):
                if worker is member and part in state.pending:
                    self._dispatch(state, part, cause=cause)

    def _drop_member(self, member: _Member, cause: str) -> bool:
        """Remove one member connection; False when it was not (or no
        longer) in the pool."""
        if member not in self._members:
            return False
        self._members.remove(member)
        self._epoch += 1
        self._lost[member.name] = member.address
        transport.close_quietly(member.sock)
        logger.warning("%s at %s dropped: %s", member, member.address, cause)
        return True

    def _reap_dead_members(self) -> None:
        """Fail into the ladder every member whose owned worker process
        has died (pool lock held), so the restore that follows respawns
        it even when the pump has not read its EOF yet."""
        cluster = self._cluster
        for member in list(self._members):
            name = member.name
            if (
                name < cluster.num_shards
                and cluster.addresses[name] == member.address
                and not cluster.processes[name].is_alive()
            ):
                self._member_failed(member, "its worker process died")

    def _restore_member(self, name: int) -> _Member:
        """Rungs 2–3 for a lost member: respawned when the pool owns the
        cluster (if its policy allows), else reconnected where it last
        was.  Raises :class:`~repro.errors.SchedulerError` saying why,
        when it cannot be brought back; a member whose slot the cluster
        has given up on is forgotten."""
        address = self._lost[name]
        cluster = self._cluster
        try:
            if cluster is not None:
                address = cluster.respawn(name)
            sock, _ = self._open_session(
                address, self._graph, expected_shard=name
            )
        except (SchedulerError, OSError, TransportError) as exc:
            if (
                cluster is not None
                and name < cluster.num_shards
                and cluster.exhausted(name)
            ):
                del self._lost[name]
            why = f"shard {name} at {address} could not be restored: {exc}"
            logger.warning("%s", why)
            raise SchedulerError(why) from None
        member = _Member(name, address, sock)
        self._place(member)
        logger.warning("%s restored at %s", member, address)
        return member

    def _place(self, member: _Member) -> None:
        self._members.append(member)
        self._lost.pop(member.name, None)
        self._epoch += 1
        self._pump.wake()  # it must start reading the newcomer

    def _lose_all(self, cause: str) -> None:
        """Out of members: every registered query is handed the typed
        failure and the sessions are torn down (the next query reopens
        the pool)."""
        self._close_connections(
            f"shard worker disconnected mid-job: {cause}; no live member "
            f"remains"
        )

    def _member(self, name) -> "_Member | None":
        return next((m for m in self._members if m.name == name), None)

    # -- commits and membership -----------------------------------------

    def mutate(self, engine, result) -> None:
        """Send one committed mutation batch to the live pool; reads
        nothing and never fails the commit.

        The engine has already applied the batch (``result`` is its
        :class:`~repro.hypergraph.dynamic.MutationResult`), and a
        journalled service has made it durable.  Every member live when
        the commit starts is sent one CATCHUP frame (§2.9) carrying the
        batch suffix and the post-commit edge and vertex counts
        (:func:`~repro.parallel.handshake.catchup_body`): the worker
        applies it in order behind whatever it was already sent, and
        checks itself against those counts.  The pump consumes the
        CATCHUP-REPLY; a member whose send fails here, or that answers
        ERROR, goes down the one recovery ladder, where a reconnect's
        handshake catches it up (§2.10).  A query straddling the commit
        stays exact: its parts queued ahead of the CATCHUP count at the
        old version, and a part re-sent after it is refused on the
        version stamp every SUBTREE carries.  A pool that is not
        running needs nothing: its next open spawns workers from, or
        catches them up to, the already-mutated graph.
        """
        with self._lock:
            if self._graph is None:
                return
            # The graph identity rolls forward with the commit (the
            # first mutation swaps engine.data for its dynamic form):
            # the next ensure_open reuses the pool and its cluster, and
            # a member restored from here on is caught up by its
            # handshake.
            self._graph = engine.data
            members = list(self._members)
            if not members:
                return
            frame = transport.encode_frame(
                transport.MSG_CATCHUP,
                catchup_body(engine.data, result.version - 1),
            )
            for member in members:
                try:
                    member.sock.sendall(frame)
                except OSError as exc:
                    self._member_failed(member, f"commit send failed: {exc}")
                    continue
                self.dispatched_frames += 1

    def admit(self, address: Tuple[str, int]) -> ShardDescriptor:
        """Fold a newcomer worker into the live pool mid-lifetime.

        Connects to ``address``, validates the full handshake contract
        (backend, fingerprint; a stale graph version is caught up) and appends the newcomer to the member list — from where
        the very next part (or failover) can dispatch to it.  A name
        already live is refused.  Admission failures leave the pool
        exactly as it was.  Returns the admitted worker's descriptor.
        """
        with self._idle("admit"):
            if not self._members:
                raise SchedulerError(
                    "no live pool to admit into; run a job first"
                )
            address = tuple(address)
            where = f"{address[0]}:{address[1]}"
            try:
                sock, descriptor = self._open_session(address, self._graph)
            except OSError as exc:
                raise SchedulerError(
                    f"could not connect to shard worker at {where}: {exc}"
                ) from exc
            except TransportError as exc:
                raise SchedulerError(
                    f"worker at {where} failed the admission handshake: "
                    f"{exc}"
                ) from None
            member = _Member(descriptor.shard_id, address, sock)
            try:
                self._check_unique(member, self._members)
            except SchedulerError as exc:
                transport.close_quietly(sock)
                raise SchedulerError(
                    f"{exc}; refusing to admit the newcomer at {where}"
                ) from None
            self._place(member)
            logger.info(
                "admitted %s at %s into the pool (%d members)",
                member, where, len(self._members),
            )
            return descriptor

    def drain(self, shard_id: int) -> None:
        """Gracefully decommission one member of the live pool.

        Closes its connection, which ends the worker's session; a reply
        still owed to a query that is gone is dropped with it (the pump
        tolerates a socket closed under its select).  A member that
        already failed out of the pool is simply forgotten.  Draining the
        last live member is refused.
        """
        with self._idle("drain"):
            if not self._members:
                raise SchedulerError(
                    "no live pool to drain; run a job first"
                )
            member = self._member(shard_id)
            if member is None and shard_id not in self._lost:
                raise SchedulerError(
                    f"shard {shard_id} is not a live member of the pool"
                )
            if member is not None and len(self._members) == 1:
                raise SchedulerError(
                    f"refusing to drain shard {shard_id}: it is the "
                    f"pool's last live member"
                )
            if member is not None:
                transport.close_quietly(member.sock)
                if member in self._members:
                    self._members.remove(member)
                    self._epoch += 1
            self._lost.pop(shard_id, None)
            logger.info("drained shard %d", shard_id)


class QueryChannel:
    """One query on a :class:`ShardPool`.

    Many channels share one pool, each gathering only its own replies
    by query id — a fresh one per channel, never reused on the pool —
    which is what makes multiplexed counts bit-identical to solo runs.
    ``budget`` (seconds) and ``cancel_event`` are enforced *inside* the
    gather.
    """

    def __init__(
        self,
        pool: ShardPool,
        budget: "float | None" = None,
        cancel_event: "threading.Event | None" = None,
    ) -> None:
        self._pool = pool
        self.query_id = next(pool._ids)
        self._state = _QueryState(self.query_id, budget, cancel_event)

    def _send_parts(self, plan, funnel: bool) -> None:
        """Register the query, cut it into parts and dispatch one
        SUBTREE request per part (the only place their bodies are
        built).  Self-contained: the plan (query and order with it),
        the graph version it assumes (§2.9), what is left of the
        query's budget, so a worker stops on its own once nobody is
        waiting, and whether the caller wants the funnel.

        A member that failed since the pool was opened is no reason to
        refuse: the parts go down the ladder, which restores it or fails
        the query typed."""
        pool, state = self._pool, self._state
        remaining = (
            None if state.deadline is None
            else max(0.0, state.deadline - time.monotonic())
        )
        with pool._lock:
            if pool._graph is None:
                raise SchedulerError(
                    f"the shard pool was closed before query "
                    f"{self.query_id} could start"
                )
            job = pickle.dumps(
                (plan, pool._graph.version, remaining, funnel),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            pool._queries[self.query_id] = state
            parts = pool._parts()
            # State first, send second: a send-path recovery replays
            # from exactly this state, so the frame is never lost.
            pool._open_parts(state, {
                part: transport.encode_frame(
                    transport.MSG_SUBTREE,
                    transport.encode_query_body(
                        self.query_id,
                        transport.encode_subtree_body(part, parts, job),
                    ),
                )
                for part in range(parts)
            })

    def _gather_iter(self):
        """As-completed ``(part, reply)`` pairs for the query's parts, in
        arrival order.

        The one gather loop.  In priority order it enforces the cancel
        flag, the query deadline and — on a :data:`_TICK`, under the
        pool lock — the per-request reply deadline (:meth:`_tick`); and
        it guarantees **at most one reply
        per part** reaches the caller: a duplicate is discarded here by
        part.  Every failure exit unregisters the query first.
        """
        pool, state = self._pool, self._state
        next_tick = time.monotonic() + _TICK
        while state.pending:
            if state.cancelled.is_set():
                self._release()
                raise QueryCancelled(
                    f"query {self.query_id} cancelled mid-job"
                )
            now = time.monotonic()
            if state.deadline is not None and now >= state.deadline:
                self._release()
                raise TimeoutExceeded(now - state.started, state.budget)
            if now >= next_tick:
                next_tick = now + _TICK
                with pool._lock:
                    silent = self._tick(now)
                if silent:
                    self._release()
                    raise SchedulerError(
                        f"the worker(s) of part {silent} did not answer "
                        f"query {self.query_id} within the "
                        f"{handshake.REPLY_DEADLINE}s reply deadline"
                    )
            wait = next_tick - now
            if state.deadline is not None:
                wait = min(wait, state.deadline - now)
            try:
                tag, part, payload = state.replies.get(
                    timeout=max(wait, 0.0)
                )
            except queue.Empty:
                continue
            if tag == "lost":
                raise SchedulerError(payload)
            if tag == "error":
                # Enumeration errors are deterministic in the request —
                # every member would fail identically, so this is not a
                # failover case.  (The report names the worker itself.)
                # A worker that ran into the query's own budget is the
                # deadline, seen from there.
                self._release()
                now = time.monotonic()
                if state.deadline is not None and now >= state.deadline:
                    raise TimeoutExceeded(now - state.started, state.budget)
                raise SchedulerError(
                    f"query {self.query_id} failed on part {part}:\n"
                    f"{payload}"
                )
            if part not in state.pending:
                continue  # a duplicate: the part is already answered
            try:
                reply = transport.decode_reply(payload)
            except TransportError as exc:
                self._release()
                raise SchedulerError(
                    f"the worker of part {part} sent an undecodable "
                    f"reply for query {self.query_id}: {exc}"
                ) from None
            with pool._lock:
                state.pending.discard(part)
                state.watchers.pop(part, None)
            yield part, reply

    def _tick(self, now: float) -> "List[int]":
        """The gather's periodic duties (pool lock held); returns the
        parts whose request timed out with nobody to fail over to.

        A member silent towards this query past
        :data:`~repro.parallel.handshake.REPLY_DEADLINE` is failed — and
        its part re-dispatched — only when another live member can take
        it: on a shared connection silence towards *one* query is not
        evidence that the worker is dead (its neighbours may be being
        answered), so without a spare the deadline fails the query,
        typed, and leaves the connection to the others.  (A member
        silent towards *everyone* is the pump's to fail, long before
        this deadline.)
        """
        pool, state = self._pool, self._state
        deadline = handshake.REPLY_DEADLINE
        silent = []
        for part in sorted(state.pending):
            if pool._queries.get(self.query_id) is not state:
                return []  # the pool gave the query up; "lost" is queued
            watcher = state.watchers.get(part)
            if watcher is None or watcher[1] + deadline > now:
                continue
            if len(pool._members) > 1:
                pool._member_failed(
                    watcher[0],
                    f"no reply within {deadline}s (worker wedged)",
                )
            else:
                silent.append(part)
        return silent

    def count(
        self, engine, plan, counters: "MatchCounters | None" = None
    ) -> ParallelResult:
        """Count ``plan``'s query (``engine.plan(query, order)``) as one
        **subtree job** along it.

        The paper's Sec. VI task model on this pool: every worker holds
        the whole graph, so a query is cut at the root — into as many
        parts as :meth:`ShardPool._parts` finds members free for it —
        and each chosen member is sent one self-contained SUBTREE
        request carrying the plan, runs that plan's sequential
        block-DFS below every ``parts``-th root candidate (what
        :meth:`~repro.core.engine.HGMatch.count_part` runs, minus the
        planning) and answers one REPLY with its count and accounting.
        Same store version ⇒ the same ascending root tuple on every
        member, so no edge id is shipped; two frames per member per
        query, nothing composed here, no session state there.

        The channel's budget and cancel flag are enforced mid-gather
        (:meth:`_gather_iter`) and the budget also travels in the
        request.  The result's count is the sum of the parts' counts.
        The Fig. 9 funnel is computed only when ``counters`` is passed:
        the parts' funnels are merged into it — they add up to the
        sequential engine's, only part 0 charging the step-0 scan and
        the root task — and it is the result's ``counters`` (else
        None).  ``worker_stats`` holds one entry per part, in part
        order, each stamped with the shard id of the member that ran it.
        Answered or not, the query is unregistered on the way out.
        """
        state = self._state
        self._pool.ensure_open(engine)
        if state.cancelled.is_set():
            raise QueryCancelled(
                f"query {self.query_id} cancelled before dispatch"
            )
        if state.deadline is not None and time.monotonic() >= state.deadline:
            raise TimeoutExceeded(
                time.monotonic() - state.started, state.budget
            )
        started = time.monotonic()
        try:
            self._send_parts(plan, counters is not None)
            answers = dict(self._gather_iter())
        finally:
            self._release()
        embeddings = 0
        worker_stats = []
        for part in sorted(answers):
            part_embeddings, part_counters, stats = answers[part]
            embeddings += part_embeddings
            if counters is not None:
                counters.merge(part_counters)
            worker_stats.append(stats)
        return ParallelResult(
            embeddings=embeddings,
            elapsed=time.monotonic() - started,
            counters=counters,
            worker_stats=worker_stats,
        )

    def _release(self) -> None:
        """Unregister the query (idempotent): it is answered or given
        up."""
        self._pool.release(self.query_id)

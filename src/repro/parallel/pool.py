"""The shard pool: one set of worker connections, any number of queries.

Sec. VI of the paper has one scheduler feeding one pool of workers;
whether one query or many are in flight is the scheduler's input, not
a second engine.  This module is that pool, in two pieces:

:class:`ShardPool`
    The member grid — one :class:`~repro.hypergraph.sharding.ReplicaSet`
    of connections per shard range (the match service's "one connection
    per shard" is the width-1 grid) — opened by one function
    (:meth:`ShardPool.ensure_open`: own loopback cluster, fixed
    addresses or a registry, through the shared
    :func:`~repro.parallel.handshake.open_session` gate).  A **pump
    thread is the only reader of job replies**: it routes each
    REPLY/QERROR to its query's queue by the ``query_id`` tag.  A member
    that fails — on a send, on the pump's read, at a reply deadline or
    by registry eviction — goes down **one recovery ladder**
    (:meth:`ShardPool._member_failed`).  Pool-wide barriers (``mutate``,
    ``rebalance``, ``admit``, ``drain``) run with no query in flight and
    *park* the pump, so their exchanges are plain send → receive.

:class:`QueryChannel`
    One query on the pool.  It is the one place SUBTREE / JOB / LEVEL /
    COLLECT bodies are encoded and the one gather loop.
    :meth:`QueryChannel.count` runs the query as a **subtree job**; the
    channel is also the plug-in surface of
    :func:`~repro.parallel.level_sync.run_level_synchronous`
    (``num_shards`` / ``_ensure_pool`` / ``_broadcast`` / ``_gather`` /
    ``_gather_iter``).  A solo job (:meth:`ShardPool.run` /
    :meth:`ShardPool.run_bfs`) is one channel tagged
    :data:`~repro.parallel.transport.SOLO_QUERY_ID`; the match service
    opens one per admitted query, on its engine's same pool.

Two job shapes, one set of slots
--------------------------------
A **subtree job** (the paper's Sec. VI task model; ``count`` and the
match service) cuts a query at the root: every member holds the whole
graph, so each chosen member is sent one self-contained SUBTREE
request, runs the sequential block-DFS below its slice of the root
candidates and answers one REPLY.  How many parts is one rule,
:meth:`ShardPool._parts`.  The **level-synchronous** protocol
(``count_bfs``; a graph that does not fit one worker) sends a JOB, then
one LEVEL round trip per plan step per shard range.  To the pool both
are barriers over **slots** — one per reply awaited, each with the
encoded request to (re-)send: a slot per shard range with one shared
frame, answerable by that range's replicas; or a slot per part with
its own frame, answerable by every live member
(:meth:`ShardPool._eligible`).  Token FIFOs, dispatch, the gather loop,
its tick and the recovery ladder are written against slots.

Replication, failover, speculation
----------------------------------
Shard construction is a pure function of ``(graph, shard_id,
num_shards, backend, placement)``,
:func:`~repro.parallel.level_sync.expand_level` a pure function of
``(plan, step, frontier, shard)`` and a subtree part's count a pure
function of ``(plan, part, parts, graph version)``, so any replica that
holds a query's JOB can answer any of its LEVELs, any member at all can
answer a subtree part, and two members' answers are bit-identical.
Hence: the JOB goes to every live replica, each LEVEL/COLLECT/SUBTREE
to one member; a lost member's owed requests are re-sent to whoever
takes over; with ``speculate_after`` a straggling request is
duplicated to an idle member and the first answer wins.  Every
dispatch pushes a pool-wide monotonic **barrier token** (with its
slot) onto the member's per-query FIFO and the pump pops one per reply
(workers answer in request order), so late, duplicate and lost-race
replies carry a token or slot the gather no longer waits for and are
discarded — which is why duplicates are provably harmless.  Only
per-worker *counter accounting* can split across members; embedding
counts are exact because exactly one reply per (barrier, slot) is
taken.

``docs/ARCHITECTURE.md`` ("Replication & failover", "Match service")
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
from ..hypergraph.sharding import (
    ReplicaSet,
    ShardDescriptor,
    build_range_table,
    mutate_range_table,
    plan_rebalance,
    range_table_label,
    range_table_slices,
    resolve_sharding,
    retire_shard_ranges,
)
from ..hypergraph.storage import resolve_index_backend
from . import transport
from .cluster import LocalCluster, spawn_local_cluster
from .handshake import (
    CONNECT_TIMEOUT,
    default_retry_policy,
    open_session,
    validate_handshake,
)
from .level_sync import run_level_synchronous
from .tasks import ParallelResult, RetryPolicy, default_seed, worker_loads
from .worker import default_io_timeout

logger = logging.getLogger("repro.parallel")

#: How often a waiting gather re-checks its cancel flag, its deadlines,
#: speculation triggers and registry evictions (and the pump re-reads
#: the member grid) — the latency bound on noticing any of them.
_TICK = 0.05

_JOB_REPLIES = (transport.MSG_LEVEL_REPLY, transport.MSG_QERROR)


def _close_quietly(sock) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - best effort
        pass


class _Member:
    """One live replica connection in the pool's grid."""

    __slots__ = ("shard_id", "replica_id", "address", "sock", "tokens")

    def __init__(self, shard_id, replica_id, address, sock) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.address = address
        self.sock = sock
        #: query id → FIFO of ``(barrier token, slot)`` pairs awaiting
        #: replies on this connection (a drained FIFO is deleted, so an
        #: empty dict means an idle connection).  The worker answers
        #: strictly in request order, so the head pair names the barrier
        #: and the slot the next inbound reply for that query answers —
        #: which is how stale and lost-race replies are told apart from
        #: the live one.  Never cleared on release: a solo pool reuses
        #: its query id, and only a popped token keeps the next job's
        #: replies aligned.
        self.tokens: "Dict[int, deque]" = {}

    def owed(self) -> int:
        """Replies this connection still owes, over all queries."""
        return sum(map(len, self.tokens.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_Member(shard={self.shard_id}, replica={self.replica_id}, "
            f"address={self.address!r}, owing={sorted(self.tokens)})"
        )


class _QueryState:
    """Pool-side state of one in-flight query (guarded by the pool
    lock, except ``replies``, which is the hand-off to its channel)."""

    __slots__ = (
        "query_id", "replies", "job_frame", "frames", "subtree", "collecting",
        "token", "pending", "watchers", "targets", "lost",
        "started", "budget", "deadline", "cancelled",
    )

    def __init__(self, query_id, budget, cancelled) -> None:
        self.query_id = query_id
        #: Routed arrivals: ``(tag, slot, payload, token)`` with tag
        #: ``"reply"`` / ``"error"``, or ``("lost", None, message,
        #: None)`` when the pool gave the query up.
        self.replies: "queue.Queue" = queue.Queue()
        #: The encoded JOB of a level-synchronous query, replayed to
        #: every member that joins while it runs (a subtree job has
        #: none: its requests are self-contained).
        self.job_frame: "bytes | None" = None
        #: The current barrier: slot → the encoded request failover and
        #: speculation re-send.  A level-synchronous barrier has one
        #: slot per shard range — one shared LEVEL/COLLECT frame, which
        #: only that range's replicas can answer; a subtree job
        #: (``subtree``) one per part — each its own SUBTREE frame,
        #: which every live member can answer.
        self.frames: "Dict[int, bytes]" = {}
        self.subtree = False
        self.collecting = False
        self.token = 0
        #: Slots still owing the current barrier a reply, and per such
        #: slot the members working it (member → dispatch time).
        self.pending: set = set()
        self.watchers: "Dict[int, Dict[_Member, float]]" = {}
        #: Every member the current barrier's frame went to.
        self.targets: "List[_Member]" = []
        #: Why the pool gave the query up, once it has (the same text
        #: rides a ``"lost"`` arrival to wake a waiting gather).
        self.lost: "str | None" = None
        self.started = time.monotonic()
        self.budget = budget
        self.deadline = None if budget is None else self.started + budget
        self.cancelled = (
            threading.Event() if cancelled is None else cancelled
        )

    def slot_name(self, slot) -> str:
        """``slot`` of the current barrier, as error messages name it."""
        return f"{'part' if self.subtree else 'shard'} {slot}"


class _Pump(threading.Thread):
    """A pool's reader thread — the only reader of job replies — and
    its half of the hand-over of the receive direction to barriers."""

    def __init__(self, pool: "ShardPool") -> None:
        super().__init__(name="shard-pool-pump", daemon=True)
        self.pool = pool
        self.stopping = False
        #: True while a read pass may be touching member sockets.
        self.reading = False
        self.wake_r, self.wake_w = socket.socketpair()
        self.wake_w.setblocking(False)

    def wake(self) -> None:
        """Pull the thread out of its select: the grid grew, or a
        barrier wants the receive direction."""
        try:
            self.wake_w.send(b"\0")
        except OSError:
            pass  # full (it will wake anyway) or stopping

    def stop(self) -> None:
        self.stopping = True
        _close_quietly(self.wake_w)  # EOF on the pipe wakes the select
        with self.pool._park:
            self.pool._park.notify_all()

    def run(self) -> None:
        pool = self.pool
        epoch, live, socks = None, [], []
        try:
            while not self.stopping:
                # Announce the pass, *then* look for a barrier.  A
                # barrier raises ``_parking`` before it looks at
                # ``reading``, so one of the two always sees the other:
                # nobody reads a socket a barrier is reading.
                self.reading = True
                if pool._parking:
                    self.reading = False
                    with pool._park:
                        pool._park.notify_all()
                        while pool._parking and not self.stopping:
                            pool._park.wait()
                    continue
                if epoch != pool._epoch:
                    with pool._lock:
                        epoch = pool._epoch
                        live = [
                            member
                            for replica_set in pool._members
                            for member in replica_set
                        ]
                    socks = [self.wake_r] + [m.sock for m in live]
                try:
                    readable, _, _ = select.select(socks, [], [], _TICK)
                except (OSError, ValueError):
                    epoch = None  # a socket was closed under the select
                    continue
                for member in live:
                    if member.sock not in readable:
                        continue
                    try:
                        kind, body = transport.recv_frame(member.sock)
                    except TransportError as exc:
                        with pool._lock:
                            pool._member_failed(member, str(exc))
                        continue
                    pool._route(member, kind, body)
                if self.wake_r in readable and not self.wake_r.recv(4096):
                    return  # the pool hung up on the pipe: stopping
        finally:
            self.reading = False
            with pool._park:
                pool._park.notify_all()
            _close_quietly(self.wake_r)


class ShardPool:
    """A pool of TCP-connected shard workers shared by any number of
    concurrent queries.

    Two construction modes:

    ``ShardPool(addresses=[("host", port), ...])``
        Connect to externally managed workers (the multi-host mode; the
        CLI's ``--hosts``, or :meth:`from_registry`'s discovery).  With
        ``num_replicas == K`` the address count must be ``N × K`` and
        the handshakes must cover every shard id ``0..N-1`` — replies
        are gathered by *shard* id regardless of the order the
        addresses were listed in.  With
        ``K > 1`` a dead address merely loses one replica; the pool
        refuses to open only when some shard has *zero* live replicas.

    ``ShardPool(num_shards=N, num_replicas=K)``
        Spawn (and own) a local cluster for the engine's data graph on
        first use — the single-machine ``--executor processes`` /
        ``--executor sockets`` path, and the match service's default.

    The handshake is validated against the pool's expectations before
    any job runs: index backend (payloads would mis-decode), shard and
    replica arithmetic (rows would be double- or under-counted), the
    data graph fingerprint (counts would be silently wrong) and the
    scheduler seed (reproducibility).  A *contract* mismatch always
    tears the connections down and raises
    :class:`~repro.errors.SchedulerError`; a *liveness* failure
    (connect refused, peer vanished) is tolerated per-replica when
    ``K > 1``.

    ``io_timeout`` (default from ``REPRO_NET_TIMEOUT``) bounds every
    wait on a worker; ``speculate_after=S`` duplicates a request still
    unanswered after ``S`` seconds to an idle replica; a ``registry``
    feeds missed-heartbeat evictions into failover well before the I/O
    deadline.  Failover and speculation may split a query's per-worker
    counter accounting across replicas (each replica only counts the
    levels it expanded); embedding counts are always exact.

    :meth:`run` executes a query as a subtree job — one request and one
    reply per member, whatever its range — and :meth:`run_bfs` under the
    level-synchronous protocol, for which the ranges, their placement
    and :meth:`rebalance` exist.
    """

    def __init__(
        self,
        addresses: "Sequence[Tuple[str, int]] | None" = None,
        num_shards: "int | None" = None,
        index_backend: "str | None" = None,
        sharding: "str | None" = None,
        seed: "int | None" = None,
        start_method: "str | None" = None,
        connect_timeout: float = CONNECT_TIMEOUT,
        io_timeout: "float | None" = None,
        num_replicas: int = 1,
        retry: "RetryPolicy | None" = None,
        speculate_after: "float | None" = None,
        chaos=None,
        registry=None,
    ) -> None:
        if num_replicas < 1:
            raise SchedulerError("num_replicas must be >= 1")
        if addresses is not None:
            addresses = [tuple(address) for address in addresses]
            if len(addresses) % num_replicas != 0:
                raise SchedulerError(
                    f"{len(addresses)} worker addresses do not divide "
                    f"into {num_replicas} replicas per shard"
                )
            implied = len(addresses) // num_replicas
            if num_shards is not None and num_shards != implied:
                raise SchedulerError(
                    f"num_shards={num_shards} contradicts "
                    f"{len(addresses)} worker addresses"
                )
            num_shards = implied
        if num_shards is None:
            raise SchedulerError(
                "ShardPool needs worker addresses or num_shards"
            )
        if num_shards < 1:
            raise SchedulerError("num_shards must be >= 1")
        self.addresses = addresses
        self.num_shards = num_shards
        self.num_replicas = num_replicas
        self.index_backend = resolve_index_backend(index_backend)
        self.sharding = resolve_sharding(sharding)
        self.seed = default_seed() if seed is None else seed
        self.start_method = start_method
        self.connect_timeout = connect_timeout
        self.io_timeout = (
            default_io_timeout() if io_timeout is None else io_timeout
        )
        self.retry = default_retry_policy() if retry is None else retry
        self.speculate_after = speculate_after
        self.chaos = chaos
        #: Optional :class:`~repro.parallel.registry.WorkerRegistry`
        #: whose heartbeat evictions fail members over at the
        #: registry's (short) eviction deadline instead of this pool's
        #: (long) I/O deadline.
        self.registry = registry
        #: Job-family and MUTATE frames sent to workers — the counter
        #: the cache-bypass gate watches (a cache hit must not move it).
        self.dispatched_frames = 0
        self._retry_rng = random.Random(self.seed ^ 0x5EED)
        #: Guards the grid, the query table and every member's tokens.
        #: Lock order: the pump's park condition first, then this.
        self._lock = threading.RLock()
        self._cluster: "LocalCluster | None" = None
        #: The live grid: one ReplicaSet of connected :class:`_Member`
        #: per shard (empty list when no pool is up).
        self._members: "List[ReplicaSet]" = []
        #: ``(shard, replica)`` → last address of every member that
        #: failed out of the grid: where the ladder reconnects.
        self._lost: "Dict[Tuple[int, int], Tuple[str, int]]" = {}
        self._queries: "Dict[int, _QueryState]" = {}
        self._graph: "Hypergraph | None" = None
        #: Placement of the live pool: build-mode label until a
        #: rebalance issues a ``rebalanced-<fp>`` table.
        self._sharding_label = self.sharding
        self._range_table = None
        self._respawn_budget = 0
        self._evict_cursor = 0
        #: Shard ids retired by :meth:`drain` — their rows were recut
        #: onto the surviving shards; dispatch and gather skip them.
        self._retired: set = set()
        self._ids = itertools.count(1)
        self._tokens = itertools.count(1)
        self._pump: "_Pump | None" = None
        #: Bumped on every change to the grid; the pump re-reads the
        #: grid only when it moved.
        self._epoch = 0
        #: Barrier ↔ pump hand-over of the receive direction: barriers
        #: in progress, and the condition both sides wait on.
        self._park = threading.Condition()
        self._parking = 0

    @classmethod
    def from_registry(
        cls,
        registry,
        num_shards: int,
        num_replicas: int = 1,
        wait_timeout: float = 30.0,
        **kwargs,
    ) -> "ShardPool":
        """Build a pool from discovered workers.

        Blocks until the registry has a live worker for every
        ``(shard, replica)`` slot (or ``wait_timeout`` elapses), then
        connects to the announced addresses; the registry stays
        attached, so its missed-heartbeat evictions keep feeding the
        recovery ladder mid-job.
        """
        addresses = registry.wait_for(
            num_shards, num_replicas, timeout=wait_timeout
        )
        return cls(
            addresses=addresses,
            num_replicas=num_replicas,
            registry=registry,
            **kwargs,
        )

    # -- opening and closing --------------------------------------------

    def next_query_id(self) -> int:
        return next(self._ids)

    def ensure_open(self, engine) -> bool:
        """Open (or reuse) the pool for ``engine``'s data graph.

        The one place a pool comes up, whoever asks — a solo job or one
        of many service queries.  Returns True when live connections
        were reused.  A range that lost its last member since the
        previous query (worker died, session idled out) goes down the
        same ladder as a mid-query loss; only when that fails is the
        pool rebuilt from its addresses / a fresh cluster.
        """
        if engine.index_backend != self.index_backend:
            raise SchedulerError(
                f"engine backend {engine.index_backend!r} does not match "
                f"pool backend {self.index_backend!r}"
            )
        with self._lock:
            self._respawn_budget = self.num_shards * self.num_replicas
            if self._graph is engine.data and self._members:
                if all(
                    self._members[shard_id] or self._restore_member(shard_id)
                    for shard_id in self._active_shards()
                ):
                    return True
            elif self._queries:
                raise SchedulerError(
                    "cannot rebuild the pool for a different graph with "
                    f"{len(self._queries)} queries in flight"
                )
            self._close_connections(
                "a shard range lost its last replica between queries"
            )
            if self.addresses is None:
                # Local mode: own a cluster for this engine's data
                # graph.  A fresh cluster builds spawn-mode shards, so
                # any rebalanced layout of the previous one goes too.
                if self._cluster is not None:
                    self._cluster.close()
                    self._cluster = None
                self._sharding_label = self.sharding
                self._range_table = None
                self._cluster = spawn_local_cluster(
                    engine.data,
                    self.num_shards,
                    self.index_backend,
                    seed=self.seed,
                    start_method=self.start_method,
                    sharding=self.sharding,
                    num_replicas=self.num_replicas,
                    chaos=self.chaos,
                    store=engine.store,
                )
                addresses = self._cluster.addresses
            else:
                addresses = self.addresses
            self._members = self._connect_grid(addresses, engine.data)
            self._graph = engine.data
            if self.registry is not None:
                # Skip evictions that predate this membership.
                self._evict_cursor = len(self.registry.evictions)
            self._epoch += 1
            self._pump = _Pump(self)
            self._pump.start()
            return False

    def _connect_grid(self, addresses, graph) -> "List[ReplicaSet]":
        """Connect and handshake every address into a fresh grid."""
        grid = [
            ReplicaSet(shard_id, self.num_replicas)
            for shard_id in range(self.num_shards)
        ]
        failures: "List[str]" = []
        try:
            for host, port in addresses:
                try:
                    sock, descriptor = self._open_session((host, port), graph)
                except (TransportError, OSError) as exc:
                    failure = (
                        f"could not connect to shard worker at "
                        f"{host}:{port}: {exc}"
                        if isinstance(exc, OSError)
                        else f"shard worker at {host}:{port} failed the "
                        f"handshake: {exc}"
                    )
                    if self.num_replicas == 1:
                        raise SchedulerError(failure) from None
                    # K > 1: losing one replica is survivable — note it
                    # and let the zero-replica check decide at the end.
                    failures.append(f"{host}:{port}: {exc}")
                    logger.warning("%s", failure)
                    continue
                member = _Member(
                    descriptor.shard_id, descriptor.replica_id,
                    (host, port), sock,
                )
                try:
                    grid[descriptor.shard_id].place(
                        descriptor.replica_id, member
                    )
                except ValueError:
                    _close_quietly(sock)
                    detail = (
                        f" (replica {descriptor.replica_id})"
                        if self.num_replicas > 1
                        else ""
                    )
                    raise SchedulerError(
                        f"two workers both announced shard id "
                        f"{descriptor.shard_id}{detail}"
                    ) from None
            missing = [
                shard_id for shard_id in range(self.num_shards)
                if not grid[shard_id]
            ]
            if missing:
                detail = "; ".join(failures) if failures else (
                    "no worker announced them"
                )
                raise SchedulerError(
                    f"no live replica for shard(s) {missing}: {detail}"
                )
        except BaseException:
            for replica_set in grid:
                for member in replica_set:
                    _close_quietly(member.sock)
            raise
        return grid

    def _contract(self) -> dict:
        """This pool's view for :func:`validate_handshake`."""
        return {
            "index_backend": self.index_backend,
            "num_shards": self.num_shards,
            "num_replicas": self.num_replicas,
            "seed": self.seed,
            "sharding_label": self._sharding_label,
        }

    def _open_session(self, address, graph, **expect):
        """Connect to ``address`` and validate its handshake against
        this pool's view; returns ``(sock, descriptor)``."""
        return open_session(
            address,
            graph,
            connect_timeout=self.connect_timeout,
            io_timeout=self.io_timeout,
            chaos=self.chaos,
            retry=self.retry,
            rng=self._retry_rng,
            **self._contract(),
            **expect,
        )

    def _echo(self, member: "_Member", **expect) -> ShardDescriptor:
        """Validate the HELLO a worker answers a REBALANCE with."""
        return validate_handshake(
            member.sock,
            self._graph,
            recv=lambda _sock: self._recv_control(member),
            expected_shard=member.shard_id,
            expected_replica=member.replica_id,
            **self._contract(),
            **expect,
        )

    def _adopt(self, member: "_Member", descriptor, **expect):
        """Bring a freshly connected worker onto the pool's layout: one
        cut under another label (its build mode, after a respawn or an
        outside restart) is shipped its range's slice of the live table
        and must echo the pool's label."""
        if descriptor.sharding == self._sharding_label:
            return descriptor
        if self._range_table is None:
            raise SchedulerError(
                f"shard placement mismatch: worker for shard "
                f"{member.shard_id} was cut under {descriptor.sharding!r}, "
                f"the pool runs {self._sharding_label!r} and no range "
                f"table is live to upgrade it with"
            )
        transport.send_pickle_frame(
            member.sock,
            transport.MSG_REBALANCE,
            (
                self._sharding_label,
                range_table_slices(self._range_table, self.num_shards)[
                    member.shard_id
                ],
            ),
        )
        return self._echo(member, **expect)

    def _close_connections(
        self, message: str = "the shard pool was closed"
    ) -> None:
        """End every session, stop the pump and fail whatever was in
        flight with ``message``.  The placement (label, range table)
        and an owned cluster survive: reconnecting re-validates every
        worker against them."""
        with self._lock:
            if self._pump is not None:
                self._pump.stop()
            for replica_set in self._members:
                for member in replica_set:
                    try:
                        transport.send_frame(member.sock, transport.MSG_STOP)
                    except (TransportError, OSError):
                        pass
                    _close_quietly(member.sock)
            self._members = []
            self._epoch += 1
            self._lost = {}
            self._retired = set()
            self._graph = None
            for state in self._queries.values():
                state.lost = message
                state.replies.put(("lost", None, message, None))
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
    ):
        """Execute one solo counting job as a **subtree job** — one
        channel, query id :data:`~repro.parallel.transport.
        SOLO_QUERY_ID` — and return its
        :class:`~repro.parallel.tasks.ParallelResult`
        (:meth:`QueryChannel.count`: one request and one reply per
        chosen member, each running the whole block-DFS below its slice
        of the root candidates).

        Counts are bit-identical to the sequential engine, including
        under failover and speculation, which replace *who* answers a
        part but never *what* the answer is.  ``time_budget`` is
        enforced mid-gather here and between blocks on the workers.  A
        job that fails with a :class:`~repro.errors.SchedulerError` on
        a pool it had to itself takes the pool down with it, cluster
        included (the next job rebuilds); with service queries
        registered beside it the pool stays up for them (a pool out of
        members failed them too and emptied the table).
        """
        channel = QueryChannel(
            self, query_id=transport.SOLO_QUERY_ID, budget=time_budget
        )
        return self._solo(channel, channel.count, engine, query, order)

    def run_bfs(
        self,
        engine,
        query: Hypergraph,
        order: "Sequence[int] | None" = None,
        time_budget: "float | None" = None,
    ):
        """:meth:`run` under the **level-synchronous** protocol
        (:func:`~repro.parallel.level_sync.run_level_synchronous`): a
        JOB to every replica, then per plan step one LEVEL round trip
        per shard range, each worker expanding its rows of the frontier
        and the coordinator composing the survivors — breadth-first,
        which is what ``count_bfs(executor="processes")`` means, and
        what a graph too large for one worker would need.  Its
        ``worker_stats`` are per *range*: what :meth:`rebalance`
        takes.  ``time_budget`` is enforced at level granularity.
        """
        channel = QueryChannel(self, query_id=transport.SOLO_QUERY_ID)
        return self._solo(
            channel, run_level_synchronous, channel, engine, query,
            order=order, time_budget=time_budget,
        )

    def _solo(self, channel, job, *args, **kwargs):
        completed = False
        try:
            result = job(*args, **kwargs)
            completed = True
            return result
        except SchedulerError:
            # Every failure exit has unregistered this job by now.
            if not self._queries:
                self.close()
            raise
        finally:
            self.release(channel.query_id, completed)

    def _active_shards(self) -> "List[int]":
        """Shard ids still carrying rows (everything not retired by
        :meth:`drain`); dispatch, gather and failover run over exactly
        this set."""
        return [
            shard_id for shard_id in range(self.num_shards)
            if shard_id not in self._retired
        ]

    def _register(self, state: _QueryState) -> None:
        current = self._queries.get(state.query_id)
        if current is state:
            return
        if state.lost is not None:
            # Given up between two barriers (or with the last reply of
            # one already queued): say why, not merely that it is gone.
            raise SchedulerError(state.lost)
        if current is not None:
            raise SchedulerError(
                f"query id {state.query_id} is already in flight on "
                f"this pool"
            )
        if not self._members:
            raise SchedulerError(
                f"the shard pool went down before query "
                f"{state.query_id} could start"
            )
        self._queries[state.query_id] = state

    def release(self, query_id: int, completed: bool) -> None:
        """Unregister a query; CANCEL whatever session state it leaves.

        Idempotent.  A completed query's sessions were closed by its
        final reply on the members that answered it; replicas that only
        ever held its JOB are cancelled here, every member is for any
        other exit (deadline, client cancel, per-query error, drain) —
        so no worker keeps orphaned session state.  The exceptions: a
        completed subtree job never had any, and a completed *solo*
        job's next JOB restarts session 0 on every replica anyway (a
        CANCEL would shift the frame positions ``tests/test_chaos.py``
        pins faults to).
        """
        with self._lock:
            state = self._queries.pop(query_id, None)
            if state is None:
                return
            if completed and (
                state.subtree or query_id == transport.SOLO_QUERY_ID
            ):
                return
            closed = state.targets if completed else ()
            holders = [
                member
                for replica_set in self._members
                for member in replica_set
                if member not in closed
            ]
            if not holders:
                return
            frame = transport.encode_frame(
                transport.MSG_CANCEL, transport.encode_query_body(query_id)
            )
            for member in holders:
                try:
                    member.sock.sendall(frame)
                except OSError:
                    # Broken: the pump is about to see it, and the
                    # reconnect drops the worker's whole session dict
                    # anyway — nothing is orphaned.
                    pass

    def _send_job(self, state: _QueryState) -> None:
        """The JOB goes to *every* live replica — spares must hold the
        plan to be able to answer a re-dispatched LEVEL."""
        for shard_id in self._active_shards():
            if self._queries.get(state.query_id) is not state:
                return  # the pool gave the query up on the way
            replica_set = self._members[shard_id]
            for member in list(replica_set):
                try:
                    member.sock.sendall(state.job_frame)
                except OSError as exc:
                    self._member_failed(member, f"send failed: {exc}")
                else:
                    self.dispatched_frames += 1
            if (
                self._members
                and not replica_set
                and self._restore_member(shard_id) is None
            ):
                self._lose_shard(
                    shard_id, "lost every replica while broadcasting the job"
                )

    def _open_barrier(
        self, state: _QueryState, frames: "Dict[int, bytes]",
        subtree: bool = False, collecting: bool = False,
    ) -> None:
        """Start ``state``'s next barrier (pool lock held): one slot per
        entry of ``frames``, each dispatched to one eligible member."""
        state.frames = frames
        state.subtree = subtree
        state.collecting = collecting
        state.token = next(self._tokens)
        state.pending = set(frames)
        state.watchers = {}
        state.targets = []
        for slot in frames:
            self._dispatch(state, slot)

    def _parts(self) -> int:
        """How many parts a subtree job registering now is cut into
        (pool lock held) — the one rule, from what the pool observes:
        its live members shared among the queries registered on it,
        this one included.  A job alone on N members splits N ways;
        with N or more queries in flight each goes whole to one member
        (nothing is computed twice over); never more than N parts — a
        part repeats the step-0 scan and pays the block kernel's fixed
        costs, so over-cutting only burns CPU."""
        live = sum(len(replica_set) for replica_set in self._members)
        return max(1, live // len(self._queries))

    def _eligible(self, state: _QueryState, slot: int) -> "List[_Member]":
        """The live members that can answer ``slot`` of ``state``'s
        barrier, in ``(shard, replica)`` order: every one for a subtree
        part, the range's replicas for a level-synchronous slot."""
        sets = self._members if state.subtree else self._members[slot:slot + 1]
        return [member for replica_set in sets for member in replica_set]

    def _dispatch(
        self,
        state: _QueryState,
        slot: int,
        member: "_Member | None" = None,
        cause: "str | None" = None,
    ) -> None:
        """Send the request of ``slot`` of ``state``'s barrier to one
        eligible member (``member`` pins the target — the speculation
        path), climbing the ladder when no live one can take it."""
        while self._queries.get(state.query_id) is state:
            target = member or self._pick_member(state, slot)
            member = None
            if target is None:
                # Rungs 2-4, over the ranges whose members could answer.
                ranges = (
                    sorted({shard_id for shard_id, _ in self._lost})
                    if state.subtree else [slot]
                )
                target = next(
                    filter(None, map(self._restore_member, ranges)), None
                )
                if target is None:
                    self._lose_shard(
                        ranges[0] if ranges else slot,
                        cause or "no live replica left to dispatch to",
                    )
                    return
            try:
                target.sock.sendall(state.frames[slot])
            except OSError as exc:
                self._member_failed(target, f"send failed: {exc}")
                continue
            target.tokens.setdefault(state.query_id, deque()).append(
                (state.token, slot)
            )
            state.watchers.setdefault(slot, {})[target] = time.monotonic()
            state.targets.append(target)
            self.dispatched_frames += 1
            return

    def _pick_member(self, state, slot: int) -> "_Member | None":
        """The member to dispatch ``slot`` to: the eligible one owing
        the fewest replies (its queue preserves order), ties to the
        lowest ``(shard, replica)`` — never one already working this
        request.  Deterministic in the pool's own state."""
        watching = state.watchers.get(slot, ())
        return min(
            (
                member for member in self._eligible(state, slot)
                if member not in watching
            ),
            key=_Member.owed,
            default=None,
        )

    # -- the pump: the only reader of job replies -----------------------

    def _route(self, member: _Member, kind: int, body: bytes) -> None:
        """Deliver one inbound job reply to its query's queue."""
        garbled = None
        try:
            if kind not in _JOB_REPLIES:
                raise TransportError(
                    f"unexpected frame kind {kind:#x} from shard "
                    f"{member.shard_id}"
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
            tokens = member.tokens.get(query_id)
            token, slot = (
                tokens.popleft() if tokens else (None, member.shard_id)
            )
            if tokens is not None and not tokens:
                del member.tokens[query_id]
            state = self._queries.get(query_id)
            # No taker: a cancelled/finished query's straggler.  An
            # error needs no token — its query is failing regardless.
            if state is not None and (token is not None or tag == "error"):
                state.replies.put((tag, slot, rest, token))
            if garbled is not None:
                self._member_failed(member, str(garbled))

    @contextmanager
    def _barrier(self, what: str):
        """Run a pool-wide exchange: park the pump (the barrier owns the
        receive direction of every connection for its duration), take
        the pool lock, and insist that no query is in flight."""
        with self._park:
            self._parking += 1
            pump = self._pump  # read after the raise: a later one sees it
            if pump is not None:
                pump.wake()
                while pump.reading:
                    self._park.wait()
        try:
            with self._lock:
                if self._queries:
                    raise SchedulerError(
                        f"cannot {what} with {len(self._queries)} queries "
                        f"in flight"
                    )
                yield
        finally:
            with self._park:
                self._parking -= 1
                self._park.notify_all()

    def _recv_control(self, member: _Member):
        """The next frame on ``member``'s connection that is not a job
        reply.  With the pump parked nobody else reads, so a reply that
        a cancelled or out-raced query is still owed surfaces here: it
        is routed (token popped, no taker) and skipped."""
        while True:
            kind, body = transport.recv_frame(member.sock)
            if kind not in _JOB_REPLIES:
                return kind, body
            self._route(member, kind, body)

    # -- the recovery ladder --------------------------------------------

    def _member_failed(self, member: _Member, cause: str) -> None:
        """The one recovery ladder for a failed member (pool lock held).

        Drop it, then re-send every request it alone was working.  Who
        takes each over is decided in :meth:`_dispatch`, from what the
        pool can observe and nothing a caller sets:

        1. another live member that can answer the request — a replica
           of the range (free: it holds the JOB), or for a subtree part
           *any* member (free: the request is self-contained, so this
           rung exists at K = 1 too);
        2. else a budgeted respawn, when the pool owns its cluster;
        3. else a reconnect in place at the member's last address (the
           handshake gate's CATCHUP heals a worker that went stale);
        4. whoever took over under 2–3 is first replayed the JOB of
           every registered query (:meth:`_restore_member`);
        5. else a typed failure to every registered query — each of
           them needs the range (:meth:`_lose_shard`).

        Rungs 2–4 start the worker's per-query state over, so only the
        lost process's share of counter accounting goes with it: level
        replies are pure functions of ``(plan, frontier, shard)``,
        subtree replies of ``(plan, part, parts, graph version)``, and
        the gather takes exactly one per (barrier, slot).
        """
        if not self._drop_member(member, cause):
            return  # already out of the grid: handled by another path
        for state in list(self._queries.values()):
            for slot, watchers in list(state.watchers.items()):
                if watchers.pop(member, None) is None:
                    continue
                # Re-dispatch unless a speculative duplicate is already
                # working the request or the slot already answered.
                if not watchers and slot in state.pending:
                    self._dispatch(state, slot, cause=cause)

    def _drop_member(self, member: _Member, cause: str) -> bool:
        """Remove one replica connection from the grid; False when it
        was not (or no longer) there."""
        if not self._members:
            return False
        replica_set = self._members[member.shard_id]
        if replica_set.get(member.replica_id) is not member:
            return False
        replica_set.remove(member.replica_id)
        self._epoch += 1
        self._lost[(member.shard_id, member.replica_id)] = member.address
        _close_quietly(member.sock)
        logger.warning(
            "shard %d replica %d at %s dropped: %s",
            member.shard_id, member.replica_id, member.address, cause,
        )
        return True

    def _restore_member(self, shard_id: int) -> "_Member | None":
        """Rungs 2–4 for a range with no live replica: bring back one
        of its lost members — respawned under the budget when the pool
        owns the cluster, else reconnected where it last was — on the
        pool's layout and holding every registered query's JOB.  The
        owed LEVEL/COLLECT is re-sent by :meth:`_dispatch`, exactly as
        to any other failover target.  Returns None when no slot of the
        range can be brought back."""
        for (lost_shard, replica_id), address in sorted(self._lost.items()):
            if lost_shard != shard_id:
                continue
            member = None
            try:
                if self._cluster is not None and self._respawn_budget > 0:
                    self._respawn_budget -= 1
                    address = self._cluster.respawn(shard_id, replica_id)
                sock, descriptor = self._open_session(
                    address,
                    self._graph,
                    expected_shard=shard_id,
                    expected_replica=replica_id,
                    any_sharding=True,
                )
                member = _Member(shard_id, replica_id, address, sock)
                self._adopt(member, descriptor)
                for state in self._queries.values():
                    if state.job_frame is not None:
                        sock.sendall(state.job_frame)
                        self.dispatched_frames += 1
            except (SchedulerError, OSError) as exc:
                if member is not None:
                    _close_quietly(member.sock)
                logger.warning(
                    "shard %d replica %d at %s could not be restored: %s",
                    shard_id, replica_id, address, exc,
                )
                continue
            self._place(member)
            logger.warning(
                "shard %d replica %d restored at %s",
                shard_id, replica_id, address,
            )
            return member
        return None

    def _place(self, member: _Member) -> None:
        self._members[member.shard_id].place(member.replica_id, member)
        self._lost.pop((member.shard_id, member.replica_id), None)
        self._epoch += 1
        self._pump.wake()  # it must start reading the newcomer

    def _lose_shard(self, shard_id: int, cause: str) -> None:
        """Out of replicas for ``shard_id``: every registered query
        needs the range, so each is handed the typed failure and the
        sessions are torn down (the next query reopens the pool)."""
        self._close_connections(
            f"shard worker {shard_id} disconnected mid-job: {cause}; "
            f"no live replica remains for shard {shard_id} "
            f"({self._sharding_label} placement)"
        )

    def _sync_registry(self) -> None:
        """Fold fresh registry evictions into the ladder.

        A member whose ``(shard, replica)`` identity was evicted for
        missed heartbeats (or a lost registry link) is failed at once —
        the whole point of heartbeating is to beat the I/O deadline to
        the diagnosis.  A member whose identity has *re-announced at
        the member's own address* since the eviction is left alone (the
        eviction described a previous incarnation).
        """
        if self.registry is None or not self._members:
            return
        self._evict_cursor, evicted = self.registry.evictions_since(
            self._evict_cursor
        )
        for record in evicted:
            if not self._members or not (
                0 <= record.shard_id < len(self._members)
            ):
                continue
            member = self._members[record.shard_id].get(record.replica_id)
            if member is None:
                continue
            live = self.registry.record(record.shard_id, record.replica_id)
            if live is not None and tuple(live.address) == tuple(
                member.address
            ):
                continue
            self._member_failed(
                member, f"registry evicted it ({record.reason})"
            )

    # -- pool-wide barriers ---------------------------------------------

    def _degrade_or_fail(self, member: _Member, cause: str) -> None:
        """A replica lost mid-barrier: drop it when the shard keeps
        other live replicas (the pool degrades to reduced K but every
        range stays covered), tear down and raise when it was the
        range's last."""
        shard_id = member.shard_id
        self._drop_member(member, cause)
        if self._members[shard_id]:
            return
        self._close_connections()
        raise SchedulerError(
            f"shard worker {shard_id} is gone ({cause}); no live "
            f"replica remains for shard {shard_id}; connections torn "
            f"down"
        ) from None

    def mutate(self, engine, batch, result) -> int:
        """Propagate one committed mutation batch to the live pool.

        The engine has already applied ``batch`` locally (``result``
        is its :class:`~repro.hypergraph.dynamic.MutationResult`).
        *Every* live replica of every active shard receives the batch
        in a MUTATE frame (§2.9), applies it to its own graph copy and
        shard, and acks with a DELTA frame carrying its post-mutation
        graph state.  Determinism of :meth:`~repro.hypergraph.dynamic.
        DynamicHypergraph.apply` makes each worker's state identical to
        the engine's, which the ack check enforces: a diverging ack, a
        wrong frame or a worker-side error is a *contract* failure and
        tears the sessions down, while a liveness failure — on the
        send or on the ack — degrades that replica as long as its
        range keeps another live member, and otherwise ends the barrier
        at once with a typed error (the degraded worker's next
        handshake announces a stale graph version, which the gate
        repairs with a CATCHUP — §2.10; it can never silently rejoin
        stale).  Returns the number of workers that acked.  A pool that
        is not running needs nothing: its next open spawns workers
        from, or catches them up to, the already-mutated graph.
        """
        with self._barrier("mutate"):
            if not self._members:
                return 0
            expected = {
                "graph_version": result.version,
                "graph_edges": engine.data.num_edges,
                "graph_vertices": engine.data.num_vertices,
            }
            body = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
            targets: "List[_Member]" = []
            for shard_id in self._active_shards():
                for member in list(self._members[shard_id]):
                    try:
                        transport.send_frame(
                            member.sock, transport.MSG_MUTATE, body
                        )
                    except (TransportError, OSError) as exc:
                        self._degrade_or_fail(
                            member, f"mutate send failed: {exc}"
                        )
                        continue
                    self.dispatched_frames += 1
                    targets.append(member)
            applied = 0
            for member in targets:
                try:
                    kind, ack_body = self._recv_control(member)
                    ack = transport.decode_pickle_body(ack_body)
                except TransportError as exc:
                    self._degrade_or_fail(
                        member, f"mutate ack failed: {exc}"
                    )
                    continue
                who = (
                    f"shard worker {member.shard_id} (replica "
                    f"{member.replica_id})"
                )
                if kind == transport.MSG_ERROR:
                    failure = f"{who} failed to mutate:\n{ack}"
                elif kind != transport.MSG_DELTA:
                    failure = (
                        f"{who} answered MUTATE with frame kind "
                        f"{kind:#x}, expected DELTA"
                    )
                elif ack != expected:
                    failure = (
                        f"{who} diverged on mutate: acked {ack!r}, "
                        f"engine holds {expected!r}"
                    )
                else:
                    applied += 1
                    continue
                self._close_connections()
                raise SchedulerError(failure)
            if self._range_table is not None:
                self._range_table = mutate_range_table(
                    self._range_table, result, self.num_shards
                )
            # The graph identity rolls forward with the commit (the
            # first mutation swaps engine.data for its dynamic form),
            # so the next ensure_open must not rebuild the pool.
            self._graph = engine.data
            return applied

    def rebalance(self, worker_stats) -> int:
        """Recut the live pool's ranges from observed per-shard load.

        ``worker_stats`` is a completed run's
        :attr:`~repro.parallel.tasks.ParallelResult.worker_stats`;
        the recut (:func:`repro.hypergraph.sharding.plan_rebalance`)
        shifts partition boundaries toward the underloaded shards while
        keeping every shard's position along the row axis.  Works
        against local clusters and remote ``serve-shard`` workers alike
        (the frame is part of the wire protocol).  Returns the number
        of shards whose ranges moved (0 when the observed load was
        already balanced).
        """
        with self._barrier("rebalance"):
            if not self._members:
                raise SchedulerError(
                    "no live pool to rebalance; run a job first"
                )
            if len(worker_stats) != self.num_shards:
                raise SchedulerError(
                    f"{len(worker_stats)} worker stats for "
                    f"{self.num_shards} shards"
                )
            grouped = self._graph.rows_by_signature()
            current = self._range_table
            if current is None:
                # Build mode until a rebalance materialised a table.
                current = build_range_table(
                    grouped, self.num_shards, self.sharding
                )
            plan = plan_rebalance(
                grouped, self.num_shards, current, worker_loads(worker_stats)
            )
            if plan is None:
                return 0
            table, label, slices, moved = plan
            self._apply_rebalance(table, label, slices)
            return len(moved)

    def _apply_rebalance(self, table, label, slices) -> None:
        """Ship a recut table to every live member and validate the
        HELLO echoes.

        *Every* live replica of every active shard receives its range's
        slice (a worker whose ranges didn't move merely adopts the new
        label and keeps its warm indices — the whole pool must agree on
        one label or the next session handshake would refuse the
        laggards) and answers with a fresh HELLO echoing the new label.
        A *liveness* failure on the way (peer gone, stream severed or
        garbled) degrades that replica as long as its range keeps
        another; a *contract* failure (a worker that echoes the wrong
        label) always tears the sessions down: composing mixed
        placements would double- or under-count rows.
        """
        for shard_id in self._active_shards():
            for member in list(self._members[shard_id]):
                try:
                    transport.send_pickle_frame(
                        member.sock,
                        transport.MSG_REBALANCE,
                        (label, slices[shard_id]),
                    )
                except (TransportError, OSError) as exc:
                    self._degrade_or_fail(
                        member, f"rebalance send failed: {exc}"
                    )
        # Update the expected label before validating the echoes: the
        # workers announce the *new* layout.
        self._range_table = table
        self._sharding_label = label
        for shard_id in self._active_shards():
            for member in list(self._members[shard_id]):
                try:
                    self._echo(member)
                except TransportError as exc:
                    self._degrade_or_fail(
                        member, f"rebalance echo failed: {exc}"
                    )
                except SchedulerError as exc:
                    self._close_connections()
                    raise SchedulerError(
                        f"shard worker {shard_id} failed to rebalance: "
                        f"{exc}"
                    ) from None

    def admit(self, address: Tuple[str, int]) -> ShardDescriptor:
        """Fold a newcomer worker into the live pool mid-lifetime.

        Connects to ``address``, validates the full handshake contract
        (backend, shard arithmetic, fingerprint, seed; a stale graph
        version is caught up), upgrades the newcomer to the pool's
        rebalanced layout when its build label differs, and places it
        in the member grid — from where the very next LEVEL (or
        failover) can dispatch to it.  A newcomer announcing a *wider*
        replica arithmetic than the pool's grows every range's slot
        table to match (K-growth: a K=1 pool becomes a K=2 pool the
        moment the first second-replica worker is admitted); a narrower
        one is refused.  Admission failures leave the pool exactly as
        it was.  Returns the admitted worker's descriptor.
        """
        with self._barrier("admit"):
            if not self._members:
                raise SchedulerError(
                    "no live pool to admit into; run a job first"
                )
            address = tuple(address)
            where = f"{address[0]}:{address[1]}"
            try:
                sock, descriptor = self._open_session(
                    address, self._graph,
                    allow_replica_growth=True, any_sharding=True,
                )
            except OSError as exc:
                raise SchedulerError(
                    f"could not connect to shard worker at {where}: {exc}"
                ) from exc
            except TransportError as exc:
                raise SchedulerError(
                    f"worker at {where} failed the admission handshake: "
                    f"{exc}"
                ) from None
            shard_id = descriptor.shard_id
            replica_id = descriptor.replica_id
            member = _Member(shard_id, replica_id, address, sock)
            try:
                if shard_id in self._retired:
                    raise SchedulerError(
                        f"cannot admit a worker for retired shard "
                        f"{shard_id}: its rows were recut onto the "
                        f"surviving shards"
                    )
                if self._members[shard_id].get(replica_id) is not None:
                    raise SchedulerError(
                        f"two workers both announced shard id {shard_id} "
                        f"(replica {replica_id}); refusing to admit the "
                        f"newcomer at {where}"
                    )
                try:
                    descriptor = self._adopt(
                        member, descriptor, allow_replica_growth=True
                    )
                except TransportError as exc:
                    raise SchedulerError(
                        f"newcomer for shard {shard_id} failed the "
                        f"rebalance upgrade: {exc}"
                    ) from None
                if descriptor.num_replicas > self.num_replicas:
                    for replica_set in self._members:
                        replica_set.grow(descriptor.num_replicas)
                    self.num_replicas = descriptor.num_replicas
                self._place(member)
            except BaseException:
                _close_quietly(sock)
                raise
            logger.info(
                "admitted shard %d replica %d at %s into the pool (K=%d)",
                shard_id, replica_id, where, self.num_replicas,
            )
            return descriptor

    def drain(self, shard_id: int, replica_id: int = 0) -> "str | None":
        """Gracefully decommission one member of the live pool.

        Finishes whatever the member still owes (in-flight replies are
        read out and discarded — never abandoned mid-frame), then
        removes it; a member that already failed out of the grid is
        simply forgotten.  When other replicas of the range remain
        live, that is the whole story: the range stays covered at
        reduced K.  When the member was its range's *last* live
        replica, the shard itself is retired: the pool's range table is
        recut so the retired shard's rows move to its nearest surviving
        positional neighbour, every surviving worker receives the recut
        via the REBALANCE frame (validated by HELLO echoes, exactly
        like a load rebalance), and subsequent jobs dispatch and gather
        over the surviving shards only.  Draining the last live member
        of the whole pool is refused.

        Returns the new placement label when a retire-recut happened,
        None for a plain replica drain.
        """
        with self._barrier("drain"):
            if not self._members:
                raise SchedulerError(
                    "no live pool to drain; run a job first"
                )
            if not 0 <= shard_id < self.num_shards:
                raise SchedulerError(
                    f"shard id {shard_id} outside 0..{self.num_shards - 1}"
                )
            replica_set = self._members[shard_id]
            member = replica_set.get(replica_id)
            if member is None and (shard_id, replica_id) not in self._lost:
                raise SchedulerError(
                    f"shard {shard_id} replica {replica_id} is not a live "
                    f"member of the pool"
                )
            if member is not None:
                try:
                    while member.tokens:
                        self._route(
                            member, *transport.recv_frame(member.sock)
                        )
                except TransportError:
                    pass  # it died mid-drain; treat as gone
            label: "str | None" = None
            if all(other is member for other in replica_set):
                # Last replica of the range: retire the shard by
                # recutting its rows onto the surviving shards.
                survivors = [
                    other for other in self._active_shards()
                    if other != shard_id and self._members[other]
                ]
                if not survivors:
                    raise SchedulerError(
                        f"refusing to drain shard {shard_id} replica "
                        f"{replica_id}: it is the pool's last live member"
                    )
                grouped = self._graph.rows_by_signature()
                table = self._range_table
                if table is None:
                    table = build_range_table(
                        grouped, self.num_shards, self.sharding
                    )
                table = retire_shard_ranges(table, shard_id, survivors)
                label = range_table_label(table, grouped)
                self._retired.add(shard_id)
                self._apply_rebalance(
                    table, label, range_table_slices(table, self.num_shards)
                )
                logger.info(
                    "retired shard %d: rows recut onto shards %s (%s)",
                    shard_id, survivors, label,
                )
            if member is not None and replica_set.get(replica_id) is member:
                try:
                    transport.send_frame(member.sock, transport.MSG_STOP)
                except (TransportError, OSError):
                    pass
                _close_quietly(member.sock)
                replica_set.remove(replica_id)
                self._epoch += 1
            self._lost.pop((shard_id, replica_id), None)
            logger.info("drained shard %d replica %d", shard_id, replica_id)
            return label


class QueryChannel:
    """One query's executor facade over a :class:`ShardPool`.

    Implements the level-synchronous plug-in surface, so
    :func:`~repro.parallel.level_sync.run_level_synchronous` executes
    unchanged per query thread; many channels share one pool, and the
    pool's multiplexing interleaves their levels between barriers —
    which is what makes multiplexed counts bit-identical to solo runs.
    ``budget`` (seconds) and ``cancel_event`` are additionally enforced
    *inside* a gather, not only between levels.
    """

    def __init__(
        self,
        pool: ShardPool,
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
        if not self._pool.ensure_open(engine):
            return
        if self.query_id != transport.SOLO_QUERY_ID:
            return
        # Between solo level-synchronous jobs the reused sessions get a
        # COLLECT round trip — a legitimate exchange (COLLECT 0 with no session is
        # the protocol's liveness probe, §2.5) that walks the ladder
        # for anything found dead; if even that fails, fall through to
        # a clean rebuild instead of failing the job.
        try:
            self._broadcast(("collect",))
            self._gather()
        except SchedulerError:
            if self._pool._queries:
                raise  # not this job's pool to pull from under the others
            self._pool._close_connections()
            self._pool.ensure_open(engine)

    def _broadcast(self, message) -> None:
        """Encode one protocol tuple and dispatch it (the only place
        JOB / LEVEL / COLLECT / SUBTREE bodies are built)."""
        pool, state = self._pool, self._state
        tag = message[0]
        if tag == "subtree":
            # Self-contained: query, order, the graph version it assumes
            # (as a JOB's, §2.9) and what is left of the query's budget,
            # so a worker stops on its own once nobody is waiting.
            kind = transport.MSG_SUBTREE
            remaining = (
                None if state.deadline is None
                else max(0.0, state.deadline - time.monotonic())
            )
            body = pickle.dumps(
                (message[1], message[2], pool._graph.version, remaining),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        elif tag == "job":
            # Stamped with the graph version the coordinator's candidate
            # algebra assumes, so a worker that missed a MUTATE refuses
            # the job instead of mis-counting (§2.9).
            kind = transport.MSG_JOB
            body = pickle.dumps(
                (message[1], message[2], pool._graph.version),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        elif tag == "level":
            kind = transport.MSG_LEVEL
            body = pickle.dumps(message[1:], protocol=pickle.HIGHEST_PROTOCOL)
        elif tag == "collect":
            kind, body = transport.MSG_COLLECT, b""
        else:
            raise SchedulerError(f"unknown broadcast {tag!r}")
        def frame(body: bytes) -> bytes:
            return transport.encode_frame(
                kind, transport.encode_query_body(self.query_id, body)
            )

        with pool._lock:
            pool._register(state)
            # State first, send second: a send-path recovery replays
            # from exactly this state, so the frame is never lost.
            if kind == transport.MSG_JOB:
                state.job_frame = frame(body)
                pool._send_job(state)
            elif kind == transport.MSG_SUBTREE:
                parts = pool._parts()
                pool._open_barrier(
                    state,
                    {
                        part: frame(
                            transport.encode_subtree_body(part, parts, body)
                        )
                        for part in range(parts)
                    },
                    subtree=True,
                )
            else:
                pool._open_barrier(
                    state,
                    dict.fromkeys(pool._active_shards(), frame(body)),
                    collecting=kind == transport.MSG_COLLECT,
                )

    def _gather_iter(self):
        """As-completed replies for the current barrier: ``(slot,
        reply)`` pairs in arrival order — slot = shard id under the
        level-synchronous protocol (the streaming-compose hook of
        :func:`~repro.parallel.level_sync.run_level_synchronous`),
        part under a subtree job.

        The one gather loop.  In priority order it enforces the cancel
        flag, the query deadline and — on a :data:`_TICK`, under the
        pool lock — registry evictions, the per-request reply deadline
        and speculation (:meth:`_tick`); and it guarantees **at most
        one reply per slot per barrier** reaches the caller: late
        answers to a previous barrier and lost speculation races are
        discarded here by token and slot.  Every failure exit releases
        the query (remote CANCEL) first, so no worker session state
        outlives it.
        """
        pool, state = self._pool, self._state
        next_tick = time.monotonic() + _TICK
        while state.pending:
            if state.cancelled.is_set():
                self._fail()
                raise QueryCancelled(
                    f"query {self.query_id} cancelled mid-level"
                )
            now = time.monotonic()
            if state.deadline is not None and now >= state.deadline:
                self._fail()
                raise TimeoutExceeded(now - state.started, state.budget)
            if now >= next_tick:
                next_tick = now + _TICK
                with pool._lock:
                    silent = self._tick(now)
                if silent:
                    self._fail()
                    raise SchedulerError(
                        f"the worker(s) of {state.slot_name(silent)} did "
                        f"not answer query {self.query_id} within the "
                        f"{pool.io_timeout}s I/O timeout"
                    )
            wait = next_tick - now
            if state.deadline is not None:
                wait = min(wait, state.deadline - now)
            try:
                tag, slot, payload, token = state.replies.get(
                    timeout=max(wait, 0.0)
                )
            except queue.Empty:
                continue
            if tag == "lost":
                raise SchedulerError(payload)
            if token is not None and token != state.token:
                continue  # a previous barrier's late answer
            if tag == "error":
                # Enumeration errors are deterministic in the request —
                # every member would fail identically, so this is not a
                # failover case.  (The report names shard, replica and
                # placement itself.)  A worker that ran into the
                # query's own budget is the deadline, seen from there.
                self._fail()
                now = time.monotonic()
                if state.deadline is not None and now >= state.deadline:
                    raise TimeoutExceeded(now - state.started, state.budget)
                raise SchedulerError(
                    f"query {self.query_id} failed on "
                    f"{state.slot_name(slot)}:\n{payload}"
                )
            if slot not in state.pending:
                continue  # lost the speculation race; duplicate
            try:
                reply = transport.decode_reply(payload, state.collecting)
            except TransportError as exc:
                self._fail()
                raise SchedulerError(
                    f"the worker of {state.slot_name(slot)} sent an "
                    f"undecodable reply for query {self.query_id}: {exc}"
                ) from None
            with pool._lock:
                state.pending.discard(slot)
                state.watchers.pop(slot, None)
            yield slot, reply

    def _tick(self, now: float) -> "List[int]":
        """The gather's periodic duties (pool lock held); returns the
        slots whose request timed out with nobody to fail over to.

        A member silent past ``io_timeout`` is failed — and its request
        re-dispatched — only when another live member can take the
        slot: on a shared connection silence towards *one* query is
        not evidence that the worker is dead (its neighbours may be
        being answered), so without a spare the deadline fails the
        query, typed, and leaves the connection to the others.
        """
        pool, state = self._pool, self._state
        pool._sync_registry()
        silent = []
        for slot in sorted(state.pending):
            watchers = state.watchers.get(slot, {})
            for member, since in list(watchers.items()):
                if pool._queries.get(self.query_id) is not state:
                    return []  # the pool gave the query up; "lost" is queued
                if since + pool.io_timeout > now:
                    continue
                if len(pool._eligible(state, slot)) > 1:
                    pool._member_failed(
                        member,
                        f"no reply within {pool.io_timeout}s "
                        f"(worker wedged)",
                    )
                else:
                    silent.append(slot)
            # Speculation: a slot still waiting on its only watcher
            # past the trigger gets a duplicate dispatch to a strictly
            # idle spare; first reply wins.
            if (
                pool.speculate_after is None
                or len(watchers) != 1
                or pool._queries.get(self.query_id) is not state
            ):
                continue
            (since,) = watchers.values()
            if since + pool.speculate_after > now:
                continue
            for spare in pool._eligible(state, slot):
                if spare not in watchers and not spare.tokens:
                    logger.warning(
                        "%s straggling (> %.3fs); speculating on "
                        "shard %d replica %d",
                        state.slot_name(slot), pool.speculate_after,
                        spare.shard_id, spare.replica_id,
                    )
                    pool._dispatch(state, slot, member=spare)
                    break
        return silent

    def _gather(self) -> list:
        replies = [None] * self.num_shards
        for shard_id, reply in self._gather_iter():
            replies[shard_id] = reply
        return replies

    # -- the subtree job ---------------------------------------------------

    def count(self, engine, query, order=None) -> ParallelResult:
        """Count ``query`` as one **subtree job**.

        The paper's Sec. VI task model on this pool: every worker holds
        the whole graph, so a query is cut at the root — into as many
        parts as :meth:`ShardPool._parts` finds members free for it —
        and each chosen member is sent one self-contained SUBTREE
        request, runs :meth:`~repro.core.engine.HGMatch.count_part`
        (the sequential block-DFS, below every ``parts``-th root
        candidate) and answers one REPLY with its count and accounting.
        Same store version ⇒ the same ascending root tuple on every
        member, so no edge id is shipped; two frames per member per
        query, nothing composed here, no session state there.

        The channel's budget and cancel flag are enforced mid-gather
        (:meth:`_gather_iter`) and the budget also travels in the
        request.  ``counters`` of the parts add up to the sequential
        engine's (only part 0 charges the step-0 scan and the root
        task); ``worker_stats`` holds one entry per part, in part
        order, each stamped with the shard id of the member that ran it.
        """
        state = self._state
        plan = engine.plan(query, order)
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
        self._broadcast(("subtree", query, plan.order))
        answers = dict(self._gather_iter())
        counters = MatchCounters()
        worker_stats = []
        for part in sorted(answers):
            _, _, _, part_counters, stats = answers[part]
            counters.merge(part_counters)
            worker_stats.append(stats)
        return ParallelResult(
            embeddings=counters.embeddings,
            elapsed=time.monotonic() - started,
            counters=counters,
            worker_stats=worker_stats,
        )

    def _fail(self) -> None:
        self._pool.release(self.query_id, completed=False)

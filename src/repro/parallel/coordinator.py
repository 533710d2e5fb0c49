"""The shard coordinator: one level-synchronous job at a time over a
pool of shard workers.

:class:`NetShardExecutor` connects to :class:`~repro.parallel.worker.
ShardWorker` servers — its own :func:`~repro.parallel.cluster.
spawn_local_cluster` (``executor="processes"`` and hostless
``executor="sockets"`` are this one pool) or externally managed
addresses (``--hosts``, a registry) — validates their handshakes
(:mod:`repro.parallel.handshake`) and drives
:func:`repro.parallel.level_sync.run_level_synchronous` over them, so
counts are bit-identical to the sequential engine.

Replication and failover
------------------------
Each shard range may be served by ``K`` replicas (``num_replicas``).
Because shard construction is a pure function of ``(graph, shard_id,
num_shards, backend, placement)``, every replica of a range holds an
identical shard, and :func:`~repro.parallel.level_sync.expand_level`
is a pure function of ``(plan, step, frontier, shard)`` — so any
replica can answer any LEVEL of a job it has seen the JOB for, and two
replicas' answers to the same LEVEL are bit-identical.  The
coordinator exploits this three ways:

* **membership** — compose is refused only when a range has *zero*
  live replicas; a connect or handshake failure on one address merely
  drops that replica when ``K > 1``;
* **mid-job failover** — a replica that dies or exceeds its per-frame
  deadline mid-level has the in-flight LEVEL re-dispatched to a live
  replica of the same range (and local clusters additionally respawn
  the lost process under a budget — restart-with-requeue);
* **speculation** — with ``speculate_after`` set, a straggling level
  is speculatively re-sent to an idle replica; whichever reply arrives
  first wins, and the loser's duplicate is discarded *before* it
  reaches the composition loop (per-member request tokens), so
  duplicates are provably harmless and counts stay bit-identical.

``docs/ARCHITECTURE.md`` places this layer in the system (see its
"Replication & failover" section for the failover sequence).
"""

from __future__ import annotations

import logging
import pickle
import random
import selectors
import time
from collections import deque
from typing import Dict, List, Sequence, Tuple

from ..errors import SchedulerError, TransportError
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
    shard_grouping,
)
from ..hypergraph.storage import resolve_index_backend
from . import transport
from .cluster import LocalCluster, spawn_local_cluster
from .executor import ParallelResult
from .handshake import (
    CONNECT_TIMEOUT,
    default_retry_policy,
    open_session,
    validate_handshake,
)
from .level_sync import run_level_synchronous
from .tasks import RetryPolicy, default_seed, worker_loads
from .worker import default_io_timeout

logger = logging.getLogger("repro.parallel")


class _Member:
    """One live replica connection in the coordinator's pool."""

    __slots__ = (
        "shard_id", "replica_id", "address", "sock",
        "inflight", "dispatched_at", "deadline",
    )

    def __init__(self, shard_id, replica_id, address, sock) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.address = address
        self.sock = sock
        #: Request tokens awaiting replies on this connection, FIFO.
        #: The worker answers strictly in request order, so the token
        #: at the head is the one the next inbound frame answers —
        #: which is how stale (previous-level) and lost-race
        #: (speculation) replies are told apart from the live one.
        self.inflight: "deque[int]" = deque()
        self.dispatched_at: "float | None" = None
        self.deadline: "float | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_Member(shard={self.shard_id}, replica={self.replica_id}, "
            f"address={self.address!r}, inflight={list(self.inflight)})"
        )


class NetShardExecutor:
    """Run matching jobs over TCP-connected shard workers.

    Two construction modes:

    ``NetShardExecutor(addresses=[("host", port), ...])``
        Connect to externally managed workers (the multi-host mode; the
        CLI's ``--hosts``).  With ``num_replicas == K`` the address
        count must be ``N × K`` and the handshakes must cover every
        shard id ``0..N-1`` — replies are gathered in *shard* order
        regardless of the order the addresses were listed in.  With
        ``K > 1`` a dead address merely loses one replica; the
        coordinator refuses to compose only when some shard has *zero*
        live replicas.

    ``NetShardExecutor(num_shards=N, num_replicas=K)``
        Spawn (and own) a local cluster for the engine's data graph on
        first use — the single-machine ``--executor processes`` /
        ``--executor sockets`` path.

    The handshake is validated against the executor's expectations
    before any job runs: index backend (payloads would mis-decode),
    shard and replica arithmetic (rows would be double- or
    under-counted), the data graph fingerprint (counts would be
    silently wrong) and the scheduler seed (reproducibility).  A
    *contract* mismatch always tears the connections down and raises
    :class:`~repro.errors.SchedulerError`; a *liveness* failure
    (connect refused, peer vanished) is tolerated per-replica when
    ``K > 1``.

    Mid-job, each LEVEL is dispatched to one live replica per shard
    under a per-frame deadline (``io_timeout``; default from
    ``REPRO_NET_TIMEOUT``).  A replica that disconnects or blows the
    deadline is dropped and the level re-dispatched to another replica
    (local clusters can also respawn the lost process, budgeted).  With
    ``speculate_after=S`` seconds, a level still unanswered after ``S``
    is additionally sent to an idle replica and the first reply wins —
    per-member FIFO request tokens make the duplicate provably
    harmless.  Speculation and failover may split a job's per-worker
    counter accounting across replicas (each replica only counts the
    levels it expanded); embedding counts are always exact because the
    coordinator composes exactly one reply per (level, shard).
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
                "NetShardExecutor needs worker addresses or num_shards"
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
        self._retry_rng = random.Random(self.seed ^ 0x5EED)
        self._cluster: "LocalCluster | None" = None
        #: The live pool: one ReplicaSet of connected :class:`_Member`
        #: per shard (empty list when no pool is up).
        self._members: "List[ReplicaSet]" = []
        #: shard id → members currently working the in-flight request.
        self._watchers: "Dict[int, List[_Member]]" = {}
        #: The gather loop's selector and the member connections
        #: registered with it, by identity (``_watch_owing_members``).
        self._selector: "selectors.BaseSelector | None" = None
        self._watched: "Dict[int, _Member]" = {}
        #: Monotonic request token; bumped per LEVEL/COLLECT broadcast.
        self._token = 0
        #: The encoded frame of the in-flight LEVEL/COLLECT — what
        #: failover and speculation re-send — and whether it is a
        #: COLLECT (its reply is accounting alone).
        self._inflight_frame: "bytes | None" = None
        self._collecting = False
        self._graph: "Hypergraph | None" = None
        #: Placement of the live pool: build-mode label until a
        #: rebalance issues a ``rebalanced-<fp>`` table.
        self._sharding_label = self.sharding
        self._range_table = None
        #: The current job's encoded JOB frame — replayed to restored
        #: and admitted members so a spare joining mid-job can answer
        #: the in-flight level.
        self._job_frame: "bytes | None" = None
        self._respawn_budget = 0
        #: Optional :class:`~repro.parallel.registry.WorkerRegistry`
        #: whose heartbeat evictions proactively fail over members —
        #: a wedged worker is dropped at the registry's (short)
        #: eviction deadline instead of this executor's (long) per-frame
        #: I/O deadline.
        self.registry = registry
        self._evict_cursor = 0
        #: Shard ids retired by :meth:`drain` — their rows were recut
        #: onto the surviving shards; broadcasts and gathers skip them.
        self._retired: set = set()

    @classmethod
    def from_registry(
        cls,
        registry,
        num_shards: int,
        num_replicas: int = 1,
        wait_timeout: float = 30.0,
        **kwargs,
    ) -> "NetShardExecutor":
        """Build an executor from discovered workers.

        Blocks until the registry has a live worker for every
        ``(shard, replica)`` slot (or ``wait_timeout`` elapses), then
        connects to the announced addresses; the registry stays
        attached, so its missed-heartbeat evictions keep feeding the
        pool's liveness mid-job.
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

    # -- connection lifecycle -------------------------------------------

    def _close_member_grid(self, grid) -> None:
        for replica_set in grid:
            for _replica_id, member in replica_set.members():
                try:
                    member.sock.close()
                except OSError:  # pragma: no cover - best effort
                    pass

    def _ensure_pool(self, engine) -> None:
        if engine.index_backend != self.index_backend:
            raise SchedulerError(
                f"engine backend {engine.index_backend!r} does not match "
                f"executor backend {self.index_backend!r}"
            )
        self._respawn_budget = self.num_shards * self.num_replicas
        if self._graph is engine.data and self._members:
            # Reused sessions can have gone stale between jobs (the
            # worker ends sessions idle past its I/O timeout; a worker
            # can die).  A COLLECT round trip is a legitimate protocol
            # exchange, so use it as a liveness probe and fall through
            # to a clean rebuild instead of failing the job; a genuine
            # *mid-job* failure still raises (nothing half-composed).
            try:
                self._broadcast(("collect",))
                self._gather()
                return
            except SchedulerError:
                pass  # _broadcast/_gather already tore everything down
        self._close_connections()
        if self.addresses is None:
            # Local mode: own a cluster for this engine's data graph.
            # A fresh cluster builds spawn-mode shards, so any
            # rebalanced layout of the previous pool is gone with it.
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
            )
            addresses = self._cluster.addresses
        else:
            addresses = self.addresses
        grid = [
            ReplicaSet(shard_id, self.num_replicas)
            for shard_id in range(self.num_shards)
        ]
        failures: "List[str]" = []
        try:
            for host, port in addresses:
                try:
                    sock, descriptor = self._open_session(
                        (host, port), engine.data
                    )
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
                    try:
                        sock.close()
                    except OSError:
                        pass
                    detail = (
                        f" (replica {descriptor.replica_id})"
                        if self.num_replicas > 1
                        else ""
                    )
                    raise SchedulerError(
                        f"two workers both announced shard id "
                        f"{descriptor.shard_id}{detail}"
                    ) from None
        except BaseException:
            self._close_member_grid(grid)
            raise
        missing = [
            shard_id for shard_id in range(self.num_shards)
            if not grid[shard_id]
        ]
        if missing:
            self._close_member_grid(grid)
            detail = "; ".join(failures) if failures else (
                "no worker announced them"
            )
            raise SchedulerError(
                f"no live replica for shard(s) {missing}: {detail}"
            )
        self._members = grid
        self._graph = engine.data
        # A rebuilt pool covers every shard again; forget retirements
        # and skip registry evictions that predate this membership.
        self._retired = set()
        if self.registry is not None:
            self._evict_cursor = len(self.registry.evictions)

    def _contract(self) -> dict:
        """This pool's view for :func:`validate_handshake`."""
        return {
            "index_backend": self.index_backend,
            "num_shards": self.num_shards,
            "num_replicas": self.num_replicas,
            "seed": self.seed,
            "sharding_label": self._sharding_label,
        }

    def _handshake(self, sock, graph, **expect) -> ShardDescriptor:
        """Validate a HELLO on an open connection (a rebalance echo)
        against this pool's view; ``expect`` are the extra keyword
        arguments of :func:`validate_handshake`."""
        return validate_handshake(sock, graph, **self._contract(), **expect)

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

    def _upgrade_placement(
        self, sock, shard_id: int, replica_id: int, **expect
    ) -> ShardDescriptor:
        """Bring a freshly connected worker, cut under its build mode,
        onto the pool's rebalanced layout: ship its range's slice of
        the live table and validate the HELLO echo."""
        transport.send_pickle_frame(
            sock,
            transport.MSG_REBALANCE,
            (
                self._sharding_label,
                range_table_slices(self._range_table, self.num_shards)[
                    shard_id
                ],
            ),
        )
        return self._handshake(
            sock, self._graph,
            expected_shard=shard_id, expected_replica=replica_id, **expect,
        )

    def _close_connections(self) -> None:
        for replica_set in self._members:
            for _replica_id, member in replica_set.members():
                try:
                    transport.send_frame(member.sock, transport.MSG_STOP)
                except (TransportError, OSError):
                    pass
                try:
                    member.sock.close()
                except OSError:
                    pass
        self._members = []
        self._watchers = {}
        self._watched = {}
        selector, self._selector = self._selector, None
        if selector is not None:
            selector.close()
        self._inflight_frame = None
        self._graph = None

    def close(self) -> None:
        """End the sessions; stop the owned local cluster, if any.

        Idempotent and safe at any lifecycle point: after a refused or
        partial handshake, after a previous close, or on an executor
        that never opened a pool.  The owned cluster is released before
        it is stopped, so even an exception out of the session teardown
        can neither leak worker processes nor make a second close
        re-stop them.
        """
        try:
            self._close_connections()
        finally:
            cluster, self._cluster = self._cluster, None
            if cluster is not None:
                cluster.close()

    def __enter__(self) -> "NetShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- pool bookkeeping ------------------------------------------------

    def _active_shards(self) -> "List[int]":
        """Shard ids still carrying rows (everything not retired by
        :meth:`drain`); broadcasts, gathers and failover run over
        exactly this set."""
        return [
            shard_id for shard_id in range(self.num_shards)
            if shard_id not in self._retired
        ]

    def _sync_registry(self, pending=None) -> None:
        """Fold fresh registry evictions into pool liveness.

        A member whose ``(shard, replica)`` identity was evicted for
        missed heartbeats (or a lost registry link) is failed over
        immediately — the whole point of heartbeating is to beat the
        per-frame I/O deadline to the diagnosis.  A member whose
        identity has *re-announced at the member's own address* since
        the eviction is left alone (the eviction described a previous
        incarnation, e.g. an already-readmitted worker).
        """
        if self.registry is None or not self._members:
            return
        self._evict_cursor, evicted = self.registry.evictions_since(
            self._evict_cursor
        )
        for record in evicted:
            if not 0 <= record.shard_id < len(self._members):
                continue
            member = self._members[record.shard_id].get(record.replica_id)
            if member is None:
                continue
            live = self.registry.record(record.shard_id, record.replica_id)
            if live is not None and tuple(live.address) == tuple(
                member.address
            ):
                continue
            self._handle_member_failure(
                member,
                f"registry evicted it ({record.reason})",
                redispatch=(
                    pending is not None and record.shard_id in pending
                ),
            )

    def _drop_member(self, member: _Member, cause: str) -> None:
        """Remove one replica connection from the pool (idempotent)."""
        if self._members:
            replica_set = self._members[member.shard_id]
            if replica_set.get(member.replica_id) is member:
                replica_set.remove(member.replica_id)
        watchers = self._watchers.get(member.shard_id)
        if watchers is not None and member in watchers:
            watchers.remove(member)
        try:
            member.sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
        logger.warning(
            "shard %d replica %d at %s dropped: %s",
            member.shard_id, member.replica_id, member.address, cause,
        )

    def _fail_shard(self, shard_id: int, cause: str) -> None:
        """Out of replicas for ``shard_id``: tear down and raise."""
        label = self._sharding_label
        self.close()
        raise SchedulerError(
            f"shard worker {shard_id} disconnected mid-job: {cause}; "
            f"no live replica remains for shard {shard_id} "
            f"({label} placement)"
        )

    def _handle_member_failure(
        self, member: _Member, cause: str, redispatch: bool = True
    ) -> None:
        """Drop a failed replica; re-dispatch its in-flight request to
        another replica of the range unless one is already working it
        (a speculative duplicate) or the range already answered."""
        shard_id = member.shard_id
        self._drop_member(member, cause)
        if redispatch and not self._watchers.get(shard_id):
            self._dispatch(shard_id, cause=cause)

    def _pick_member(self, shard_id: int) -> "_Member | None":
        """The replica to dispatch to: lowest idle replica id, falling
        back to the lowest busy one (its queue preserves order) —
        never one already watching this request."""
        watching = self._watchers.get(shard_id, ())
        fallback = None
        for _replica_id, member in self._members[shard_id].members():
            if member in watching:
                continue
            if not member.inflight:
                return member
            if fallback is None:
                fallback = member
        return fallback

    def _pick_spare(self, shard_id: int) -> "_Member | None":
        """A strictly idle replica for speculation (never steals one
        that still owes replies)."""
        watching = self._watchers.get(shard_id, ())
        for _replica_id, member in self._members[shard_id].members():
            if member not in watching and not member.inflight:
                return member
        return None

    def _restore_member(self, shard_id: int) -> "_Member | None":
        """Restart-with-requeue for a range that lost a replica mid-job.

        Only executors that *own* their workers can restart them, so
        this applies to local clusters exclusively — with externally
        managed ``addresses`` the coordinator cannot know how to revive
        a remote host and relies on the remaining replicas (K=1 keeps
        the documented clean :class:`SchedulerError`).  The respawned
        worker rebuilds its shard from the spawn-time placement, is
        upgraded to the pool's rebalanced layout if one is live, and is
        then replayed the current JOB — the in-flight LEVEL itself is
        re-sent by :meth:`_dispatch`, exactly like any other failover
        target.  The lost process's earlier per-level counter
        accounting is gone with it (the embedding count is not:
        embeddings are counted from the coordinator's deduplicated
        replies).  Returns the fresh member, or None when recovery is
        impossible (no cluster, budget exhausted, no job in flight,
        respawn failed).
        """
        if self._cluster is None or self._respawn_budget <= 0:
            return None
        if self._job_frame is None:
            return None
        replica_set = self._members[shard_id]
        replica_id = next(
            (
                slot for slot in range(self.num_replicas)
                if replica_set.get(slot) is None
            ),
            None,
        )
        if replica_id is None:  # pragma: no cover - full set, nothing lost
            return None
        self._respawn_budget -= 1
        sock = None
        try:
            address = self._cluster.respawn(shard_id, replica_id)
            sock, _descriptor = self._open_session(
                address,
                self._graph,
                expected_shard=shard_id,
                expected_replica=replica_id,
                expected_sharding=self._cluster.sharding,
            )
            if self._sharding_label != self._cluster.sharding:
                # The pool runs a rebalanced layout; bring the fresh
                # worker onto it before replaying any work.
                self._upgrade_placement(sock, shard_id, replica_id)
            sock.sendall(self._job_frame)
        except (SchedulerError, OSError):
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - best effort
                    pass
            return None
        member = _Member(shard_id, replica_id, address, sock)
        replica_set.place(replica_id, member)
        logger.warning(
            "shard %d replica %d respawned at %s and replayed the job",
            shard_id, replica_id, address,
        )
        return member

    # -- messaging (the level_sync plug-in surface) ---------------------

    def _broadcast(self, message) -> None:
        tag = message[0]
        if tag == "job":
            # Stamped with the graph version the coordinator's candidate
            # algebra assumes, so a worker that missed a MUTATE refuses
            # the job instead of mis-counting (§2.9).  Kept for replay:
            # a worker recovered mid-gather is sent the current JOB
            # before the in-flight request.
            self._job_frame = frame = transport.encode_frame(
                transport.MSG_JOB,
                transport.encode_query_body(
                    transport.SOLO_QUERY_ID,
                    pickle.dumps(
                        (
                            message[1],
                            message[2],
                            getattr(self._graph, "version", 0),
                        ),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    ),
                ),
            )
            # The JOB goes to *every* live replica — spares must hold
            # the plan to be able to answer a re-dispatched LEVEL.
            for shard_id in self._active_shards():
                replica_set = self._members[shard_id]
                for _replica_id, member in list(replica_set.members()):
                    try:
                        member.sock.sendall(frame)
                    except OSError as exc:
                        self._drop_member(member, f"send failed: {exc}")
                if not replica_set and self._restore_member(shard_id) is None:
                    self._fail_shard(
                        shard_id,
                        "lost every replica while broadcasting the job",
                    )
            return
        if tag == "level":
            kind = transport.MSG_LEVEL
            body = pickle.dumps(message[1:], protocol=pickle.HIGHEST_PROTOCOL)
        elif tag == "collect":
            kind, body = transport.MSG_COLLECT, b""
        else:
            raise SchedulerError(f"unknown broadcast {tag!r}")
        # LEVEL / COLLECT: one live replica per shard answers; failover
        # and speculation may re-send the same frame to others.
        self._token += 1
        self._inflight_frame = transport.encode_frame(
            kind, transport.encode_query_body(transport.SOLO_QUERY_ID, body)
        )
        self._collecting = kind == transport.MSG_COLLECT
        self._watchers = {}
        for shard_id in self._active_shards():
            self._dispatch(shard_id)

    def _dispatch(
        self,
        shard_id: int,
        member: "_Member | None" = None,
        cause: "str | None" = None,
    ) -> None:
        """Send the in-flight frame to one replica of ``shard_id``
        (``member`` pins the target — the speculation path), restoring
        or failing the shard when no live replica can take it."""
        if self._inflight_frame is None:  # pragma: no cover - misuse
            self._fail_shard(
                shard_id, cause or "no request in flight to dispatch"
            )
        while True:
            target = member or self._pick_member(shard_id)
            member = None
            if target is None:
                target = self._restore_member(shard_id)
            if target is None:
                self._fail_shard(
                    shard_id, cause or "no live replica left to dispatch to"
                )
            try:
                target.sock.sendall(self._inflight_frame)
            except OSError as exc:
                self._drop_member(target, f"send failed: {exc}")
                continue
            now = time.monotonic()
            target.inflight.append(self._token)
            target.dispatched_at = now
            target.deadline = now + self.io_timeout
            self._watchers.setdefault(shard_id, []).append(target)
            return

    def _decode_reply(self, member: _Member, kind: int, body: bytes):
        """Decode one worker reply frame (level reply or accounting)."""
        shard_id = member.shard_id
        try:
            _query_id, rest = transport.split_query_body(body)
            if kind == transport.MSG_LEVEL_REPLY:
                return transport.decode_reply(rest, self._collecting)
            if kind != transport.MSG_QERROR:
                raise TransportError(f"unexpected reply kind {kind:#x}")
            message = transport.decode_pickle_body(rest)
        except TransportError as exc:
            self.close()
            raise SchedulerError(
                f"shard worker {shard_id} (replica {member.replica_id}) "
                f"sent an undecodable reply: {exc}"
            ) from None
        # Enumeration errors are deterministic in (plan, frontier,
        # shard) — every replica would fail identically, so this is
        # not a failover case.
        self.close()
        raise SchedulerError(
            f"shard worker {shard_id} failed (replica "
            f"{member.replica_id}, {self._sharding_label} placement):"
            f"\n{message}"
        )

    def _select_timeout(self, pending, now: float) -> float:
        """How long the next ``select`` may sleep: until the earliest
        member deadline or speculation trigger, capped by the I/O
        timeout (already-due triggers with no spare to fire at are
        excluded — they must not busy-spin the loop)."""
        timeout = self.io_timeout
        for shard_id in pending:
            watchers = self._watchers.get(shard_id, ())
            for watcher in watchers:
                if watcher.deadline is not None:
                    timeout = min(timeout, watcher.deadline - now)
            if (
                self.speculate_after is not None
                and len(watchers) == 1
                and watchers[0].dispatched_at is not None
            ):
                trigger = (
                    watchers[0].dispatched_at + self.speculate_after - now
                )
                if trigger > 0:
                    timeout = min(timeout, trigger)
        if self.registry is not None:
            # Wake at heartbeat granularity so registry evictions fail
            # members over long before the per-frame deadline.
            timeout = min(
                timeout, max(self.registry.heartbeat_interval, 0.05)
            )
        return max(0.0, min(timeout, self.io_timeout))

    def _watch_owing_members(self) -> int:
        """Bring the pool's selector up to date with the members that
        owe a reply (stale and speculative ones included — they must be
        drained) and return how many there are.

        The selector lives as long as the executor: a connection is
        registered the first time it owes a reply and stays registered
        while it is a member, so a level costs one ``select`` and no
        registration.  Members that left the pool are unregistered
        *before* any newcomer is registered — a closed descriptor may
        already belong to its successor.
        """
        if self._selector is None:
            self._selector = selectors.DefaultSelector()
        live = set()
        owing: "Dict[int, _Member]" = {}
        for replica_set in self._members:
            for _replica_id, candidate in replica_set.members():
                live.add(id(candidate))
                if candidate.inflight:
                    owing[id(candidate)] = candidate
        for key in [key for key in self._watched if key not in live]:
            self._unwatch(self._watched[key])
        for key, candidate in owing.items():
            if key not in self._watched:
                self._selector.register(
                    candidate.sock, selectors.EVENT_READ, candidate
                )
                self._watched[key] = candidate
        return len(owing)

    def _unwatch(self, member: _Member) -> None:
        del self._watched[id(member)]
        try:
            self._selector.unregister(member.sock)
        except (KeyError, ValueError, OSError):
            pass  # the socket was closed under the selector

    def _gather_iter(self):
        """As-completed level replies: ``(shard_id, reply)`` pairs in
        arrival order (the streaming-compose hook of
        :func:`repro.parallel.level_sync.run_level_synchronous`).

        This loop *is* the failover/speculation engine: it enforces the
        per-member reply deadline (a wedged replica is dropped and its
        request re-dispatched), fires speculation for straggling
        shards, and guarantees **at most one reply per shard per
        request token** reaches the caller — stale replies (a previous
        level's late answer) and lost speculation races are drained
        and discarded here, which is what makes duplicate REPLYs
        provably harmless to the composition fold above.
        """
        pending = set(self._active_shards())
        while pending:
            self._sync_registry(pending)
            pending &= set(self._active_shards())
            if not pending:
                return
            now = time.monotonic()
            # Deadline enforcement: a watcher past its per-frame
            # deadline is dropped; failover picks a replacement.
            for shard_id in sorted(pending):
                for watcher in list(self._watchers.get(shard_id, ())):
                    if watcher.deadline is not None and (
                        watcher.deadline <= now
                    ):
                        self._handle_member_failure(
                            watcher,
                            f"no reply within {self.io_timeout}s "
                            f"(worker wedged)",
                        )
            # Speculation: a shard still waiting on its only watcher
            # past the trigger gets a duplicate dispatch to an idle
            # spare; first reply wins, the loser is discarded below.
            if self.speculate_after is not None:
                for shard_id in sorted(pending):
                    watchers = self._watchers.get(shard_id, ())
                    if len(watchers) != 1:
                        continue
                    started = watchers[0].dispatched_at
                    if started is None or (
                        started + self.speculate_after > now
                    ):
                        continue
                    spare = self._pick_spare(shard_id)
                    if spare is not None:
                        logger.warning(
                            "shard %d straggling (> %.3fs); speculating "
                            "on replica %d",
                            shard_id, self.speculate_after,
                            spare.replica_id,
                        )
                        self._dispatch(shard_id, member=spare)
            # Wait on every connection that owes a reply — including
            # stale/speculative ones, which must be drained.
            if not self._watch_owing_members():
                self._fail_shard(
                    sorted(pending)[0], "no live replica left to wait on"
                )
            events = self._selector.select(
                timeout=self._select_timeout(pending, now)
            )
            for key, _mask in events:
                member: _Member = key.data
                if (
                    self._members[member.shard_id].get(member.replica_id)
                    is not member
                ):
                    continue  # dropped earlier in this event batch
                if not member.inflight:
                    # An idle connection turned readable (its peer died
                    # or misbehaved): stop watching it; the next send or
                    # receive on it reports the failure, as it always
                    # has.
                    self._unwatch(member)
                    continue
                try:
                    kind, body = transport.recv_frame(member.sock)
                except TransportError as exc:
                    self._handle_member_failure(
                        member, str(exc),
                        redispatch=member.shard_id in pending,
                    )
                    continue
                token = (
                    member.inflight.popleft() if member.inflight else -1
                )
                if not member.inflight:
                    member.dispatched_at = None
                    member.deadline = None
                if token != self._token:
                    continue  # a previous request's late reply; drained
                shard_id = member.shard_id
                if shard_id not in pending:
                    continue  # lost the speculation race; duplicate
                reply = self._decode_reply(member, kind, body)
                pending.discard(shard_id)
                self._watchers[shard_id] = []
                yield shard_id, reply

    def _gather(self) -> list:
        replies = [None] * self.num_shards
        for shard_id, reply in self._gather_iter():
            replies[shard_id] = reply
        return replies

    # -- adaptive placement ----------------------------------------------

    def rebalance(self, worker_stats) -> int:
        """Recut the live pool's ranges from observed per-shard load.

        ``worker_stats`` is a completed run's
        :attr:`~repro.parallel.executor.ParallelResult.worker_stats`;
        the recut (:func:`repro.hypergraph.sharding.plan_rebalance`)
        shifts partition boundaries toward the underloaded shards while
        keeping every shard's position along the row axis.  *Every*
        live replica of every shard receives its range's slice of the
        recut table in a REBALANCE frame (a worker whose ranges didn't
        move merely adopts the new placement label and keeps its warm
        indices — the whole pool must agree on one label or the next
        session handshake would refuse the laggards), and each answers
        with a fresh HELLO that must echo the new label.  Works against
        local clusters and remote ``serve-shard`` workers alike (the
        frame is part of the wire protocol); runs strictly between
        jobs.  Returns the number of shards whose ranges moved (0 when
        the observed load was already balanced).
        """
        if not self._members or self._graph is None:
            raise SchedulerError(
                "no live pool to rebalance; run a job first"
            )
        if len(worker_stats) != self.num_shards:
            raise SchedulerError(
                f"{len(worker_stats)} worker stats for "
                f"{self.num_shards} shards"
            )
        grouped = shard_grouping(self._graph)
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

    # -- mutation --------------------------------------------------------

    def mutate(self, engine, batch, result) -> int:
        """Propagate one committed mutation batch to the live pool.

        The engine has already applied ``batch`` locally (``result``
        is its :class:`~repro.hypergraph.dynamic.MutationResult`).
        *Every* live replica of every active shard receives the batch
        in a MUTATE frame (§2.9), applies it to its own graph copy and
        shard, and acks with a DELTA frame carrying its post-mutation
        graph state.
        Determinism of :meth:`~repro.hypergraph.dynamic.
        DynamicHypergraph.apply` makes each worker's state identical to
        the engine's (``result``), which the ack check enforces: a
        diverging or garbled ack is a *contract* failure and tears the
        pool down, while a liveness failure degrades that replica —
        like mid-job failover — as long as its range keeps another
        live member (the degraded worker's next handshake announces a
        stale graph version, which the gate repairs by streaming the
        missed batches in a CATCHUP frame — §2.10 — and re-validating
        the fingerprint; it can never silently rejoin stale).
        Runs strictly between jobs.  Returns the number of workers
        that acked the batch.  A pool that is not running needs
        nothing: its next ``_ensure_pool`` spawns workers from the
        already-mutated graph.
        """
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
            for _replica_id, member in list(
                self._members[shard_id].members()
            ):
                try:
                    transport.send_frame(
                        member.sock, transport.MSG_MUTATE, body
                    )
                except (TransportError, OSError) as exc:
                    self._degrade_or_fail(
                        member, f"mutate send failed: {exc}"
                    )
                    continue
                targets.append(member)
        applied = 0
        for member in targets:
            if (
                self._members[member.shard_id].get(member.replica_id)
                is not member
            ):
                continue  # degraded while later sends were in flight
            try:
                kind, ack_body = transport.recv_frame(member.sock)
            except TransportError as exc:
                self._degrade_or_fail(member, f"mutate ack failed: {exc}")
                continue
            if kind == transport.MSG_ERROR:
                message = transport.decode_pickle_body(ack_body)
                self.close()
                raise SchedulerError(
                    f"shard worker {member.shard_id} (replica "
                    f"{member.replica_id}) failed to mutate:\n{message}"
                )
            if kind != transport.MSG_DELTA:
                self.close()
                raise SchedulerError(
                    f"shard worker {member.shard_id} answered MUTATE "
                    f"with frame kind {kind:#x}, expected DELTA"
                )
            ack = transport.decode_pickle_body(ack_body)
            if ack != expected:
                self.close()
                raise SchedulerError(
                    f"shard worker {member.shard_id} (replica "
                    f"{member.replica_id}) diverged on mutate: acked "
                    f"{ack!r}, engine holds {expected!r}"
                )
            applied += 1
        if self._range_table is not None:
            self._range_table = mutate_range_table(
                self._range_table, result, self.num_shards
            )
        # Pre-mutation job state (replays target the old rows) and the
        # graph identity both roll forward with the commit.
        self._job_frame = None
        self._graph = engine.data
        return applied

    def _degrade_or_fail(self, member: _Member, cause: str) -> None:
        """A replica lost mid-rebalance: drop it when the shard keeps
        other live replicas (the pool degrades to reduced K but every
        range stays covered under one label), tear down and raise when
        it was the range's last."""
        shard_id = member.shard_id
        if len(self._members[shard_id]) > 1:
            self._drop_member(member, cause)
            return
        self.close()
        raise SchedulerError(
            f"shard worker {shard_id} is gone ({cause}); no live "
            f"replica remains for shard {shard_id}; connections torn "
            f"down"
        ) from None

    def _apply_rebalance(self, table, label, slices, skip=()) -> None:
        """Ship a recut table to every live member and validate the
        HELLO echoes.

        *Every* live replica of every active shard receives its range's
        slice (a worker whose ranges didn't move merely adopts the new
        label — the whole pool must agree on one label or the next
        session handshake would refuse the laggards) and answers with a
        fresh HELLO echoing the new label.  A *liveness* failure on the
        way (peer gone, stream severed or garbled) degrades that
        replica — exactly like mid-job failover — as long as its range
        keeps another live replica; a *contract* failure (a worker that
        echoes the wrong label) always tears the pool down: composing
        mixed placements would double- or under-count rows.
        """
        for shard_id in self._active_shards():
            for _replica_id, member in list(
                self._members[shard_id].members()
            ):
                if member in skip:
                    continue
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
            for replica_id, member in list(
                self._members[shard_id].members()
            ):
                if member in skip:
                    continue
                try:
                    self._handshake(
                        member.sock,
                        self._graph,
                        expected_shard=shard_id,
                        expected_replica=replica_id,
                    )
                except TransportError as exc:
                    self._degrade_or_fail(
                        member, f"rebalance echo failed: {exc}"
                    )
                except SchedulerError as exc:
                    self.close()
                    raise SchedulerError(
                        f"shard worker {shard_id} failed to rebalance: "
                        f"{exc}"
                    ) from None

    # -- elastic membership ----------------------------------------------

    def admit(self, address: Tuple[str, int]) -> ShardDescriptor:
        """Fold a newcomer worker into the live pool mid-lifetime.

        Connects to ``address``, validates the full handshake contract
        (backend, shard arithmetic, fingerprint, seed), upgrades the
        newcomer to the pool's rebalanced layout when its build label
        differs (via a REBALANCE frame), replays the current JOB if one
        is in flight, and places it in the member grid — from where the
        very next LEVEL (or failover) can dispatch to it.  A newcomer
        announcing a *wider* replica arithmetic than the pool's grows
        every range's slot table to match (K-growth: a K=1 pool becomes
        a K=2 pool the moment the first second-replica worker is
        admitted); a narrower one is refused.  Admission failures leave
        the pool exactly as it was.

        Returns the admitted worker's descriptor.
        """
        if not self._members or self._graph is None:
            raise SchedulerError(
                "no live pool to admit into; run a job first"
            )
        address = tuple(address)
        try:
            sock, descriptor = self._open_session(
                address, self._graph,
                allow_replica_growth=True, any_sharding=True,
            )
        except OSError as exc:
            raise SchedulerError(
                f"could not connect to shard worker at "
                f"{address[0]}:{address[1]}: {exc}"
            ) from exc
        except TransportError as exc:
            raise SchedulerError(
                f"worker at {address[0]}:{address[1]} failed the "
                f"admission handshake: {exc}"
            ) from None
        try:
            shard_id = descriptor.shard_id
            replica_id = descriptor.replica_id
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
                    f"newcomer at {address[0]}:{address[1]}"
                )
            if descriptor.sharding != self._sharding_label:
                if self._range_table is None:
                    raise SchedulerError(
                        f"shard placement mismatch: newcomer for shard "
                        f"{shard_id} was cut under "
                        f"{descriptor.sharding!r}, the pool runs "
                        f"{self._sharding_label!r} and no range table "
                        f"is live to upgrade it with"
                    )
                try:
                    descriptor = self._upgrade_placement(
                        sock, shard_id, replica_id,
                        allow_replica_growth=True,
                    )
                except TransportError as exc:
                    raise SchedulerError(
                        f"newcomer for shard {shard_id} failed the "
                        f"rebalance upgrade: {exc}"
                    ) from None
            if self._job_frame is not None:
                # Mid-job admission: replay the JOB so the newcomer can
                # answer a re-dispatched (or speculative) LEVEL.
                try:
                    sock.sendall(self._job_frame)
                except OSError as exc:
                    raise SchedulerError(
                        f"newcomer for shard {shard_id} lost the JOB "
                        f"replay: {exc}"
                    ) from None
            if descriptor.num_replicas > self.num_replicas:
                for replica_set in self._members:
                    replica_set.grow(descriptor.num_replicas)
                self.num_replicas = descriptor.num_replicas
            member = _Member(shard_id, replica_id, address, sock)
            self._members[shard_id].place(replica_id, member)
        except BaseException:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best effort
                pass
            raise
        logger.info(
            "admitted shard %d replica %d at %s:%s into the pool "
            "(K=%d)",
            shard_id, replica_id, address[0], address[1],
            self.num_replicas,
        )
        return descriptor

    def drain(self, shard_id: int, replica_id: int = 0) -> "str | None":
        """Gracefully decommission one member of the live pool.

        Finishes whatever the member still owes (in-flight level
        replies are read out and discarded — never abandoned mid-frame),
        then removes it.  When other replicas of the range remain live,
        that is the whole story: the range stays covered at reduced K.
        When the member was its range's *last* live replica, the shard
        itself is retired: the pool's range table is recut so the
        retired shard's rows move to its nearest surviving positional
        neighbour, every surviving worker receives the recut via the
        REBALANCE frame (validated by HELLO echoes, exactly like a
        load rebalance), and subsequent jobs broadcast and gather over
        the surviving shards only.  Draining the last live member of
        the whole pool is refused.

        Runs strictly between jobs.  Returns the new placement label
        when a retire-recut happened, None for a plain replica drain.
        """
        if not self._members or self._graph is None:
            raise SchedulerError("no live pool to drain; run a job first")
        if not 0 <= shard_id < self.num_shards:
            raise SchedulerError(
                f"shard id {shard_id} outside 0..{self.num_shards - 1}"
            )
        member = self._members[shard_id].get(replica_id)
        if member is None:
            raise SchedulerError(
                f"shard {shard_id} replica {replica_id} is not a live "
                f"member of the pool"
            )
        # Finish in-flight work: drain every reply this connection
        # still owes (stale or speculative levels included).
        try:
            member.sock.settimeout(self.io_timeout)
            while member.inflight:
                transport.recv_frame(member.sock)
                member.inflight.popleft()
        except (TransportError, OSError):
            member.inflight.clear()  # it died mid-drain; treat as gone
        label: "str | None" = None
        if len(self._members[shard_id]) == 1:
            # Last replica of the range: retire the shard by recutting
            # its rows onto the surviving shards.
            survivors = [
                other for other in self._active_shards()
                if other != shard_id and self._members[other]
            ]
            if not survivors:
                raise SchedulerError(
                    f"refusing to drain shard {shard_id} replica "
                    f"{replica_id}: it is the pool's last live member"
                )
            grouped = shard_grouping(self._graph)
            table = self._range_table
            if table is None:
                table = build_range_table(
                    grouped, self.num_shards, self.sharding
                )
            table = retire_shard_ranges(table, shard_id, survivors)
            new_label = range_table_label(table, grouped)
            slices = range_table_slices(table, self.num_shards)
            self._retired.add(shard_id)
            self._apply_rebalance(table, label=new_label, slices=slices)
            label = new_label
            logger.info(
                "retired shard %d: rows recut onto shards %s (%s)",
                shard_id, survivors, new_label,
            )
        try:
            transport.send_frame(member.sock, transport.MSG_STOP)
        except (TransportError, OSError):
            pass
        try:
            member.sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
        self._members[shard_id].remove(replica_id)
        logger.info(
            "drained shard %d replica %d at %s",
            shard_id, replica_id, member.address,
        )
        return label

    # -- execution ------------------------------------------------------

    def run(
        self,
        engine,
        query: Hypergraph,
        order: "Sequence[int] | None" = None,
        time_budget: "float | None" = None,
    ) -> ParallelResult:
        """Execute one matching job across the shard pool.

        Delegates to the level-synchronous protocol
        (:func:`repro.parallel.level_sync.run_level_synchronous`), so
        counts are bit-identical to the sequential engine — including
        under failover and speculation, which replace *who* answers a
        level but never *what* the answer is.  ``time_budget`` is
        enforced at level granularity.
        """
        try:
            return run_level_synchronous(
                self, engine, query, order=order, time_budget=time_budget
            )
        finally:
            # The recovery caches only matter while a gather is in
            # flight; dropping them here releases the last level's
            # frontier (the job's largest allocation) on executors that
            # stay warm between queries.
            self._job_frame = None
            self._inflight_frame = None
            self._watchers = {}


class ProcessShardExecutor(NetShardExecutor):
    """``executor="processes"``: the coordinator over its own local
    worker pool.

    The hostless constructor of :class:`NetShardExecutor` under the
    name and positional signature the process-pool executor had; it
    overrides nothing — one worker process per store shard, spawned on
    first use, persisting across queries, with the coordinator's
    failure policy (liveness probe between jobs, budgeted
    respawn-with-requeue mid-job, exact counts).
    """

    def __init__(
        self,
        num_shards: int,
        index_backend: "str | None" = None,
        sharding: "str | None" = None,
        start_method: "str | None" = None,
        seed: "int | None" = None,
    ) -> None:
        super().__init__(
            num_shards=num_shards,
            index_backend=index_backend,
            sharding=sharding,
            seed=seed,
            start_method=start_method,
        )

"""Socket-sharded execution: shard servers + the network coordinator.

The last transport rung below multi-host deployment.  The pieces:

* :class:`ShardWorker` — a TCP server process that builds and owns one
  :class:`~repro.hypergraph.sharding.StoreShard` and answers the
  level-synchronous protocol over framed messages
  (:mod:`repro.parallel.transport`).  Run it on any host that can load
  the data hypergraph (``python -m repro serve-shard`` is the CLI
  wrapper).
* :class:`NetShardExecutor` — the coordinator: connects to the shard
  workers, validates their handshakes (backend, shard arithmetic,
  replica arithmetic, data fingerprint, scheduler seed), and runs the
  exact same level-synchronous composition loop as the multiprocess
  executor (:func:`repro.parallel.level_sync.run_level_synchronous`),
  so counts are bit-identical across pipes, sockets and the sequential
  engine.
* :func:`spawn_local_cluster` — boots ``num_shards × num_replicas``
  shard workers as local subprocesses on ephemeral loopback ports.
  Tests, the CLI's ``--executor sockets`` and the benchmarks use it to
  exercise the full network path on one machine; multi-host
  deployments start the workers themselves and hand the coordinator
  their addresses.

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
  replica of the same range (and local clusters can additionally
  respawn the lost process — PR 5's restart-with-requeue, now one case
  of the general policy);
* **speculation** — with ``speculate_after`` set, a straggling level
  is speculatively re-sent to an idle replica; whichever reply arrives
  first wins, and the loser's duplicate is discarded *before* it
  reaches the composition loop (per-member request tokens), so
  duplicates are provably harmless and counts stay bit-identical.

What crosses the wire is what crossed the pipes: the frontier of
self-contained partial embeddings outbound, and compact
:class:`~repro.core.candidates.CandidateSet` payloads (row bitmasks /
chunk maps / edge-id tuples, each prefixed with the candidate wire
version byte) inbound — never decoded edge-id lists for the mask
backends.  ``docs/WIRE_FORMAT.md`` specifies every byte;
``docs/ARCHITECTURE.md`` places this layer in the system (see its
"Replication & failover" section for the failover sequence).
"""

from __future__ import annotations

import logging
import os
import pickle
import random
import socket
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence, Tuple

import selectors

from ..core.candidates import (
    AnchorUnionMemo,
    VertexStepState,
    decode_versioned,
    encode_versioned,
)
from ..core.counters import WORK_UNIT_MODELS, MatchCounters
from ..core.plan import build_execution_plan
from ..errors import SchedulerError, TransportError
from ..hypergraph import Hypergraph
from ..hypergraph.dynamic import DynamicHypergraph
from ..hypergraph.sharding import (
    ReplicaSet,
    SHARDING_MODES,
    ShardDescriptor,
    StoreShard,
    build_range_table,
    mutate_range_table,
    range_table_label,
    range_table_slices,
    resolve_sharding,
    retire_shard_ranges,
    shard_grouping,
)
from ..hypergraph.storage import resolve_index_backend
from . import transport
from .executor import ParallelResult
from .level_sync import expand_level, plan_pool_rebalance
from .tasks import RetryPolicy, WorkerStats, default_seed, join_or_kill

logger = logging.getLogger("repro.parallel")

#: How long the coordinator waits for a TCP connect + handshake.
CONNECT_TIMEOUT = 10.0

#: Default per-frame I/O timeout on established connections — the
#: fallback when neither the ``REPRO_NET_TIMEOUT`` environment variable
#: nor the ``io_timeout`` kwarg names one.  Generous — level replies
#: can take as long as the shard's share of the enumeration — but
#: finite, so a wedged peer surfaces as failover (or an error) instead
#: of a hang.
DEFAULT_IO_TIMEOUT = 600.0


def default_io_timeout() -> float:
    """The per-frame I/O timeout: ``REPRO_NET_TIMEOUT`` seconds or
    :data:`DEFAULT_IO_TIMEOUT`.

    Resolved at call time (like ``REPRO_SEED``) so a test session or a
    deployment can tighten the failover deadline without touching call
    sites; both the coordinator and ``serve-shard`` workers read it.
    """
    value = os.environ.get("REPRO_NET_TIMEOUT")
    if not value:
        return DEFAULT_IO_TIMEOUT
    try:
        timeout = float(value)
    except ValueError:
        raise TransportError(
            f"REPRO_NET_TIMEOUT must be a number of seconds, got {value!r}"
        ) from None
    if timeout <= 0:
        raise TransportError(
            f"REPRO_NET_TIMEOUT must be positive, got {value!r}"
        )
    return timeout


def default_retry_policy() -> RetryPolicy:
    """The coordinator's connect/restart policy, from the environment.

    ``REPRO_NET_RETRIES`` (a positive integer) overrides the attempt
    budget and ``REPRO_NET_BACKOFF`` (a positive number of seconds)
    overrides the base backoff delay; unset, both fall back to
    :class:`~repro.parallel.tasks.RetryPolicy`'s defaults (4 attempts,
    0.05 s base).  Resolved at call time, like ``REPRO_NET_TIMEOUT`` in
    :func:`default_io_timeout`, so a deployment can harden or tighten
    retry behaviour without touching call sites.
    """
    kwargs = {}
    value = os.environ.get("REPRO_NET_RETRIES")
    if value:
        try:
            attempts = int(value)
        except ValueError:
            raise TransportError(
                f"REPRO_NET_RETRIES must be an integer attempt count, "
                f"got {value!r}"
            ) from None
        if attempts < 1:
            raise TransportError(
                f"REPRO_NET_RETRIES must be >= 1, got {value!r}"
            )
        kwargs["attempts"] = attempts
    value = os.environ.get("REPRO_NET_BACKOFF")
    if value:
        try:
            base_delay = float(value)
        except ValueError:
            raise TransportError(
                f"REPRO_NET_BACKOFF must be a number of seconds, "
                f"got {value!r}"
            ) from None
        if base_delay <= 0:
            raise TransportError(
                f"REPRO_NET_BACKOFF must be positive, got {value!r}"
            )
        kwargs["base_delay"] = base_delay
        kwargs["max_delay"] = max(
            base_delay, RetryPolicy.max_delay
        )
    return RetryPolicy(**kwargs)


#: Default policy for coordinator → worker TCP connects (the static
#: fallback; executors resolve :func:`default_retry_policy` at
#: construction so the environment knobs are honoured).
CONNECT_RETRY = RetryPolicy()

#: Default policy for polling a spawned worker's ready report (short
#: first probes — workers are usually up in milliseconds — backing off
#: while a slow shard build holds the pipe quiet).
READY_POLL = RetryPolicy(attempts=64, base_delay=0.005, max_delay=0.25)


def _disable_nagle(sock) -> None:
    """Request/response protocols want small frames out *now*: Nagle
    coalescing only adds latency to the level barrier."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):  # pragma: no cover - non-TCP peer
        pass


# ----------------------------------------------------------------------
# Worker side: the shard server
# ----------------------------------------------------------------------


@dataclass
class _QuerySession:
    """One multiplexed query's worker-side state (WIRE_FORMAT.md §2.8).

    Exactly the quadruple a legacy session keeps for its single job —
    held per query id so one connection can interleave many jobs, and
    droppable as a unit on CANCEL / completion / per-query error.
    """

    plan: object
    state: object
    counters: MatchCounters
    stats: WorkerStats


class ShardWorker:
    """A TCP server owning one store shard (one replica of one range).

    Builds shard ``shard_id`` of ``num_shards`` from ``graph`` at
    construction (the offline stage), then serves coordinator sessions
    sequentially: each accepted connection gets a HELLO handshake
    carrying the shard's :class:`~repro.hypergraph.sharding.
    ShardDescriptor` (stamped with this worker's ``replica_id`` of
    ``num_replicas``) and the worker's scheduler seed, then answers
    JOB / LEVEL / COLLECT frames until the peer sends STOP (end the
    session) or SHUTDOWN (stop the server).  One session at a time is
    the right concurrency: a shard's store is single-writer state per
    job, and the level-synchronous protocol keeps at most one
    coordinator request in flight per connection.

    Replicas of the same range differ *only* in ``replica_id``: the
    shard they build is byte-for-byte the same pure function of the
    placement, which is the whole failover argument.

    The server never trusts the stream: malformed frames raise
    :class:`~repro.errors.TransportError` and end the session (the
    server keeps accepting), while enumeration errors are reported to
    the peer as ERROR frames — prefixed with the failing shard id,
    replica id and range label so a multi-host failure is attributable
    from the coordinator's traceback alone — before the session ends.
    """

    def __init__(
        self,
        graph: Hypergraph,
        shard_id: int,
        num_shards: int,
        index_backend: "str | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        seed: "int | None" = None,
        sharding: "str | None" = None,
        replica_id: int = 0,
        num_replicas: int = 1,
        io_timeout: "float | None" = None,
        chaos=None,
        announce: "Tuple[str, int] | None" = None,
        heartbeat_interval: "float | None" = None,
    ) -> None:
        if num_replicas < 1:
            raise SchedulerError("num_replicas must be >= 1")
        if not 0 <= replica_id < num_replicas:
            raise SchedulerError(
                f"replica_id {replica_id} outside 0..{num_replicas - 1}"
            )
        self.index_backend = resolve_index_backend(index_backend)
        self.seed = default_seed() if seed is None else seed
        self.replica_id = replica_id
        self.num_replicas = num_replicas
        self.io_timeout = (
            default_io_timeout() if io_timeout is None else io_timeout
        )
        self.chaos = chaos
        self.shard = StoreShard.build(
            graph, shard_id, num_shards, self.index_backend,
            resolve_sharding(sharding),
        )
        self._graph = graph
        self._memo = AnchorUnionMemo()
        self._listener: "socket.socket | None" = None
        self._host = host
        self._port = port
        self._announce = None if announce is None else tuple(announce)
        self._heartbeat_interval = heartbeat_interval
        self._announcer = None

    # -- lifecycle ------------------------------------------------------

    def bind(self) -> Tuple[str, int]:
        """Bind the listener; returns the bound ``(host, port)`` (the
        port is the OS-assigned one when constructed with port 0)."""
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(1)
            self._listener = listener
            self._host, self._port = listener.getsockname()[:2]
            self._start_announcer()
        return self._host, self._port

    def _announce_hello(self):
        """What the announcer registers: the serving address plus the
        same descriptor/seed a HELLO would carry — re-evaluated at each
        (re)connect so a REBALANCE relabel re-announces truthfully."""
        descriptor = self.shard.describe().with_replica(
            self.replica_id, self.num_replicas
        )
        return (self.address, descriptor.as_dict(), self.seed)

    def _start_announcer(self) -> None:
        if self._announce is None or self._announcer is not None:
            return
        from .registry import Announcer  # here to avoid an import cycle

        self._announcer = Announcer(
            self._announce,
            self._announce_hello,
            interval=self._heartbeat_interval,
            chaos=self.chaos,
            rng=random.Random(
                (self.shard.shard_id << 16) ^ self.replica_id ^ self.seed
            ),
        )
        self._announcer.start()

    @property
    def address(self) -> Tuple[str, int]:
        return self._host, self._port

    def close(self) -> None:
        if self._announcer is not None:
            self._announcer.stop()
            self._announcer = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - best effort
                pass
            self._listener = None

    # -- serving --------------------------------------------------------

    def _hello_body(self) -> bytes:
        """The HELLO payload: the shard descriptor stamped with this
        worker's replica membership, plus the scheduler seed."""
        descriptor = self.shard.describe().with_replica(
            self.replica_id, self.num_replicas
        )
        return transport.encode_handshake(descriptor.as_dict(), self.seed)

    def serve_forever(self, max_sessions: "int | None" = None) -> None:
        """Accept and serve sessions until SHUTDOWN (or ``max_sessions``
        sessions have ended — a testing/CLI convenience)."""
        self.bind()
        sessions = 0
        try:
            while max_sessions is None or sessions < max_sessions:
                try:
                    conn, _peer = self._listener.accept()
                except OSError:  # listener closed under us
                    return
                try:
                    keep_serving = self._serve_session(conn)
                finally:
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover - best effort
                        pass
                sessions += 1
                if not keep_serving:
                    return
        finally:
            self.close()

    def _serve_session(self, conn) -> bool:
        """Serve one coordinator connection; False means SHUTDOWN."""
        if self.chaos is not None:
            # The chaos wrapper counts this session's outbound frames
            # (HELLO is frame 1) and applies any worker-role faults.
            conn = self.chaos.wrap(
                conn, "worker", self.shard.shard_id, self.replica_id
            )
        conn.settimeout(self.io_timeout)
        _disable_nagle(conn)
        try:
            transport.send_frame(conn, transport.MSG_HELLO, self._hello_body())
        except (TransportError, OSError):
            return True  # peer vanished before the handshake; next session
        plan = None
        state: "VertexStepState | None" = None
        counters = MatchCounters()
        stats = WorkerStats(worker_id=self.shard.shard_id)
        # Multiplexed (§2.8) jobs, keyed by query id.  Session state is
        # per *connection*: when the coordinator reconnects after a
        # failure it replays every registered QJOB, so dropping the dict
        # with the connection never strands a query.
        sessions: "Dict[int, _QuerySession]" = {}
        while True:
            try:
                kind, body = transport.recv_frame(conn)
            except TransportError:
                # Peer gone or stream garbled; the session is over either
                # way, and the server stays up for the next coordinator.
                return True
            try:
                if kind == transport.MSG_LEVEL:
                    step, frontier = transport.decode_pickle_body(body)
                    reply = expand_level(
                        self._graph, self.shard, plan, step, frontier,
                        state, counters, stats, self._memo,
                    )
                    _, payloads, embeddings = reply
                    versioned: "List[Optional[bytes]] | None" = None
                    if payloads is not None:
                        versioned = []
                        for payload in payloads:
                            if payload is None:
                                versioned.append(None)
                            else:
                                versioned.append(encode_versioned(payload))
                                # The version byte ships too; account it.
                                stats.payload_bytes += 1
                    accounting = None
                    if step == plan.num_steps - 1:
                        # Piggyback the job accounting on the final
                        # level: saves a whole COLLECT round trip.
                        accounting = pickle.dumps(
                            (counters, stats),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        )
                    transport.send_frame(
                        conn,
                        transport.MSG_LEVEL_REPLY,
                        transport.encode_level_reply(
                            versioned, embeddings, accounting
                        ),
                    )
                elif kind == transport.MSG_JOB:
                    query, order = transport.decode_pickle_body(body)
                    plan = build_execution_plan(
                        query, order, index_backend=self.index_backend
                    )
                    counters = MatchCounters()
                    counters.note_work_model(
                        WORK_UNIT_MODELS.get(self.index_backend, "")
                    )
                    stats = WorkerStats(worker_id=self.shard.shard_id)
                    state = VertexStepState(self._graph)
                elif kind == transport.MSG_COLLECT:
                    transport.send_frame(
                        conn,
                        transport.MSG_ACCOUNTING,
                        pickle.dumps(
                            (counters, stats),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        ),
                    )
                elif kind == transport.MSG_REBALANCE:
                    label, ranges = transport.decode_pickle_body(body)
                    if ranges == self.shard.ranges():
                        # Boundaries didn't touch this shard: adopt the
                        # new placement label, keep the warm indices.
                        self.shard.sharding = label
                    else:
                        self.shard = StoreShard.from_ranges(
                            self._graph,
                            shard_grouping(self._graph),
                            self.shard.shard_id,
                            self.shard.num_shards,
                            self.index_backend,
                            ranges,
                            sharding=label,
                        )
                        # Cached anchor unions are masks over the old
                        # shard's rows; clearing is mandatory.
                        self._memo.clear()
                    # Answer with a fresh HELLO: the descriptor now
                    # echoes the coordinator-issued label, which is how
                    # the peer verifies the rebuild took effect.
                    transport.send_frame(
                        conn, transport.MSG_HELLO, self._hello_body()
                    )
                elif kind == transport.MSG_MUTATE:
                    batch = transport.decode_pickle_body(body)
                    graph = self._graph
                    if not isinstance(graph, DynamicHypergraph):
                        # First mutation promotes the worker's graph
                        # copy in place; edge ids and row layouts are
                        # preserved, so the shard needs no rebuild.
                        graph = DynamicHypergraph.from_hypergraph(graph)
                        self._graph = graph
                    result = graph.apply(batch)
                    self.shard.apply_mutation_result(graph, result)
                    # Cached anchor unions cover pre-mutation rows —
                    # clearing is mandatory — and every open query
                    # session is pre-mutation state: drop them all (the
                    # coordinator fences queries before mutating, so
                    # nothing live is stranded).
                    self._memo.clear()
                    plan = None
                    state = None
                    sessions.clear()
                    transport.send_pickle_frame(
                        conn,
                        transport.MSG_DELTA,
                        {
                            "graph_version": result.version,
                            "graph_edges": graph.num_edges,
                            "graph_vertices": graph.num_vertices,
                        },
                    )
                elif kind == transport.MSG_CATCHUP:
                    payload = transport.decode_pickle_body(body)
                    if "snapshot" in payload:
                        # The batch suffix aged out: adopt the shipped
                        # graph wholesale and re-cut this shard from it
                        # under the coordinator-named placement mode.
                        graph = payload["snapshot"]
                        self._graph = graph
                        self.shard = StoreShard.build(
                            graph,
                            self.shard.shard_id,
                            self.shard.num_shards,
                            self.index_backend,
                            resolve_sharding(payload["sharding"]),
                        )
                    else:
                        graph = self._graph
                        if not isinstance(graph, DynamicHypergraph):
                            graph = DynamicHypergraph.from_hypergraph(
                                graph
                            )
                            self._graph = graph
                        for version, batch in payload["batches"]:
                            if version != graph.version + 1:
                                raise SchedulerError(
                                    f"catch-up replay gap: batch for "
                                    f"version {version} but the shard "
                                    f"holds {graph.version}"
                                )
                            result = graph.apply(batch)
                            self.shard.apply_mutation_result(
                                graph, result
                            )
                    if (
                        getattr(self._graph, "version", 0)
                        != payload["to_version"]
                    ):
                        raise SchedulerError(
                            f"catch-up fell short: replayed to version "
                            f"{getattr(self._graph, 'version', 0)}, "
                            f"coordinator expects "
                            f"{payload['to_version']}"
                        )
                    # Same invalidation as MUTATE: memoised anchor
                    # unions and open sessions cover pre-catch-up rows.
                    self._memo.clear()
                    plan = None
                    state = None
                    sessions.clear()
                    # Answer with a fresh handshake body: the gate
                    # re-validates the post-replay descriptor in full.
                    transport.send_frame(
                        conn,
                        transport.MSG_CATCHUP_REPLY,
                        self._hello_body(),
                    )
                elif kind in transport.QUERY_KINDS:
                    self._serve_query_frame(conn, kind, body, sessions)
                elif kind == transport.MSG_STOP:
                    return True
                elif kind == transport.MSG_SHUTDOWN:
                    return False
                else:
                    raise TransportError(
                        f"unexpected frame kind {kind:#x} in session"
                    )
            except (TransportError, OSError):
                return True  # write failed (or chaos severed): peer gone
            except Exception:  # report, then end the session visibly
                import traceback

                context = (
                    f"shard {self.shard.shard_id} replica "
                    f"{self.replica_id} ({self.shard.sharding} placement)"
                )
                try:
                    transport.send_pickle_frame(
                        conn,
                        transport.MSG_ERROR,
                        f"[{context}] " + traceback.format_exc(),
                    )
                except (TransportError, OSError):  # pragma: no cover
                    pass
                return True

    def _serve_query_frame(
        self, conn, kind: int, body: bytes,
        sessions: "Dict[int, _QuerySession]",
    ) -> None:
        """Serve one multiplexed (§2.8) frame of a session.

        The isolation seam of the match service: a failure inside one
        query's work goes back as a QERROR tagged with that query id
        and drops only that query's session — the connection, and every
        other query multiplexed on it, keeps serving.  Only transport
        failures propagate (the peer is gone for everyone).
        """
        query_id, rest = transport.split_query_body(body)
        if kind == transport.MSG_CANCEL:
            # Fire-and-forget: drop the query's state, answer nothing —
            # the coordinator stopped listening for this id already, and
            # an unknown id (already completed, or never started here)
            # is exactly as cancelled as a live one.
            sessions.pop(query_id, None)
            return
        try:
            if kind == transport.MSG_QJOB:
                job = transport.decode_pickle_body(rest)
                if len(job) == 3:
                    # Versioned QJOB (§2.9): the coordinator stamps the
                    # graph version its candidate algebra assumes;
                    # composing rows across versions would silently
                    # mis-count, so a stale worker fails the query.
                    query, order, job_version = job
                    have = getattr(self._graph, "version", 0)
                    if job_version != have:
                        raise SchedulerError(
                            f"query assumes graph version {job_version}, "
                            f"worker holds {have} (missed MUTATE?)"
                        )
                else:  # legacy pre-mutation 2-tuple
                    query, order = job
                plan = build_execution_plan(
                    query, order, index_backend=self.index_backend
                )
                counters = MatchCounters()
                counters.note_work_model(
                    WORK_UNIT_MODELS.get(self.index_backend, "")
                )
                # A QJOB for an already-registered id is a coordinator
                # replay (reconnect after a failure): start the query
                # over, exactly like a legacy JOB replay.
                sessions[query_id] = _QuerySession(
                    plan,
                    VertexStepState(self._graph),
                    counters,
                    WorkerStats(worker_id=self.shard.shard_id),
                )
            elif kind == transport.MSG_QLEVEL:
                session = sessions.get(query_id)
                if session is None:
                    raise SchedulerError(
                        f"no open session for query {query_id}: QLEVEL "
                        f"before QJOB (or after cancel/completion)"
                    )
                step, frontier = transport.decode_pickle_body(rest)
                reply = expand_level(
                    self._graph, self.shard, session.plan, step, frontier,
                    session.state, session.counters, session.stats,
                    self._memo,
                )
                _, payloads, embeddings = reply
                versioned: "List[Optional[bytes]] | None" = None
                if payloads is not None:
                    versioned = []
                    for payload in payloads:
                        if payload is None:
                            versioned.append(None)
                        else:
                            versioned.append(encode_versioned(payload))
                            session.stats.payload_bytes += 1
                final = step == session.plan.num_steps - 1
                accounting = None
                if final:
                    accounting = pickle.dumps(
                        (session.counters, session.stats),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                transport.send_frame(
                    conn,
                    transport.MSG_QREPLY,
                    transport.encode_query_body(
                        query_id,
                        transport.encode_level_reply(
                            versioned, embeddings, accounting
                        ),
                    ),
                )
                if final:
                    # Answered in full; the state has no further reader.
                    sessions.pop(query_id, None)
            elif kind == transport.MSG_QCOLLECT:
                session = sessions.pop(query_id, None)
                if session is None:
                    raise SchedulerError(
                        f"no open session for query {query_id}: QCOLLECT "
                        f"before QJOB (or after cancel/completion)"
                    )
                # Early-drain termination: a payload-free QREPLY whose
                # accounting tail closes out the query.
                transport.send_frame(
                    conn,
                    transport.MSG_QREPLY,
                    transport.encode_query_body(
                        query_id,
                        transport.encode_level_reply(
                            None,
                            0,
                            pickle.dumps(
                                (session.counters, session.stats),
                                protocol=pickle.HIGHEST_PROTOCOL,
                            ),
                        ),
                    ),
                )
            else:  # QREPLY/QERROR are coordinator-bound, never served
                raise TransportError(
                    f"unexpected query frame kind {kind:#x} in session"
                )
        except (TransportError, OSError):
            raise
        except Exception:
            import traceback

            sessions.pop(query_id, None)
            context = (
                f"shard {self.shard.shard_id} replica "
                f"{self.replica_id} ({self.shard.sharding} placement)"
            )
            transport.send_frame(
                conn,
                transport.MSG_QERROR,
                transport.encode_query_body(
                    query_id,
                    pickle.dumps(
                        f"[{context}] " + traceback.format_exc(),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    ),
                ),
            )


# ----------------------------------------------------------------------
# Local clusters (subprocess workers on loopback ports)
# ----------------------------------------------------------------------


def _cluster_worker_main(
    conn,
    graph: Hypergraph,
    shard_id: int,
    num_shards: int,
    index_backend: str,
    seed: int,
    sharding: str = "uniform",
    replica_id: int = 0,
    num_replicas: int = 1,
    chaos=None,
    announce=None,
    heartbeat_interval=None,
) -> None:
    """Subprocess entry point: build the shard server, report its port
    through the pipe, then serve until SHUTDOWN."""
    try:
        worker = ShardWorker(
            graph, shard_id, num_shards, index_backend, seed=seed,
            sharding=sharding, replica_id=replica_id,
            num_replicas=num_replicas, chaos=chaos, announce=announce,
            heartbeat_interval=heartbeat_interval,
        )
        host, port = worker.bind()
        conn.send(("ready", host, port))
        conn.close()
        worker.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - parent interrupt
        pass


def shutdown_worker(
    address: Tuple[str, int], timeout: float = 5.0
) -> bool:
    """Ask the shard worker at ``address`` to shut its server down.

    Connects, consumes the worker's HELLO and sends the QUIT frame —
    the protocol's graceful stop (``docs/WIRE_FORMAT.md`` §2.1), also
    usable against a remote ``serve-shard`` process.  Returns True when
    the exchange completed, False when the worker was already gone or
    busy past ``timeout`` (callers fall back to killing the process).
    """
    try:
        with socket.create_connection(
            tuple(address), timeout=timeout
        ) as sock:
            sock.settimeout(timeout)
            transport.recv_frame(sock)  # the worker's HELLO
            transport.send_frame(sock, transport.MSG_SHUTDOWN)
        return True
    except (TransportError, OSError):
        return False


def _start_cluster_worker(
    context,
    graph: Hypergraph,
    shard_id: int,
    num_shards: int,
    index_backend: str,
    seed: int,
    sharding: str,
    replica_id: int = 0,
    num_replicas: int = 1,
    chaos=None,
    announce=None,
    heartbeat_interval=None,
):
    """Start one loopback shard-worker subprocess; returns
    ``(process, parent_conn)`` — await its port with
    :func:`_await_worker_ready`."""
    parent_conn, child_conn = context.Pipe()
    process = context.Process(
        target=_cluster_worker_main,
        args=(
            child_conn, graph, shard_id, num_shards, index_backend, seed,
            sharding, replica_id, num_replicas, chaos, announce,
            heartbeat_interval,
        ),
        daemon=True,
    )
    process.start()
    child_conn.close()
    return process, parent_conn


def _await_worker_ready(
    parent_conn,
    shard_id: int,
    ready_timeout: float,
    process=None,
    replica_id: int = 0,
    retry: "RetryPolicy | None" = None,
) -> Tuple[str, int]:
    """Read one worker's ``("ready", host, port)`` report.

    Polls the pipe under jittered exponential backoff (seeded per
    worker identity, so schedules are reproducible) instead of one
    blocking wait: between probes a worker that already *died* —
    import error, bad placement, OOM — is detected immediately via its
    ``process`` handle rather than after the full ``ready_timeout``.
    """
    retry = READY_POLL if retry is None else retry
    rng = random.Random((shard_id << 16) ^ replica_id)
    deadline = time.monotonic() + ready_timeout
    attempt = 0
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise SchedulerError(
                f"shard worker {shard_id} did not report ready within "
                f"{ready_timeout}s"
            )
        if parent_conn.poll(min(remaining, retry.delay(attempt, rng))):
            break
        if process is not None and not process.is_alive():
            raise SchedulerError(
                f"shard worker {shard_id} (replica {replica_id}) died "
                f"before reporting ready (exit code {process.exitcode})"
            )
        attempt += 1
    message = parent_conn.recv()
    if message[0] != "ready":  # pragma: no cover - protocol misuse
        raise SchedulerError(
            f"shard worker {shard_id} sent {message!r} instead of "
            f"its address"
        )
    return message[1], message[2]


class LocalCluster:
    """Handle on a set of locally spawned shard-worker processes.

    With ``num_replicas == K`` the cluster holds ``num_shards × K``
    workers; ``processes``/``addresses`` are flat lists indexed
    ``shard_id * K + replica_id`` (so K=1 keeps the historical
    one-entry-per-shard layout).
    """

    def __init__(
        self,
        processes,
        addresses,
        index_backend,
        seed,
        graph: "Hypergraph | None" = None,
        sharding: str = "uniform",
        start_method: "str | None" = None,
        ready_timeout: float = 30.0,
        num_replicas: int = 1,
        chaos=None,
        shutdown_timeout: float = 5.0,
        announce=None,
        heartbeat_interval=None,
    ) -> None:
        self.processes = processes
        self.addresses: "List[Tuple[str, int]]" = addresses
        self.index_backend = index_backend
        self.seed = seed
        self.sharding = sharding
        self.num_replicas = num_replicas
        self.chaos = chaos
        self.shutdown_timeout = shutdown_timeout
        self.announce = announce
        self.heartbeat_interval = heartbeat_interval
        self._graph = graph
        self._start_method = start_method
        self._ready_timeout = ready_timeout

    @property
    def num_shards(self) -> int:
        return len(self.addresses) // self.num_replicas

    def _index(self, shard_id: int, replica_id: int) -> int:
        index = shard_id * self.num_replicas + replica_id
        if (
            not 0 <= replica_id < self.num_replicas
            or not 0 <= shard_id
            or index >= len(self.processes)
        ):
            raise SchedulerError(f"no shard worker {shard_id} to respawn")
        return index

    def address_of(
        self, shard_id: int, replica_id: int = 0
    ) -> Tuple[str, int]:
        return self.addresses[shard_id * self.num_replicas + replica_id]

    def kill_member(self, shard_id: int, replica_id: int = 0) -> None:
        """Hard-kill one worker process (the chaos harness's armed
        killer; also useful in tests).  Blocks until it is gone."""
        process = self.processes[shard_id * self.num_replicas + replica_id]
        if process.is_alive():
            process.terminate()
        join_or_kill(
            process, timeout=self.shutdown_timeout,
            label=f"shard {shard_id} replica {replica_id} worker",
        )

    def respawn(
        self, shard_id: int, replica_id: int = 0
    ) -> Tuple[str, int]:
        """Replace a dead worker process with a fresh one for the same
        shard slot (built with the cluster's spawn-time placement mode)
        and return its new address — the restart-with-requeue hook the
        coordinator uses on mid-job worker loss."""
        if self._graph is None:
            raise SchedulerError(
                "cluster was not built by spawn_local_cluster; "
                "cannot respawn workers"
            )
        index = self._index(shard_id, replica_id)
        old = self.processes[index]
        if old.is_alive():  # pragma: no cover - caller races the reaper
            old.terminate()
        join_or_kill(
            old, timeout=self.shutdown_timeout,
            label=f"shard {shard_id} replica {replica_id} worker",
        )
        context = (
            get_context(self._start_method)
            if self._start_method is not None
            else get_context()
        )
        process, parent_conn = _start_cluster_worker(
            context, self._graph, shard_id, self.num_shards,
            self.index_backend, self.seed, self.sharding,
            replica_id, self.num_replicas, self.chaos,
            self.announce, self.heartbeat_interval,
        )
        try:
            address = _await_worker_ready(
                parent_conn, shard_id, self._ready_timeout,
                process=process, replica_id=replica_id,
            )
        except BaseException:
            if process.is_alive():
                process.terminate()
            raise
        finally:
            parent_conn.close()
        self.processes[index] = process
        self.addresses[index] = address
        return address

    def close(self) -> None:
        """Stop the worker processes (idempotent): ask each server to
        QUIT, then join with terminate→kill escalation so a stuck
        worker is never silently leaked."""
        for process, address in zip(self.processes, self.addresses):
            if process.is_alive():
                shutdown_worker(address, timeout=self.shutdown_timeout)
        for index, process in enumerate(self.processes):
            join_or_kill(
                process, timeout=self.shutdown_timeout,
                label=f"shard worker #{index}",
            )
        self.processes = []
        self.addresses = []

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def spawn_local_cluster(
    graph: Hypergraph,
    num_shards: int,
    index_backend: "str | None" = None,
    seed: "int | None" = None,
    start_method: "str | None" = None,
    ready_timeout: float = 30.0,
    sharding: "str | None" = None,
    num_replicas: int = 1,
    chaos=None,
    announce: "Tuple[str, int] | None" = None,
    heartbeat_interval: "float | None" = None,
) -> LocalCluster:
    """Boot ``num_shards × num_replicas`` shard workers on loopback.

    Each worker builds its own :class:`~repro.hypergraph.sharding.
    StoreShard` (under the requested placement mode), binds an
    ephemeral 127.0.0.1 port and serves the framed protocol; the
    returned :class:`LocalCluster` lists the addresses to hand a
    :class:`NetShardExecutor`.  Replicas of a shard build identical
    stores — the coordinator treats them as interchangeable failover
    targets.  This is the single-machine path through the *full*
    network stack — the tests' and benchmarks' way of proving the
    multi-host story without a second host.  A ``chaos``
    :class:`~repro.parallel.chaos.FaultPlan` is pickled into every
    worker so worker-role faults (slow/dropped replies) apply there.
    """
    if num_shards < 1:
        raise SchedulerError("num_shards must be >= 1")
    if num_replicas < 1:
        raise SchedulerError("num_replicas must be >= 1")
    index_backend = resolve_index_backend(index_backend)
    sharding = resolve_sharding(sharding)
    seed = default_seed() if seed is None else seed
    context = (
        get_context(start_method)
        if start_method is not None
        else get_context()
    )
    processes = []
    parent_conns = []
    identities = []
    for shard_id in range(num_shards):
        for replica_id in range(num_replicas):
            process, parent_conn = _start_cluster_worker(
                context, graph, shard_id, num_shards, index_backend, seed,
                sharding, replica_id, num_replicas, chaos, announce,
                heartbeat_interval,
            )
            processes.append(process)
            parent_conns.append(parent_conn)
            identities.append((shard_id, replica_id))
    addresses: "List[Tuple[str, int]]" = []
    try:
        for (shard_id, replica_id), process, parent_conn in zip(
            identities, processes, parent_conns
        ):
            addresses.append(
                _await_worker_ready(
                    parent_conn, shard_id, ready_timeout,
                    process=process, replica_id=replica_id,
                )
            )
    except BaseException:
        for process in processes:
            if process.is_alive():
                process.terminate()
        raise
    finally:
        for parent_conn in parent_conns:
            parent_conn.close()
    return LocalCluster(
        processes, addresses, index_backend, seed,
        graph=graph, sharding=sharding, start_method=start_method,
        ready_timeout=ready_timeout, num_replicas=num_replicas,
        chaos=chaos, announce=announce,
        heartbeat_interval=heartbeat_interval,
    )


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


def _catchup_body(graph, stale_version: int, sharding: "str | None"):
    """Build the CATCHUP payload for a worker stuck at ``stale_version``.

    Prefers the cheap path — the contiguous suffix of committed
    :class:`MutationBatch`es the :class:`DynamicHypergraph` retains in
    its in-memory history — and falls back to shipping a snapshot of the
    whole graph when the suffix has aged out.  The snapshot path needs a
    *resolvable* sharding mode label (the worker re-cuts its shard from
    the snapshot; a ``rebalanced-*`` label carries no recipe), so when
    ``sharding`` is ``None`` and no suffix exists the caller must fall
    back to refusal.  Returns the pickled payload bytes, or ``None``
    when no catch-up route exists.
    """
    to_version = getattr(graph, "version", 0)
    batches = None
    if isinstance(graph, DynamicHypergraph):
        batches = graph.batches_since(stale_version)
    if batches is not None:
        return pickle.dumps(
            {"batches": batches, "to_version": to_version},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    if sharding is None or not isinstance(graph, DynamicHypergraph):
        return None
    return pickle.dumps(
        {"snapshot": graph, "to_version": to_version, "sharding": sharding},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _resolvable_sharding(*labels) -> "str | None":
    """First label that names a plain sharding mode, or ``None``."""
    for label in labels:
        if label in SHARDING_MODES:
            return label
    return None


def validate_handshake(
    sock,
    graph,
    *,
    index_backend: str,
    num_shards: int,
    num_replicas: int,
    seed: int,
    sharding_label: str,
    expected_shard: "int | None" = None,
    expected_replica: "int | None" = None,
    expected_sharding: "str | None" = None,
    allow_replica_growth: bool = False,
    any_sharding: bool = False,
    allow_catchup: bool = True,
) -> ShardDescriptor:
    """Receive and validate one worker's HELLO against a pool's view.

    The single handshake gate shared by every coordinator-side pool —
    :class:`NetShardExecutor` and the match service's multiplexing pool
    both call it, so a worker that one would refuse the other refuses
    identically.  ``expected_shard``/``expected_replica`` (worker
    recovery and rebalance echoes) pin the announced identity.
    ``expected_sharding`` overrides the placement label to expect — a
    freshly respawned worker announces the spawn mode even while the
    pool runs a rebalanced layout.  The admission path relaxes two
    checks: ``allow_replica_growth`` accepts a *wider* replica
    arithmetic than the pool's (an elastic K-growth — never a narrower
    one), and ``any_sharding`` defers the placement-label check to the
    caller (which REBALANCE-upgrades label mismatches instead of
    refusing them).

    A worker announcing a *stale* ``graph_version`` (it was restarting
    while MUTATE broadcasts went out, or was spawned from the seed
    graph) is no longer refused outright: when ``allow_catchup`` is on
    the gate sends a CATCHUP frame carrying the missing mutation
    batches — or a graph snapshot when the retained suffix has aged
    out — waits for the worker's CATCHUP-REPLY (a fresh handshake body
    reflecting the post-replay state), and re-validates that in full.
    Only when no catch-up route exists, or the reply is still stale,
    does the version mismatch surface as a refusal.
    """

    def _decode(body) -> "tuple[ShardDescriptor, int]":
        descriptor_dict, worker_seed = transport.decode_handshake(body)
        try:
            descriptor = ShardDescriptor.from_dict(descriptor_dict)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchedulerError(
                f"malformed handshake descriptor (missing/invalid field "
                f"{exc}): not a compatible shard server"
            ) from None
        return descriptor, worker_seed

    sharding = (
        sharding_label if expected_sharding is None else expected_sharding
    )

    def _check_contract(descriptor: ShardDescriptor, worker_seed: int):
        # Everything except graph identity: these mismatches are
        # configuration errors a catch-up replay cannot repair.
        if descriptor.index_backend != index_backend:
            raise SchedulerError(
                f"handshake backend mismatch: worker shard "
                f"{descriptor.shard_id} built {descriptor.index_backend!r}, "
                f"coordinator expects {index_backend!r}"
            )
        if descriptor.num_shards != num_shards:
            raise SchedulerError(
                f"shard arithmetic mismatch: worker believes in "
                f"{descriptor.num_shards} shards, coordinator in "
                f"{num_shards}"
            )
        if descriptor.num_replicas != num_replicas and not (
            allow_replica_growth
            and descriptor.num_replicas > num_replicas
        ):
            raise SchedulerError(
                f"replica arithmetic mismatch: worker shard "
                f"{descriptor.shard_id} believes in "
                f"{descriptor.num_replicas} replicas, coordinator in "
                f"{num_replicas}"
            )
        if not 0 <= descriptor.shard_id < num_shards:
            raise SchedulerError(
                f"worker announced shard id {descriptor.shard_id} outside "
                f"0..{num_shards - 1}"
            )
        if (
            expected_shard is not None
            and descriptor.shard_id != expected_shard
        ):
            raise SchedulerError(
                f"respawned worker announced shard id "
                f"{descriptor.shard_id}, expected {expected_shard}"
            )
        if (
            expected_replica is not None
            and descriptor.replica_id != expected_replica
        ):
            raise SchedulerError(
                f"respawned worker announced replica "
                f"{descriptor.replica_id}, expected {expected_replica}"
            )
        if not any_sharding and descriptor.sharding != sharding:
            raise SchedulerError(
                f"shard placement mismatch: worker shard "
                f"{descriptor.shard_id} was cut under "
                f"{descriptor.sharding!r}, coordinator expects "
                f"{sharding!r} — composing different placements would "
                f"double- or under-count rows"
            )
        if worker_seed != seed:
            raise SchedulerError(
                f"scheduler seed mismatch: worker shard "
                f"{descriptor.shard_id} runs REPRO_SEED={worker_seed}, "
                f"coordinator {seed} — parallel runs would not be "
                f"reproducible"
            )

    kind, body = transport.recv_frame(sock)
    if kind != transport.MSG_HELLO:
        raise SchedulerError(
            f"worker spoke {kind:#x} before HELLO; not a shard server?"
        )
    descriptor, worker_seed = _decode(body)
    _check_contract(descriptor, worker_seed)
    graph_version = getattr(graph, "version", 0)
    if allow_catchup and descriptor.graph_version < graph_version:
        payload = _catchup_body(
            graph,
            descriptor.graph_version,
            _resolvable_sharding(descriptor.sharding, sharding),
        )
        if payload is not None:
            transport.send_frame(sock, transport.MSG_CATCHUP, payload)
            kind, body = transport.recv_frame(sock)
            if kind == transport.MSG_ERROR:
                raise SchedulerError(
                    f"worker shard {descriptor.shard_id} failed "
                    f"catch-up from version {descriptor.graph_version} "
                    f"to {graph_version}:\n"
                    f"{transport.decode_pickle_body(body)}"
                )
            if kind != transport.MSG_CATCHUP_REPLY:
                raise SchedulerError(
                    f"worker shard {descriptor.shard_id} answered "
                    f"CATCHUP with frame kind {kind:#x}, expected "
                    f"CATCHUP-REPLY"
                )
            descriptor, worker_seed = _decode(body)
            _check_contract(descriptor, worker_seed)
    if descriptor.graph_version != graph_version:
        raise SchedulerError(
            f"graph version mismatch: worker shard "
            f"{descriptor.shard_id} reflects mutation version "
            f"{descriptor.graph_version}, the engine holds "
            f"{graph_version} — the worker missed a MUTATE broadcast "
            f"and no catch-up route exists (the retained batch suffix "
            f"aged out and the placement label carries no rebuild "
            f"recipe)"
        )
    if (
        descriptor.graph_edges != graph.num_edges
        or descriptor.graph_vertices != graph.num_vertices
    ):
        raise SchedulerError(
            f"data graph mismatch: worker shard {descriptor.shard_id} "
            f"was built from a graph with {descriptor.graph_edges} "
            f"edges / {descriptor.graph_vertices} vertices, the engine "
            f"holds {graph.num_edges} / "
            f"{graph.num_vertices}"
        )
    return descriptor


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
        first use — the single-machine ``--executor sockets`` path.

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
        #: Monotonic request token; bumped per LEVEL/COLLECT broadcast.
        self._token = 0
        #: The encoded frame of the in-flight LEVEL/COLLECT — what
        #: failover and speculation re-send.
        self._inflight_frame: "bytes | None" = None
        self._graph: "Hypergraph | None" = None
        #: Placement of the live pool: build-mode label until a
        #: rebalance issues a ``rebalanced-<fp>`` table.
        self._sharding_label = self.sharding
        self._range_table = None
        #: The current JOB message — replayed to restored members so a
        #: spare joining mid-job can answer the in-flight level.
        self._job_message = None
        self._level_message = None
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

    def _connect(self, address):
        """TCP connect + chaos wrap under the executor's retry policy.
        Returns a socket with the (short) connect timeout set; raises
        the last ``OSError`` when every attempt failed."""
        host, port = address
        last_exc: "OSError | None" = None
        for attempt in range(max(1, self.retry.attempts)):
            if attempt:
                time.sleep(self.retry.delay(attempt - 1, self._retry_rng))
            try:
                sock = socket.create_connection(
                    (host, port), timeout=self.connect_timeout
                )
            except OSError as exc:
                last_exc = exc
                continue
            _disable_nagle(sock)
            if self.chaos is not None:
                sock = self.chaos.wrap(sock, "coordinator")
            # The handshake runs under the (short) connect timeout: a
            # peer that accepts but never says HELLO — e.g. a busy
            # single-session server — should fail fast, not tie the
            # coordinator up for a whole job timeout.
            sock.settimeout(self.connect_timeout)
            return sock
        raise last_exc  # type: ignore[misc]

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
                    sock = self._connect((host, port))
                except OSError as exc:
                    if self.num_replicas == 1:
                        raise SchedulerError(
                            f"could not connect to shard worker at "
                            f"{host}:{port}: {exc}"
                        ) from exc
                    # K > 1: losing one replica is survivable — note it
                    # and let the zero-replica check decide at the end.
                    failures.append(f"{host}:{port}: {exc}")
                    logger.warning(
                        "could not connect to shard worker at %s:%s: %s",
                        host, port, exc,
                    )
                    continue
                try:
                    descriptor = self._handshake(sock, engine.data)
                except (TransportError, OSError) as exc:
                    try:
                        sock.close()
                    except OSError:
                        pass
                    if self.num_replicas == 1:
                        raise SchedulerError(
                            f"shard worker at {host}:{port} failed the "
                            f"handshake: {exc}"
                        ) from None
                    failures.append(f"{host}:{port}: {exc}")
                    logger.warning(
                        "shard worker at %s:%s failed the handshake: %s",
                        host, port, exc,
                    )
                    continue
                sock.settimeout(self.io_timeout)
                if self.chaos is not None:
                    sock.bind_endpoint(
                        descriptor.shard_id, descriptor.replica_id
                    )
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

    def _handshake(
        self,
        sock,
        graph,
        expected_shard: "int | None" = None,
        expected_replica: "int | None" = None,
        expected_sharding: "str | None" = None,
        allow_replica_growth: bool = False,
        any_sharding: bool = False,
    ) -> ShardDescriptor:
        """Validate one worker's HELLO; returns its shard descriptor.

        A thin binding of the shared :func:`validate_handshake` gate to
        this executor's view (backend, arithmetic, seed, placement
        label) — see that function for the check-by-check contract.
        """
        return validate_handshake(
            sock,
            graph,
            index_backend=self.index_backend,
            num_shards=self.num_shards,
            num_replicas=self.num_replicas,
            seed=self.seed,
            sharding_label=self._sharding_label,
            expected_shard=expected_shard,
            expected_replica=expected_replica,
            expected_sharding=expected_sharding,
            allow_replica_growth=allow_replica_growth,
            any_sharding=any_sharding,
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
        if self._job_message is None:
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
            sock = self._connect(address)
            self._handshake(
                sock,
                self._graph,
                expected_shard=shard_id,
                expected_replica=replica_id,
                expected_sharding=self._cluster.sharding,
            )
            if self._sharding_label != self._cluster.sharding:
                # The pool runs a rebalanced layout; bring the fresh
                # worker onto it before replaying any work.
                transport.send_pickle_frame(
                    sock,
                    transport.MSG_REBALANCE,
                    (
                        self._sharding_label,
                        range_table_slices(
                            self._range_table, self.num_shards
                        )[shard_id],
                    ),
                )
                self._handshake(
                    sock, self._graph,
                    expected_shard=shard_id, expected_replica=replica_id,
                )
            sock.settimeout(self.io_timeout)
            if self.chaos is not None:
                sock.bind_endpoint(shard_id, replica_id)
            transport.send_frame(
                sock,
                transport.MSG_JOB,
                pickle.dumps(
                    self._job_message[1:], protocol=pickle.HIGHEST_PROTOCOL
                ),
            )
        except (SchedulerError, TransportError, OSError):
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
        kind_map = {
            "job": transport.MSG_JOB,
            "level": transport.MSG_LEVEL,
            "collect": transport.MSG_COLLECT,
        }
        kind = kind_map[message[0]]
        # Remember the protocol position *before* any byte moves: a
        # worker recovered mid-gather is replayed the current job (and
        # re-dispatched the in-flight request), so the caches must
        # already reflect this broadcast.
        if kind == transport.MSG_JOB:
            self._job_message = message
            self._level_message = None
        elif kind == transport.MSG_LEVEL:
            self._level_message = message
        body = (
            b""
            if kind == transport.MSG_COLLECT
            else pickle.dumps(
                message[1:], protocol=pickle.HIGHEST_PROTOCOL
            )
        )
        frame = transport.encode_frame(kind, body)
        if kind == transport.MSG_JOB:
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
        # LEVEL / COLLECT: one live replica per shard answers; failover
        # and speculation may re-send the same frame to others.
        self._token += 1
        self._inflight_frame = frame
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
        if kind == transport.MSG_ERROR:
            # Enumeration errors are deterministic in (plan, frontier,
            # shard) — every replica would fail identically, so this is
            # not a failover case.
            message = transport.decode_pickle_body(body)
            self.close()
            raise SchedulerError(
                f"shard worker {shard_id} failed (replica "
                f"{member.replica_id}, {self._sharding_label} placement):"
                f"\n{message}"
            )
        try:
            if kind == transport.MSG_LEVEL_REPLY:
                payloads, embeddings, accounting = (
                    transport.decode_level_reply(body)
                )
                if payloads is not None:
                    payloads = [
                        None if payload is None
                        else decode_versioned(payload)
                        for payload in payloads
                    ]
                reply = ("level", payloads, embeddings)
                if accounting is not None:
                    reply = reply + pickle.loads(accounting)
            elif kind == transport.MSG_ACCOUNTING:
                reply = transport.decode_pickle_body(body)
            else:
                raise TransportError(
                    f"unexpected reply kind {kind:#x}"
                )
        except (TransportError, ValueError, pickle.PickleError) as exc:
            self.close()
            raise SchedulerError(
                f"shard worker {shard_id} (replica {member.replica_id}) "
                f"sent an undecodable reply: {exc}"
            ) from None
        return reply

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
            readable: "List[_Member]" = []
            seen = set()
            for replica_set in self._members:
                for _replica_id, candidate in replica_set.members():
                    if candidate.inflight and id(candidate) not in seen:
                        seen.add(id(candidate))
                        readable.append(candidate)
            if not readable:
                self._fail_shard(
                    sorted(pending)[0], "no live replica left to wait on"
                )
            timeout = self._select_timeout(pending, now)
            selector = selectors.DefaultSelector()
            try:
                for candidate in readable:
                    selector.register(
                        candidate.sock, selectors.EVENT_READ, candidate
                    )
                events = selector.select(timeout=timeout)
            finally:
                selector.close()
            for key, _mask in events:
                member: _Member = key.data
                if (
                    self._members[member.shard_id].get(member.replica_id)
                    is not member
                ):
                    continue  # dropped earlier in this event batch
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

        The socket twin of :meth:`repro.parallel.shard_executor.
        ProcessShardExecutor.rebalance` — one shared planner
        (:func:`repro.parallel.level_sync.plan_pool_rebalance`), two
        transports.  *Every* live replica of every shard receives its
        range's slice of the recut table in a REBALANCE frame (a worker
        whose ranges didn't move merely adopts the new placement label
        and keeps its warm indices — the whole pool must agree on one
        label or the next session handshake would refuse the laggards),
        and each answers with a fresh HELLO that must echo the new
        label.  Works against local clusters and remote ``serve-shard``
        workers alike (the frame is part of the wire protocol); runs
        strictly between jobs.  Returns the number of shards whose
        ranges moved.
        """
        if not self._members or self._graph is None:
            raise SchedulerError(
                "no live pool to rebalance; run a job first"
            )
        plan = plan_pool_rebalance(self, worker_stats)
        if plan is None:
            return 0
        table, label, slices, moved = plan
        self._apply_rebalance(table, label, slices)
        return len(moved)

    # -- mutation --------------------------------------------------------

    def mutate(self, engine, batch, result) -> int:
        """Propagate one committed mutation batch to the live pool.

        The socket twin of :meth:`repro.parallel.shard_executor.
        ProcessShardExecutor.mutate`: *every* live replica of every
        active shard receives the batch in a MUTATE frame (§2.9),
        applies it to its own graph copy and shard, and acks with a
        DELTA frame carrying its post-mutation graph state.
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
        self._job_message = None
        self._level_message = None
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
            sock = self._connect(address)
        except OSError as exc:
            raise SchedulerError(
                f"could not connect to shard worker at "
                f"{address[0]}:{address[1]}: {exc}"
            ) from exc
        try:
            try:
                descriptor = self._handshake(
                    sock, self._graph,
                    allow_replica_growth=True, any_sharding=True,
                )
            except (TransportError, OSError) as exc:
                raise SchedulerError(
                    f"worker at {address[0]}:{address[1]} failed the "
                    f"admission handshake: {exc}"
                ) from None
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
                    transport.send_pickle_frame(
                        sock,
                        transport.MSG_REBALANCE,
                        (
                            self._sharding_label,
                            range_table_slices(
                                self._range_table, self.num_shards
                            )[shard_id],
                        ),
                    )
                    descriptor = self._handshake(
                        sock, self._graph,
                        expected_shard=shard_id,
                        expected_replica=replica_id,
                        allow_replica_growth=True,
                    )
                except (TransportError, OSError) as exc:
                    raise SchedulerError(
                        f"newcomer for shard {shard_id} failed the "
                        f"rebalance upgrade: {exc}"
                    ) from None
            sock.settimeout(self.io_timeout)
            if self.chaos is not None:
                sock.bind_endpoint(shard_id, replica_id)
            if self._job_message is not None:
                # Mid-job admission: replay the JOB so the newcomer can
                # answer a re-dispatched (or speculative) LEVEL.
                try:
                    transport.send_frame(
                        sock,
                        transport.MSG_JOB,
                        pickle.dumps(
                            self._job_message[1:],
                            protocol=pickle.HIGHEST_PROTOCOL,
                        ),
                    )
                except (TransportError, OSError) as exc:
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
        stream: bool = True,
    ) -> ParallelResult:
        """Execute one matching job across the socket shard pool.

        The identical level-synchronous protocol as the multiprocess
        executor (one shared implementation,
        :func:`repro.parallel.level_sync.run_level_synchronous`), so
        counts are bit-identical to it and to the sequential engine —
        including under failover and speculation, which replace *who*
        answers a level but never *what* the answer is.
        ``stream=False`` forces the barrier gather (the benchmarks'
        baseline for the streaming-compose comparison).
        """
        from .level_sync import run_level_synchronous  # lazy: avoid cycle

        try:
            return run_level_synchronous(
                self, engine, query, order=order, time_budget=time_budget,
                stream=stream,
            )
        finally:
            # The recovery caches only matter while a gather is in
            # flight; dropping them here releases the last level's
            # frontier (the job's largest allocation) on executors that
            # stay warm between queries.
            self._job_message = None
            self._level_message = None
            self._inflight_frame = None
            self._watchers = {}

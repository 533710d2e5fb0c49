"""The shard worker: a TCP server that owns one store shard.

:class:`ShardWorker` builds and owns one
:class:`~repro.hypergraph.sharding.StoreShard` and answers both job
shapes over framed messages (:mod:`repro.parallel.transport`): the
level-synchronous protocol against that shard, and subtree requests —
a whole block-DFS below a slice of the root candidates — against a
store of the whole graph, which every worker holds a copy of anyway.  Run it on any host that can load
the data hypergraph (``python -m repro serve-shard`` is the CLI
wrapper); :func:`~repro.parallel.cluster.spawn_local_cluster` runs a
set of them as local subprocesses.  It is the only place a shard
expands a frontier or runs a subtree, and it has one peer: a
:class:`~repro.parallel.pool.ShardPool` — a solo
``executor="processes"`` / ``"sockets"`` job and the match service's
many queries are :class:`~repro.parallel.pool.QueryChannel` objects on
one, speaking the same query-tagged job frames.

What crosses the wire is the frontier of self-contained partial
embeddings inbound, and compact
:class:`~repro.core.candidates.CandidateSet` payloads (row bitmasks /
chunk maps / edge-id tuples, each prefixed with the candidate wire
version byte) outbound — never decoded edge-id lists for the mask
backends.  ``docs/WIRE_FORMAT.md`` specifies every byte.
"""

from __future__ import annotations

import os
import pickle
import random
import socket
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.candidates import (
    AnchorUnionMemo,
    VertexStepState,
    encode_versioned,
)
from ..core.counters import WORK_UNIT_MODELS, MatchCounters
from ..core.engine import HGMatch
from ..core.plan import build_execution_plan
from ..errors import SchedulerError, TransportError
from ..hypergraph import Hypergraph, PartitionedStore
from ..hypergraph.dynamic import apply_batch
from ..hypergraph.sharding import StoreShard, resolve_sharding
from ..hypergraph.storage import resolve_index_backend
from . import transport
from .level_sync import expand_level
from .tasks import WorkerStats, default_seed

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


def disable_nagle(sock) -> None:
    """Request/response protocols want small frames out *now*: Nagle
    coalescing only adds latency to the level barrier."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):  # pragma: no cover - non-TCP peer
        pass


@dataclass
class _QuerySession:
    """One query's worker-side state (WIRE_FORMAT.md §2.5) — held per
    query id so one connection can interleave many jobs, and droppable
    as a unit on CANCEL / completion / per-query error."""

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
    query-tagged JOB / LEVEL / COLLECT frames — any number of queries
    interleaved on the connection, each with its own session state —
    and stateless SUBTREE requests, until the peer sends STOP (end the
    session) or SHUTDOWN (stop the server).  One connection at a time is the right concurrency: the
    shard's store is single-writer state, and a coordinator that wants
    many queries in flight multiplexes them over its one connection.

    Replicas of the same range differ *only* in ``replica_id``: the
    shard they build is byte-for-byte the same pure function of the
    placement, which is the whole failover argument.

    A subtree request runs against a store of the *whole* graph, and
    every worker can have one: its own shard when that is the 1-of-1
    shard; ``store``, when the spawner hands over one it had already
    built over the very ``graph`` object (a hostless pool's engine,
    through ``fork`` — no copy, no build); otherwise one built on the
    first subtree request.  MUTATE and CATCHUP keep it in step with the
    shard through the same :func:`~repro.hypergraph.dynamic.apply_batch`
    call (a snapshot catch-up drops it for a lazy rebuild).

    The server never trusts the stream: malformed frames raise
    :class:`~repro.errors.TransportError` and end the session (the
    server keeps accepting).  A failure inside one query's work is
    reported as a QERROR frame tagged with that query and ends only
    that query; a failed REBALANCE / MUTATE / CATCHUP is reported as an
    ERROR frame and ends the session.  Both carry the traceback
    prefixed with the failing shard id, replica id and range label, so
    a multi-host failure is attributable from the coordinator's side
    alone.
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
        store: "PartitionedStore | None" = None,
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
        self._memo = AnchorUnionMemo()
        if store is not None and (
            store.graph is not graph
            or store.index_backend != self.index_backend
            or store.num_shards != 1
        ):
            store = None  # not the whole of this graph under this backend
        self._whole = store
        #: The engine subtree requests run on; dropped (with its anchor
        #: memo) whenever the graph or the store under it changes.
        self._engine: "HGMatch | None" = None
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
        disable_nagle(conn)
        try:
            transport.send_frame(conn, transport.MSG_HELLO, self._hello_body())
        except (TransportError, OSError):
            return True  # peer vanished before the handshake; next session
        # Open jobs, keyed by query id.  The state is per *connection*:
        # a coordinator that reconnects after a failure replays every
        # JOB it still runs, so dropping the dict with the connection
        # never strands a query.
        sessions: "Dict[int, _QuerySession]" = {}
        while True:
            try:
                kind, body = transport.recv_frame(conn)
            except TransportError:
                # Peer gone or stream garbled; the session is over either
                # way, and the server stays up for the next coordinator.
                return True
            try:
                if kind in transport.QUERY_KINDS:
                    self._serve_query_frame(conn, kind, body, sessions)
                elif kind == transport.MSG_REBALANCE:
                    label, ranges = transport.decode_pickle_body(body)
                    if ranges == self.shard.ranges():
                        # Boundaries didn't touch this shard: adopt the
                        # new placement label, keep the warm indices.
                        self.shard.sharding = label
                    else:
                        self.shard = StoreShard(
                            self.shard.graph,
                            self.shard.shard_id,
                            self.shard.num_shards,
                            self.index_backend,
                            ranges,
                            sharding=label,
                        )
                        # Cached anchor unions are masks over the old
                        # shard's rows; clearing is mandatory.
                        self._invalidate()
                    # Answer with a fresh HELLO: the descriptor now
                    # echoes the coordinator-issued label, which is how
                    # the peer verifies the rebuild took effect.
                    transport.send_frame(
                        conn, transport.MSG_HELLO, self._hello_body()
                    )
                elif kind == transport.MSG_MUTATE:
                    batch = transport.decode_pickle_body(body)
                    graph, result = self._apply(batch)
                    # Cached anchor unions cover pre-mutation rows —
                    # clearing is mandatory — and every open query
                    # session is pre-mutation state: drop them all (the
                    # coordinator fences queries before mutating, so
                    # nothing live is stranded).
                    self._invalidate()
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
                        self.shard = StoreShard.build(
                            payload["snapshot"],
                            self.shard.shard_id,
                            self.shard.num_shards,
                            self.index_backend,
                            resolve_sharding(payload["sharding"]),
                        )
                        self._whole = None  # of the old graph: rebuilt lazily
                    else:
                        for version, batch in payload["batches"]:
                            have = self.shard.graph.version
                            if version != have + 1:
                                raise SchedulerError(
                                    f"catch-up replay gap: batch for "
                                    f"version {version} but the shard "
                                    f"holds {have}"
                                )
                            self._apply(batch)
                    have = self.shard.graph.version
                    if have != payload["to_version"]:
                        raise SchedulerError(
                            f"catch-up fell short: replayed to version "
                            f"{have}, coordinator expects "
                            f"{payload['to_version']}"
                        )
                    # Same invalidation as MUTATE: memoised anchor
                    # unions and open sessions cover pre-catch-up rows.
                    self._invalidate()
                    sessions.clear()
                    # Answer with a fresh handshake body: the gate
                    # re-validates the post-replay descriptor in full.
                    transport.send_frame(
                        conn,
                        transport.MSG_CATCHUP_REPLY,
                        self._hello_body(),
                    )
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
                try:
                    transport.send_pickle_frame(
                        conn, transport.MSG_ERROR, self._describe_failure()
                    )
                except (TransportError, OSError):  # pragma: no cover
                    pass
                return True

    def _apply(self, batch):
        """One committed batch onto the graph, the shard and — when
        this worker holds one — the whole store, in one
        :func:`~repro.hypergraph.dynamic.apply_batch`."""
        more = () if self._whole is None else (self._whole,)
        return apply_batch(self.shard.graph, self.shard, batch, *more)

    def _invalidate(self) -> None:
        """Forget what was derived from the rows as they were: the
        anchor-union memo and the subtree engine (which has its own)."""
        self._memo.clear()
        self._engine = None

    def _subtree_engine(self) -> HGMatch:
        """The engine over the whole graph that subtree requests run
        on (see the class docstring for where its store comes from)."""
        if self._engine is None:
            store = self.shard
            if store.num_shards != 1:
                if self._whole is None:
                    self._whole = PartitionedStore(
                        store.graph, index_backend=self.index_backend
                    )
                store = self._whole
            self._engine = HGMatch(store.graph, store=store)
        return self._engine

    def _describe_failure(self) -> str:
        """The in-flight exception's traceback, prefixed with the
        failing shard id, replica id and placement label."""
        return (
            f"[shard {self.shard.shard_id} replica {self.replica_id} "
            f"({self.shard.sharding} placement)] " + traceback.format_exc()
        )

    def _open_session(self, plan=None) -> _QuerySession:
        counters = MatchCounters()
        counters.note_work_model(WORK_UNIT_MODELS.get(self.index_backend, ""))
        return _QuerySession(
            plan,
            VertexStepState(self.shard.graph),
            counters,
            WorkerStats(worker_id=self.shard.shard_id),
        )

    def _check_version(self, job_version: int) -> None:
        """The coordinator stamps the graph version its job assumes
        (§2.9); composing rows — or adding up subtree counts — across
        versions would silently mis-count, so a stale worker fails the
        query."""
        have = self.shard.graph.version
        if job_version != have:
            raise SchedulerError(
                f"query assumes graph version {job_version}, "
                f"worker holds {have} (missed MUTATE?)"
            )

    def _run_subtree(self, body: bytes) -> "Tuple[_QuerySession, int]":
        """One subtree request: plan the query, run the block-DFS below
        this part's slice of the root candidates, count.  ``budget``
        (seconds, or None) bounds how long a query nobody waits for any
        more — expired, cancelled — can occupy this worker."""
        part, parts, query, order, job_version, budget = (
            transport.decode_subtree_body(body)
        )
        self._check_version(job_version)
        session = self._open_session()
        stats = session.stats
        started, started_cpu = time.perf_counter(), time.thread_time()
        embeddings = self._subtree_engine().count_part(
            query, order, part, parts, session.counters, budget
        )
        stats.busy_time = time.perf_counter() - started
        stats.cpu_time = time.thread_time() - started_cpu
        stats.tasks_executed = session.counters.tasks
        stats.embeddings = embeddings
        return session, embeddings

    def _serve_query_frame(
        self, conn, kind: int, body: bytes,
        sessions: "Dict[int, _QuerySession]",
    ) -> None:
        """Serve one job-family frame (WIRE_FORMAT.md §2.5) of a session.

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
            if kind == transport.MSG_JOB:
                query, order, job_version = transport.decode_pickle_body(rest)
                self._check_version(job_version)
                # A JOB for an already-open id is a coordinator replay
                # (reconnect after a failure) or the next job of a solo
                # coordinator: either way the query starts over.
                sessions[query_id] = self._open_session(
                    build_execution_plan(
                        query, order, index_backend=self.index_backend
                    )
                )
                return
            session = sessions.get(query_id)
            if kind == transport.MSG_SUBTREE:
                # Self-contained: no session is read or left behind,
                # and the one reply carries count and accounting.
                session, embeddings = self._run_subtree(rest)
                payloads, closing = None, True
            elif kind == transport.MSG_LEVEL:
                if session is None:
                    raise SchedulerError(
                        f"no open session for query {query_id}: LEVEL "
                        f"before JOB (or after cancel/completion)"
                    )
                step, frontier = transport.decode_pickle_body(rest)
                _, payloads, embeddings = expand_level(
                    self.shard.graph, self.shard, session.plan, step, frontier,
                    session.state, session.counters, session.stats,
                    self._memo,
                )
                if payloads is not None:
                    payloads = [
                        None if payload is None else encode_versioned(payload)
                        for payload in payloads
                    ]
                    # The version bytes ship too; account them.
                    session.stats.payload_bytes += sum(
                        payload is not None for payload in payloads
                    )
                # The final level closes the query out: its reply
                # piggybacks the accounting, saving a COLLECT round trip.
                closing = step == session.plan.num_steps - 1
            elif kind == transport.MSG_COLLECT:
                if session is None:
                    if query_id != transport.SOLO_QUERY_ID:
                        raise SchedulerError(
                            f"no open session for query {query_id}: "
                            f"COLLECT before JOB (or after "
                            f"cancel/completion)"
                        )
                    session = self._open_session()  # the liveness probe
                # Early-drain termination: a payload-free REPLY whose
                # accounting tail closes the query out.
                payloads, embeddings, closing = None, 0, True
            else:  # REPLY/QERROR are coordinator-bound, never served
                raise TransportError(
                    f"unexpected query frame kind {kind:#x} in session"
                )
            accounting = None
            if closing:
                accounting = pickle.dumps(
                    (session.counters, session.stats),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            transport.send_frame(
                conn,
                transport.MSG_LEVEL_REPLY,
                transport.encode_query_body(
                    query_id,
                    transport.encode_level_reply(
                        payloads, embeddings, accounting
                    ),
                ),
            )
            if closing:
                # Answered in full; the state has no further reader.
                sessions.pop(query_id, None)
        except (TransportError, OSError):
            raise
        except Exception:
            sessions.pop(query_id, None)
            transport.send_frame(
                conn,
                transport.MSG_QERROR,
                transport.encode_query_body(
                    query_id,
                    pickle.dumps(
                        self._describe_failure(),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    ),
                ),
            )


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


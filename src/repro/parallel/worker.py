"""The pool member: a TCP server over a store of the whole graph.

:class:`ShardWorker` owns one :class:`~repro.hypergraph.storage.
PartitionedStore` of the data graph and answers subtree requests over
framed messages (:mod:`repro.parallel.transport`): each one a whole
block-DFS below a slice of a query's root candidates, answered with its
count.  Run it on any host that can load the data hypergraph (``python
-m repro serve-shard`` is the CLI wrapper);
:func:`~repro.parallel.cluster.spawn_local_cluster` runs a set of them
as local subprocesses.  It has one peer: a
:class:`~repro.parallel.pool.ShardPool` — a solo
``executor="processes"`` job and the match service's
many queries are :class:`~repro.parallel.pool.QueryChannel` objects on
one, speaking the same query-tagged frames.  For the whole of a session
the worker also sends that peer a HEARTBEAT every
:data:`HEARTBEAT_INTERVAL`, which is how the pool tells a slow member
from a silent one.  The heartbeat's contract — the interval, the
:data:`MISS_BUDGET` and the :data:`SILENCE_BUDGET` they make — is
defined here once; the coordinator bounds every wait on a worker by
it, the handshake's included.  ``docs/WIRE_FORMAT.md`` specifies every
byte.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Mapping, Tuple

from ..core.counters import MatchCounters
from ..core.engine import HGMatch
from ..core.plan import ExecutionPlan
from ..errors import SchedulerError, TransportError
from ..hypergraph import Hypergraph, PartitionedStore
from ..hypergraph.dynamic import apply_batch
from ..hypergraph.storage import resolve_index_backend
from . import transport
from .tasks import WorkerStats

#: Seconds between the HEARTBEAT frames a worker sends on its data
#: connection, from its HELLO to the end of the session.
HEARTBEAT_INTERVAL = 0.1

#: Heartbeat intervals a worker may stay silent before its coordinator
#: gives up on it: one late tick must not drop a member, three in a row
#: mean it is dead or wedged.
MISS_BUDGET = 3

#: The silence rule in seconds: the longest a coordinator waits for any
#: frame from a worker — its HELLO and CATCHUP-REPLY included — before
#: it fails the worker (the pool's pump, the handshake gate).
SILENCE_BUDGET = MISS_BUDGET * HEARTBEAT_INTERVAL


def disable_nagle(sock) -> None:
    """Request/response protocols want small frames out *now*: Nagle
    coalescing only adds latency to every reply."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):  # pragma: no cover - non-TCP peer
        pass


@dataclass(frozen=True)
class ShardDescriptor:
    """What a pool member announces: its name and what a coordinator
    must agree on before adding up its counts.

    The name is ``shard_id`` — the slot a spawner or a supervisor knows
    the worker by; any two members are interchangeable
    (each holds the whole graph), so the name never changes what a
    member computes.  ``index_backend`` must match (the coordinator's
    plans are built for it), and ``graph_edges`` / ``graph_vertices``
    / ``graph_version`` fingerprint the data graph: a worker of another
    graph would count silently wrong, and one that missed a commit is
    caught up or refused.  All fields are plain ints/str so the
    descriptor crosses any serialisation boundary.
    """

    shard_id: int
    index_backend: str
    graph_edges: int
    graph_vertices: int
    graph_version: int = 0

    @classmethod
    def of(cls, store, shard_id: int = 0):
        """The descriptor of member ``shard_id`` serving ``store``."""
        graph = store.graph
        return cls(
            shard_id=shard_id,
            index_backend=store.index_backend,
            graph_edges=graph.num_edges,
            graph_vertices=graph.num_vertices,
            graph_version=graph.version,
        )

    def as_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "index_backend": self.index_backend,
            "graph_edges": self.graph_edges,
            "graph_vertices": self.graph_vertices,
            "graph_version": self.graph_version,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ShardDescriptor":
        return cls(**{key: payload[key] for key in (
            "shard_id", "index_backend", "graph_edges",
            "graph_vertices", "graph_version",
        )})


class ShardWorker:
    """A TCP server owning one store of the whole data graph.

    The store is ``store`` when the spawner hands over one it had
    already built over the very ``graph`` object under this backend (a
    hostless pool's engine, through ``fork`` — no copy, no build), else
    one built here at construction (the offline stage).  Sessions are
    served sequentially: each accepted connection gets a HELLO carrying
    the worker's :class:`ShardDescriptor`, then any
    number of SUBTREE requests — many queries interleaved on the
    connection, each request self-contained — plus CATCHUP (a stale
    handshake's, or a commit's).  A session is its connection: it ends
    when the peer closes it (EOF or reset), on SHUTDOWN (which also
    stops the server), or when a heartbeat cannot be sent; the session
    socket has no read timeout, so an idle coordinator keeps its
    session however long it idles.  One connection at a time is the
    right concurrency: the store is single-writer state, and a
    coordinator that wants many queries in flight multiplexes them over
    its one connection.

    ``shard_id`` is the worker's *name* — its slot in a spawner's or
    supervisor's book-keeping; every member computes the same answers.
    From its HELLO to the end of a session the worker heartbeats its
    peer (:data:`HEARTBEAT_INTERVAL`) from one small thread; a heartbeat
    that cannot be sent shuts the connection down, which ends the
    session's read too.

    The server never trusts the stream: malformed frames (an unknown
    kind included) raise :class:`~repro.errors.TransportError` and end
    the session (the server keeps accepting).  A failure inside one
    query's work is reported as a QERROR frame tagged with that query
    and ends only that query; a failed CATCHUP is reported as an ERROR
    frame and ends the session.  Both carry the traceback
    prefixed with the worker's name, so a multi-host failure is
    attributable from the coordinator's side alone.
    """

    def __init__(
        self,
        graph: Hypergraph,
        shard_id: int = 0,
        index_backend: "str | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        chaos=None,
        store: "PartitionedStore | None" = None,
    ) -> None:
        if shard_id < 0:
            raise SchedulerError(
                f"worker name (shard {shard_id}) must be non-negative"
            )
        self.index_backend = resolve_index_backend(index_backend)
        self.shard_id = shard_id
        self.chaos = chaos
        if store is None or (
            store.graph is not graph
            or store.index_backend != self.index_backend
            or store.num_shards != 1
        ):
            store = PartitionedStore(graph, index_backend=self.index_backend)
        self.store = store
        #: The engine subtree requests run on; dropped (with its anchor
        #: memo) whenever the graph or the store under it changes.
        self._engine: "HGMatch | None" = None
        self._listener: "socket.socket | None" = None
        self._host = host
        self._port = port

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
        return self._host, self._port

    def describe(self) -> ShardDescriptor:
        """What this worker's HELLO carries."""
        return ShardDescriptor.of(self.store, self.shard_id)

    @property
    def address(self) -> Tuple[str, int]:
        return self._host, self._port

    def close(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - best effort
                pass
            self._listener = None

    # -- serving --------------------------------------------------------

    def _hello_body(self) -> bytes:
        """The HELLO payload: this worker's descriptor."""
        return transport.encode_handshake(self.describe().as_dict())

    def serve_forever(self, max_sessions: "int | None" = None) -> None:
        """Accept and serve sessions until SHUTDOWN, until :meth:`close`
        (from any thread), or until ``max_sessions`` sessions have
        ended — a testing/CLI convenience."""
        self.bind()
        # A local: close() clears the attribute from another thread,
        # and a closed listener means shutdown, not a crash.
        listener = self._listener
        sessions = 0
        try:
            while max_sessions is None or sessions < max_sessions:
                try:
                    conn, _peer = listener.accept()
                except OSError:  # listener closed under us
                    return
                try:
                    keep_serving = self._serve_session(conn)
                finally:
                    transport.close_quietly(conn)
                sessions += 1
                if not keep_serving or self._listener is not listener:
                    return
        finally:
            self.close()

    def _serve_session(self, conn) -> bool:
        """Serve one coordinator connection; False means SHUTDOWN.

        Replies and heartbeats share one send lock, which sits beneath
        the chaos wrapper: the wrapper counts this session's replies
        (HELLO is frame 1) and applies any worker-role faults, while
        the heartbeats go to the locked socket, neither counted nor
        faulted — a delayed or dropped reply is never a silent worker.
        """
        raw = _SendLocked(conn)
        disable_nagle(raw)
        conn = raw
        if self.chaos is not None:
            conn = self.chaos.wrap(raw, "worker", self.shard_id)
        try:
            transport.send_frame(conn, transport.MSG_HELLO, self._hello_body())
        except (TransportError, OSError):
            return True  # peer vanished before the handshake; next session
        stopped = threading.Event()
        beat = threading.Thread(
            target=_heartbeat, args=(raw, stopped),
            name=f"shard-{self.shard_id}-heartbeat", daemon=True,
        )
        beat.start()
        try:
            return self._serve_requests(conn)
        finally:
            stopped.set()
            # A heartbeat blocked on a peer that stopped reading would
            # hold the join forever; the session is over, so end its
            # connection first.
            try:
                raw.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            beat.join()

    def _serve_requests(self, conn) -> bool:
        """The session's request loop, after HELLO; False means
        SHUTDOWN."""
        while True:
            try:
                kind, body = transport.recv_frame(conn)
            except TransportError:
                # Peer gone (it closed the connection, or the heartbeat
                # thread shut it down) or stream garbled (an unknown
                # kind included); the session is over either way, and
                # the server stays up for the next coordinator.
                return True
            try:
                if kind == transport.MSG_SUBTREE:
                    self._serve_subtree(conn, body)
                elif kind == transport.MSG_CATCHUP:
                    self._catch_up(transport.decode_pickle_body(body))
                    # Answer with a fresh handshake body: the gate
                    # re-validates the post-replay descriptor in full
                    # (the pool's pump consumes a commit's).
                    transport.send_frame(
                        conn,
                        transport.MSG_CATCHUP_REPLY,
                        self._hello_body(),
                    )
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

    def _apply(self, batch) -> None:
        """One committed batch onto the store (and its graph), through
        :func:`~repro.hypergraph.dynamic.apply_batch`.  The subtree
        engine's anchor-union memo covers the old rows: it goes too."""
        apply_batch(self.store, batch)
        self._engine = None

    def _catch_up(self, payload: Mapping) -> None:
        """Replay a CATCHUP payload (§2.9-2.10): the batches this worker
        missed, in order, or a snapshot of the whole graph, from which
        the store is rebuilt — then check the result against the
        coordinator's version, edge and vertex counts: a worker that
        diverged says so here, in an ERROR, rather than count wrong."""
        if "snapshot" in payload:
            self.store = PartitionedStore(
                payload["snapshot"], index_backend=self.index_backend
            )
            self._engine = None
        else:
            for version, batch in payload["batches"]:
                have = self.store.graph.version
                if version != have + 1:
                    raise SchedulerError(
                        f"catch-up replay gap: batch for version "
                        f"{version} but the worker holds {have}"
                    )
                self._apply(batch)
        graph = self.store.graph
        have = (graph.version, graph.num_edges, graph.num_vertices)
        want = (
            payload["to_version"],
            payload["graph_edges"],
            payload["graph_vertices"],
        )
        if have != want:
            raise SchedulerError(
                f"catch-up diverged: the worker holds (version, edges, "
                f"vertices) {have}, the coordinator {want}"
            )

    def _subtree_engine(self) -> HGMatch:
        """The engine over the store that subtree requests run on."""
        if self._engine is None:
            self._engine = HGMatch(self.store.graph, store=self.store)
        return self._engine

    def _describe_failure(self) -> str:
        """The in-flight exception's traceback, prefixed with the
        worker's name."""
        return f"[shard {self.shard_id}] " + traceback.format_exc()

    def _run_subtree(self, body: bytes):
        """One subtree request: run the coordinator's plan — no planning
        here — below this part's slice of the root candidates, count.
        ``budget`` (seconds, or None) bounds how long a query nobody
        waits for any more — expired, cancelled — can occupy this
        worker.  The Fig. 9 funnel is computed only when the request's
        ``funnel`` bit asks for it; otherwise ``counters`` is None and
        ``stats.tasks_executed`` stays 0.  A job this worker cannot
        run as sent — no plan, a plan of another backend, a funnel bit
        that is not a bool, another graph version — fails its query.
        Returns ``(embeddings, counters, stats)``."""
        part, parts, plan, job_version, budget, funnel = (
            transport.decode_subtree_body(body)
        )
        if not isinstance(plan, ExecutionPlan):
            raise SchedulerError(
                f"subtree job's plan is of type {type(plan).__name__}, "
                f"not ExecutionPlan"
            )
        if plan.index_backend != self.index_backend:
            raise SchedulerError(
                f"plan was built for the {plan.index_backend!r} backend, "
                f"worker serves {self.index_backend!r}"
            )
        if not isinstance(funnel, bool):
            raise SchedulerError(
                f"subtree job's funnel bit is of type "
                f"{type(funnel).__name__}, not bool"
            )
        # The coordinator stamps the graph version the query assumes
        # (§2.9); adding up counts across versions would silently
        # mis-count, so a stale worker fails the query.
        have = self.store.graph.version
        if job_version != have:
            raise SchedulerError(
                f"query assumes graph version {job_version}, "
                f"worker holds {have} (missed a commit?)"
            )
        counters = MatchCounters() if funnel else None
        stats = WorkerStats(worker_id=self.shard_id)
        started, started_cpu = time.perf_counter(), time.thread_time()
        embeddings = self._subtree_engine()._count_plan(
            plan, part, parts, counters, budget
        )
        stats.busy_time = time.perf_counter() - started
        stats.cpu_time = time.thread_time() - started_cpu
        if counters is not None:
            stats.tasks_executed = counters.tasks
        stats.embeddings = embeddings
        return embeddings, counters, stats

    def _serve_subtree(self, conn, body: bytes) -> None:
        """Answer one SUBTREE frame (WIRE_FORMAT.md §2.5) with one REPLY.

        The isolation seam of the match service: a failure inside one
        query's work goes back as a QERROR tagged with that query id —
        the connection, and every other query multiplexed on it, keeps
        serving.  Only transport failures propagate (the peer is gone
        for everyone).
        """
        query_id, rest = transport.split_query_body(body)
        try:
            embeddings, counters, stats = self._run_subtree(rest)
            accounting = pickle.dumps(
                (counters, stats), protocol=pickle.HIGHEST_PROTOCOL
            )
            kind = transport.MSG_LEVEL_REPLY
            reply = transport.encode_level_reply(None, embeddings, accounting)
        except (TransportError, OSError):
            raise
        except Exception:
            kind = transport.MSG_QERROR
            reply = pickle.dumps(
                self._describe_failure(), protocol=pickle.HIGHEST_PROTOCOL
            )
        transport.send_frame(
            conn, kind, transport.encode_query_body(query_id, reply)
        )


class _SendLocked:
    """A session socket whose every write takes one lock, so a reply
    and a heartbeat never interleave mid-frame; everything else is the
    socket's own."""

    __slots__ = ("_sock", "_lock")

    def __init__(self, sock) -> None:
        self._sock = sock
        self._lock = threading.Lock()

    def sendall(self, data) -> None:
        with self._lock:
            self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _heartbeat(sock, stopped: threading.Event) -> None:
    """A session's heartbeat thread: one HEARTBEAT frame every
    :data:`HEARTBEAT_INTERVAL` until ``stopped`` is set or a send fails.
    A failed send means the peer is gone: the thread shuts the socket
    down, so the serving thread's read returns and the session ends."""
    frame = transport.encode_frame(transport.MSG_HEARTBEAT)
    while not stopped.wait(HEARTBEAT_INTERVAL):
        try:
            sock.sendall(frame)
        except OSError:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed: the session is over anyway
            return


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


"""Worker discovery: the ANNOUNCE/HEARTBEAT registry.

The socket pool runtime survives the loss of hosts it was
*given*; this module is the half that lets it run on hosts that *show
up*.  A :class:`WorkerRegistry` is a tiny TCP server that shard
workers register with: each ``serve-shard --announce host:port`` worker
opens one long-lived connection, sends a single ANNOUNCE frame (its
serving address plus the same descriptor its HELLO would carry)
and then a HEARTBEAT frame every interval.  The registry turns that
stream into a live membership table:

* a worker is **live** while its heartbeats arrive;
* a worker that misses ``miss_budget`` consecutive intervals — or
  whose connection drops, or that sends a frame the transport rejects —
  is **evicted**, and the eviction is recorded so a coordinator
  polling the registry can fail over *before* its own (much longer)
  per-frame I/O deadline expires;
* a fresh ANNOUNCE for an identity that is already live supersedes the
  old record (**latest wins**): a restarted worker must not be held
  hostage by its dead predecessor's half-open connection.

Membership is keyed by each worker's name ``shard_id``:
:meth:`WorkerRegistry.addresses` flattens the table into the
``addresses`` list :class:`~repro.parallel.pool.ShardPool` takes, and
the pool folds :meth:`WorkerRegistry.evictions_since` into its
failover.

The worker side is :class:`Announcer`: a daemon thread owned by
:class:`~repro.parallel.worker.ShardWorker` that connects,
announces, heartbeats, and reconnects under
:class:`~repro.parallel.tasks.RetryPolicy` backoff whenever the
registry link fails.  The announcer never gives up — discovery is a
liveness daemon, not a job — and it is fault-injectable: a
:class:`~repro.parallel.chaos.FaultPlan` wraps the registry connection
under the ``announcer`` role (frame 1 = ANNOUNCE, frames 2+ =
HEARTBEATs), so dropped heartbeats and garbled announcements are as
deterministic as every other chaos fault.

Registry traffic is one-way: the registry never replies.  That keeps
the worker's serving loop and its announcing loop fully independent —
a slow registry cannot stall enumeration — and makes the protocol
trivially extensible (new frame kinds are ignored-by-close, exactly
like the data path).
"""

from __future__ import annotations

import logging
import random
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SchedulerError, TransportError
from . import transport
from .chaos import ROLE_ANNOUNCER
from .tasks import RetryPolicy
from .worker import ShardDescriptor

logger = logging.getLogger("repro.parallel")

#: Default seconds between worker heartbeats.  Short relative to the
#: per-frame I/O deadline (``REPRO_NET_TIMEOUT``, default 600 s) — the
#: whole point of heartbeat eviction is to notice a wedged worker long
#: before the data path's deadline would.
DEFAULT_HEARTBEAT_INTERVAL = 0.5

#: Consecutive missed intervals before eviction.  One lost packet or a
#: GC pause must not flap membership; three straight silences means the
#: worker is gone or wedged.
DEFAULT_MISS_BUDGET = 3


@dataclass
class WorkerRecord:
    """One live worker as the registry sees it."""

    shard_id: int
    address: Tuple[str, int]
    descriptor: ShardDescriptor
    announced_at: float
    last_seen: float


@dataclass
class EvictionRecord:
    """One eviction, kept so coordinators can react after the fact."""

    shard_id: int
    reason: str
    at: float = field(default_factory=time.monotonic)


class WorkerRegistry:
    """The discovery server: live membership from announce/heartbeat.

    Bind-and-start is explicit (``registry.start()``) so tests can
    inspect the bound address before any worker connects::

        registry = WorkerRegistry()
        registry.start()
        cluster = spawn_local_cluster(graph, 2, announce=registry.address)
        addresses = registry.wait_for(num_shards=2)

    All read APIs are thread-safe (the server loop runs in a daemon
    thread); mutation happens only inside that loop.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: "float | None" = None,
        miss_budget: int = DEFAULT_MISS_BUDGET,
    ) -> None:
        if heartbeat_interval is None:
            heartbeat_interval = DEFAULT_HEARTBEAT_INTERVAL
        if heartbeat_interval <= 0:
            raise SchedulerError(
                f"heartbeat_interval must be positive, got "
                f"{heartbeat_interval!r}"
            )
        if miss_budget < 1:
            raise SchedulerError(
                f"miss_budget must be >= 1, got {miss_budget!r}"
            )
        self.heartbeat_interval = float(heartbeat_interval)
        self.miss_budget = miss_budget
        self._host = host
        self._port = port
        self._listener: "socket.socket | None" = None
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._records: Dict[int, WorkerRecord] = {}
        self._evictions: List[EvictionRecord] = []
        self._generation = 0
        #: connection -> (buffer, identity-or-None); loop-thread only.
        self._conns: Dict[socket.socket, "_Conn"] = {}

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise SchedulerError("registry is not started")
        return self._listener.getsockname()[:2]

    @property
    def eviction_deadline(self) -> float:
        """Seconds of silence after which a worker is evicted."""
        return self.heartbeat_interval * self.miss_budget

    def start(self) -> Tuple[str, int]:
        """Bind the listener and start the server thread; returns the
        bound ``(host, port)``."""
        if self._thread is not None:
            raise SchedulerError("registry is already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._serve, name="repro-registry", daemon=True
        )
        self._thread.start()
        return self.address

    def close(self) -> None:
        """Stop the server thread and drop every connection."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
        self._thread = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - best effort
                pass
            self._listener = None

    def __enter__(self) -> "WorkerRegistry":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- read API (any thread) ------------------------------------------

    @property
    def generation(self) -> int:
        """Bumped on every membership change — a cheap staleness check
        for pollers."""
        with self._lock:
            return self._generation

    def snapshot(self) -> List[WorkerRecord]:
        """Every live record, ordered by shard_id."""
        with self._lock:
            return [self._records[key] for key in sorted(self._records)]

    def record(self, shard_id: int) -> Optional[WorkerRecord]:
        with self._lock:
            return self._records.get(shard_id)

    def is_live(self, shard_id: int) -> bool:
        with self._lock:
            return shard_id in self._records

    def evictions_since(
        self, cursor: int
    ) -> Tuple[int, List[EvictionRecord]]:
        """Evictions recorded after ``cursor``; returns the new cursor
        plus the records (coordinators poll this to fail over ahead of
        their own I/O deadlines)."""
        with self._lock:
            return len(self._evictions), self._evictions[cursor:]

    @property
    def evictions(self) -> List[EvictionRecord]:
        with self._lock:
            return list(self._evictions)

    def addresses(self, num_shards: int) -> List[Tuple[str, int]]:
        """The address list the pool consumes, in name order; raises
        :class:`SchedulerError` when any slot has no live worker."""
        with self._lock:
            records = [self._records.get(i) for i in range(num_shards)]
        missing = [i for i, record in enumerate(records) if record is None]
        if missing:
            raise SchedulerError(
                f"registry has no live worker for "
                f"{len(missing)} of {num_shards} slots: {missing[:8]}"
            )
        return [record.address for record in records]

    def wait_for(
        self, num_shards: int, timeout: float = 30.0
    ) -> List[Tuple[str, int]]:
        """Block until every slot has announced (or ``timeout``
        elapses), then return :meth:`addresses`."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.addresses(num_shards)
            except SchedulerError:
                if time.monotonic() >= deadline:
                    raise SchedulerError(
                        f"registry did not discover {num_shards} workers "
                        f"within {timeout:.1f}s; live: "
                        f"{[r.shard_id for r in self.snapshot()]}"
                    ) from None
                time.sleep(min(0.01, self.heartbeat_interval / 4))

    # -- server loop (daemon thread) ------------------------------------

    def _serve(self) -> None:
        selector = selectors.DefaultSelector()
        selector.register(self._listener, selectors.EVENT_READ, None)
        try:
            while not self._stop.is_set():
                tick = min(self.heartbeat_interval / 2, 0.2)
                for key, _ in selector.select(timeout=tick):
                    if key.data is None:
                        self._accept(selector)
                    else:
                        self._service(selector, key.fileobj, key.data)
                self._scan_deadlines(selector)
        finally:
            for sock in list(self._conns):
                self._close_conn(selector, sock)
            selector.close()

    def _accept(self, selector) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        conn = _Conn(sock)
        self._conns[sock] = conn
        selector.register(sock, selectors.EVENT_READ, conn)

    def _service(self, selector, sock, conn: "_Conn") -> None:
        try:
            chunk = sock.recv(1 << 16)
        except BlockingIOError:  # pragma: no cover - spurious wakeup
            return
        except OSError:
            self._drop_conn(selector, sock, conn, "connection error")
            return
        if not chunk:
            self._drop_conn(selector, sock, conn, "connection closed")
            return
        conn.buffer.extend(chunk)
        try:
            for kind, body in conn.drain_frames():
                self._dispatch(conn, kind, body)
        except TransportError as exc:
            self._drop_conn(selector, sock, conn, f"protocol error: {exc}")

    def _dispatch(self, conn: "_Conn", kind: int, body: bytes) -> None:
        now = time.monotonic()
        if kind == transport.MSG_ANNOUNCE:
            address, descriptor_dict = transport.decode_announce(body)
            try:
                descriptor = ShardDescriptor.from_dict(descriptor_dict)
            except Exception as exc:
                raise TransportError(
                    f"announce carries undecodable descriptor: {exc}"
                ) from exc
            identity = descriptor.shard_id
            record = WorkerRecord(
                shard_id=identity,
                address=address,
                descriptor=descriptor,
                announced_at=now,
                last_seen=now,
            )
            with self._lock:
                superseded = (
                    identity in self._records
                    and self._identity_conn(identity) is not conn
                )
                self._records[identity] = record
                self._generation += 1
            if superseded:
                # Latest wins: unhook the stale connection so its
                # eventual death cannot evict the new worker.
                stale = self._identity_conn(identity, exclude=conn)
                if stale is not None:
                    stale.identity = None
            conn.identity = identity
            conn.last_seen = now
            logger.debug(
                "registry: announce shard %d at %s", identity, address
            )
        elif kind == transport.MSG_HEARTBEAT:
            if conn.identity is None:
                raise TransportError("heartbeat before announce")
            conn.last_seen = now
            with self._lock:
                record = self._records.get(conn.identity)
                if record is not None:
                    record.last_seen = now
        else:
            raise TransportError(
                f"registry received unexpected frame kind {kind:#x}"
            )

    def _identity_conn(
        self,
        identity: int,
        exclude: "Optional[_Conn]" = None,
    ) -> "Optional[_Conn]":
        for conn in self._conns.values():
            if conn is not exclude and conn.identity == identity:
                return conn
        return None

    def _scan_deadlines(self, selector) -> None:
        deadline = self.eviction_deadline
        now = time.monotonic()
        for sock, conn in list(self._conns.items()):
            if conn.identity is None:
                continue
            if now - conn.last_seen > deadline:
                self._drop_conn(
                    selector, sock, conn,
                    f"missed {self.miss_budget} heartbeats "
                    f"({deadline:.1f}s silent)",
                )

    def _drop_conn(self, selector, sock, conn: "_Conn", reason: str) -> None:
        identity = conn.identity
        self._close_conn(selector, sock)
        if identity is None:
            return
        with self._lock:
            if identity in self._records:
                del self._records[identity]
                self._evictions.append(EvictionRecord(identity, reason))
                self._generation += 1
        logger.info("registry: evicted shard %d (%s)", identity, reason)

    def _close_conn(self, selector, sock) -> None:
        self._conns.pop(sock, None)
        try:
            selector.unregister(sock)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            sock.close()
        except OSError:  # pragma: no cover - best effort
            pass


class _Conn:
    """Per-connection framing state inside the registry loop."""

    __slots__ = ("sock", "buffer", "identity", "last_seen")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = bytearray()
        self.identity: "Optional[int]" = None
        self.last_seen = time.monotonic()

    def drain_frames(self):
        """Yield every complete ``(kind, body)`` in the buffer,
        validating headers through the transport's one checker."""
        header_size = transport._HEADER.size
        while len(self.buffer) >= header_size:
            length, version, kind = transport._HEADER.unpack_from(
                self.buffer
            )
            transport._validate_header(length, version, kind)
            total = 4 + length
            if len(self.buffer) < total:
                return
            body = bytes(self.buffer[header_size:total])
            del self.buffer[:total]
            yield kind, body


# ----------------------------------------------------------------------
# Worker side: the announcer daemon
# ----------------------------------------------------------------------


class Announcer:
    """The worker's registry link: announce once, heartbeat forever.

    ``hello`` is a callable returning ``(address, descriptor_dict)``
    — evaluated at every (re)connect so a worker whose
    descriptor changed (a commit moved its graph version) re-announces
    its current state, not a stale snapshot.

    The announcer reconnects under :class:`RetryPolicy` jittered
    backoff without an attempt bound (capped delay, unbounded tries): a
    registry restart must not permanently orphan a healthy worker.  It
    is a daemon thread and never raises into the worker's serving loop.
    """

    def __init__(
        self,
        registry_address: Tuple[str, int],
        hello: Callable[[], Tuple[Tuple[str, int], dict]],
        interval: "float | None" = None,
        retry: "RetryPolicy | None" = None,
        chaos=None,
        rng: "random.Random | None" = None,
    ) -> None:
        self.registry_address = tuple(registry_address)
        self.hello = hello
        self.interval = (
            DEFAULT_HEARTBEAT_INTERVAL if interval is None else interval
        )
        if self.interval <= 0:
            raise SchedulerError(
                f"heartbeat interval must be positive, got "
                f"{self.interval!r}"
            )
        self.retry = RetryPolicy() if retry is None else retry
        self.chaos = chaos
        self._rng = rng if rng is not None else random.Random(0)
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        #: Registration round-trips completed (announce frames sent);
        #: observable so tests can await the first announce.
        self.announced = threading.Event()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-announcer", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
        self._thread = None

    def _connect(self):
        sock = socket.create_connection(self.registry_address, timeout=5.0)
        sock.settimeout(5.0)
        if self.chaos is not None:
            _, descriptor_dict = self.hello()
            sock = self.chaos.wrap(
                sock, ROLE_ANNOUNCER, descriptor_dict.get("shard_id")
            )
        return sock

    def _run(self) -> None:
        attempt = 0
        while not self._stop.is_set():
            try:
                sock = self._connect()
            except OSError:
                self._stop.wait(
                    self.retry.delay(
                        min(attempt, self.retry.attempts - 1), self._rng
                    )
                )
                attempt += 1
                continue
            try:
                transport.send_frame(
                    sock,
                    transport.MSG_ANNOUNCE,
                    transport.encode_announce(*self.hello()),
                )
                self.announced.set()
                attempt = 0
                while not self._stop.wait(self.interval):
                    transport.send_frame(sock, transport.MSG_HEARTBEAT)
            except (TransportError, OSError):
                # Lost the registry (or a chaos sever): back off and
                # re-announce on a fresh connection.
                attempt += 1
                self._stop.wait(
                    self.retry.delay(
                        min(attempt, self.retry.attempts - 1), self._rng
                    )
                )
            finally:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - best effort
                    pass

"""Local clusters: pool members as subprocesses on loopback ports.

:func:`spawn_local_cluster` boots ``num_shards``
:class:`~repro.parallel.worker.ShardWorker` processes — members named
``0 … num_shards - 1`` — on ephemeral 127.0.0.1 ports and returns the
:class:`LocalCluster` that owns them.
It is how a hostless :class:`~repro.parallel.pool.ShardPool`
(``executor="processes"``, the match service), ``repro supervise``,
the tests and the benchmarks run the full network path on one machine;
multi-host deployments start their workers themselves (``serve-shard``)
and hand the coordinator their addresses.

Restart policy
--------------
The cluster owns its slots, so it alone decides whether a slot may
restart — whoever asks, the pool's recovery ladder or ``repro
supervise``'s poll loop (:meth:`LocalCluster.restart_due`):

* each slot has :data:`RESTART_BUDGET` restarts;
* its first restart is immediate; restart ``k > 1`` waits
  ``RESTART_RETRY.delay(k - 2)`` (jittered, seeded per slot) after the
  previous one, so a crash-looping worker is never busy-restarted;
* a worker that stays up for ``RESTART_RETRY.max_delay`` earns its
  slot's budget back (its uptime counts until the cluster sees it
  dead);
* a slot out of budget is *exhausted*: it stays down, and the pool
  serves on with fewer members.

:meth:`LocalCluster.respawn` refuses a restart the policy forbids with
a :class:`~repro.errors.SchedulerError` that names the slot and says
why.
"""

from __future__ import annotations

import logging
import math
import random
import time
from multiprocessing import get_context
from typing import List, Tuple

from ..errors import SchedulerError
from ..hypergraph import Hypergraph
from ..hypergraph.storage import resolve_index_backend
from .tasks import RetryPolicy, join_or_kill
from .worker import ShardWorker, shutdown_worker

logger = logging.getLogger(__name__)

#: The policy for polling a spawned worker's ready report (short
#: first probes — workers are usually up in milliseconds — backing off
#: while a slow shard build holds the pipe quiet).
READY_POLL = RetryPolicy(attempts=64, base_delay=0.005, max_delay=0.25)

#: How long a spawned worker may take to report its port — a whole
#: store build of the graph.
READY_TIMEOUT = 30.0

#: How long a worker is given to exit (after QUIT, or after a signal)
#: before the next escalation.
SHUTDOWN_TIMEOUT = 5.0

#: Restarts each slot is granted before it is exhausted.
RESTART_BUDGET = 3

#: The backoff between a slot's restarts; its ``max_delay`` is also the
#: uptime that earns a slot its budget back.  Slower than a connect
#: retry: a restart means a process died, and hammering a host that is
#: killing workers helps nobody.
RESTART_RETRY = RetryPolicy(
    attempts=RESTART_BUDGET, base_delay=0.2, max_delay=5.0
)


def _cluster_worker_main(
    conn,
    graph: Hypergraph,
    shard_id: int,
    index_backend: str,
    chaos=None,
    port: int = 0,
    store=None,
) -> None:
    """Subprocess entry point: build the worker, report its port
    through the pipe, then serve until SHUTDOWN."""
    try:
        worker = ShardWorker(
            graph, shard_id, index_backend, port=port, chaos=chaos,
            store=store,
        )
        host, port = worker.bind()
        conn.send(("ready", host, port))
        conn.close()
        worker.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - parent interrupt
        pass


def _start_cluster_worker(
    context,
    graph: Hypergraph,
    shard_id: int,
    index_backend: str,
    chaos=None,
    store=None,
    port: int = 0,
):
    """Start one loopback worker subprocess on ``port`` (0: an
    ephemeral one); returns ``(process, parent_conn)`` — await its
    port with :func:`_await_worker_ready`.  ``store`` (a built store of
    the whole ``graph``) rides along only under ``fork``, where the
    child simply inherits it; pickling one for another start method
    costs more than the worker building its own."""
    if context.get_start_method() != "fork":
        store = None
    parent_conn, child_conn = context.Pipe()
    process = context.Process(
        target=_cluster_worker_main,
        args=(child_conn, graph, shard_id, index_backend, chaos, port, store),
        daemon=True,
    )
    process.start()
    child_conn.close()
    return process, parent_conn


def _await_worker_ready(
    parent_conn,
    shard_id: int,
    process=None,
) -> Tuple[str, int]:
    """Read one worker's ``("ready", host, port)`` report.

    Polls the pipe under jittered exponential backoff (seeded per
    worker name, so schedules are reproducible) instead of one
    blocking wait: between probes a worker that already *died* —
    import error, OOM — is detected immediately via its
    ``process`` handle rather than after the full :data:`READY_TIMEOUT`.
    """
    rng = random.Random(shard_id << 16)
    deadline = time.monotonic() + READY_TIMEOUT
    attempt = 0
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise SchedulerError(
                f"shard worker {shard_id} did not report ready within "
                f"{READY_TIMEOUT}s"
            )
        if parent_conn.poll(min(remaining, READY_POLL.delay(attempt, rng))):
            break
        if process is not None and not process.is_alive():
            raise SchedulerError(
                f"shard worker {shard_id} died before reporting ready "
                f"(exit code {process.exitcode})"
            )
        attempt += 1
    message = parent_conn.recv()
    if message[0] != "ready":  # pragma: no cover - protocol misuse
        raise SchedulerError(
            f"shard worker {shard_id} sent {message!r} instead of "
            f"its address"
        )
    return message[1], message[2]


class _Restarts:
    """One slot's restart book-keeping under the cluster's policy."""

    __slots__ = ("used", "up_since", "not_before", "rng")

    def __init__(self, shard_id: int) -> None:
        #: Restarts spent since the slot last earned its budget back.
        self.used = 0
        #: When the slot's worker came up; None once it is seen down.
        self.up_since: "float | None" = time.monotonic()
        #: The earliest time of the slot's next restart.
        self.not_before = 0.0
        # Per-slot jitter stream: reproducible backoff schedules, and no
        # two slots share one (no synchronised restart herd).
        self.rng = random.Random(0x5AFE ^ (shard_id << 20))


class LocalCluster:
    """Handle on a set of locally spawned worker processes.

    ``processes``/``addresses`` are lists indexed by the member's name,
    ``shard_id``.  The cluster is the one owner of their lifetimes: its
    :meth:`respawn` enforces the restart policy (module docstring).
    """

    def __init__(
        self,
        processes,
        addresses,
        index_backend,
        graph: Hypergraph,
        start_method: "str | None" = None,
        chaos=None,
    ) -> None:
        self.processes = processes
        self.addresses: "List[Tuple[str, int]]" = addresses
        self.index_backend = index_backend
        self.chaos = chaos
        self._graph = graph
        self._start_method = start_method
        self._restarts = [
            _Restarts(shard_id) for shard_id in range(len(processes))
        ]

    @property
    def num_shards(self) -> int:
        return len(self.addresses)

    def _checked(self, shard_id: int) -> int:
        """``shard_id`` when it names a worker of this cluster — the one
        lookup every per-member method goes through (a negative index
        would silently pick a worker from the end)."""
        if not 0 <= shard_id < len(self.processes):
            raise SchedulerError(
                f"no shard worker {shard_id} in this cluster of "
                f"{len(self.processes)}"
            )
        return shard_id

    def address_of(self, shard_id: int) -> Tuple[str, int]:
        return self.addresses[self._checked(shard_id)]

    def kill_member(self, shard_id: int) -> None:
        """Hard-kill one worker process (the chaos harness's armed
        killer; also useful in tests).  Blocks until it is gone."""
        process = self.processes[self._checked(shard_id)]
        if process.is_alive():
            process.terminate()
        join_or_kill(
            process, timeout=SHUTDOWN_TIMEOUT,
            label=f"shard {shard_id} worker",
        )

    def _seen_down(self, shard_id: int, now: float) -> _Restarts:
        """The slot's book-keeping, its worker now known to be down (or
        about to be replaced): one up long enough earns the budget back."""
        slot = self._restarts[shard_id]
        if slot.up_since is not None:
            if now - slot.up_since >= RESTART_RETRY.max_delay:
                slot.used, slot.not_before = 0, 0.0
            slot.up_since = None
        return slot

    def exhausted(self, shard_id: int) -> bool:
        """Whether ``shard_id``'s worker is down for good: dead, and its
        slot out of restart budget."""
        if self.processes[self._checked(shard_id)].is_alive():
            return False
        slot = self._seen_down(shard_id, time.monotonic())
        return slot.used >= RESTART_BUDGET

    def respawn(self, shard_id: int) -> Tuple[str, int]:
        """Replace a worker process with a fresh one of the same name
        on the same port, and return its address — the restart hook of
        the pool's ladder and of ``repro supervise``.  One still running
        (wedged, or stopped) is killed first.  Keeping the port (the
        listener sets ``SO_REUSEADDR``) lets a pool that knows the worker
        only by its address reconnect to the restart.  The one place a
        restart is decided (module docstring): one the policy forbids
        raises :class:`~repro.errors.SchedulerError` naming the slot and
        why; one whose fresh worker dies before it is ready spends too."""
        old = self.processes[self._checked(shard_id)]
        now = time.monotonic()
        slot = self._seen_down(shard_id, now)
        if slot.used >= RESTART_BUDGET:
            raise SchedulerError(
                f"shard {shard_id} is out of restart budget "
                f"({RESTART_BUDGET} restarts); it stays down"
            )
        if now < slot.not_before:
            raise SchedulerError(
                f"shard {shard_id} is backing off for "
                f"{slot.not_before - now:.2f}s before restart "
                f"{slot.used + 1}/{RESTART_BUDGET}"
            )
        slot.used += 1
        slot.not_before = now + RESTART_RETRY.delay(slot.used - 1, slot.rng)
        if old.is_alive():
            old.kill()  # a stopped process ignores SIGTERM until resumed
        join_or_kill(
            old, timeout=SHUTDOWN_TIMEOUT,
            label=f"shard {shard_id} worker",
        )
        process, parent_conn = _start_cluster_worker(
            get_context(self._start_method), self._graph, shard_id,
            self.index_backend, self.chaos, port=self.addresses[shard_id][1],
        )
        try:
            address = _await_worker_ready(parent_conn, shard_id, process=process)
        except BaseException:
            if process.is_alive():
                process.terminate()
            raise
        finally:
            parent_conn.close()
        self.processes[shard_id] = process
        self.addresses[shard_id] = address
        slot.up_since = time.monotonic()
        logger.warning(
            "restarted shard %d at %s:%s (restart %d/%d)",
            shard_id, address[0], address[1], slot.used, RESTART_BUDGET,
        )
        return address

    def restart_due(self) -> int:
        """Restart every dead worker whose slot the policy lets restart
        now; returns how many came back.  A slot backing off, or one
        whose fresh worker died again, waits for a later call; an
        exhausted one stays down and the cluster serves on without it.
        Raises :class:`~repro.errors.SchedulerError` only when every
        worker is down for good: nothing is left to serve with."""
        restarted = 0
        for shard_id, process in enumerate(self.processes):
            try:
                if not process.is_alive():
                    self.respawn(shard_id)
                    restarted += 1
            except SchedulerError:
                pass  # backing off, or its fresh worker died: a later call
        if all(map(self.exhausted, range(len(self.processes)))):
            raise SchedulerError(
                "every worker is down and out of restart budget; "
                "nothing left to serve with"
            )
        return restarted

    def next_restart_in(self) -> float:
        """Seconds until a dead worker's restart is due (0.0: now; inf:
        none is waiting)."""
        now = time.monotonic()
        return min(
            (
                max(0.0, slot.not_before - now)
                for process, slot in zip(self.processes, self._restarts)
                if not process.is_alive() and slot.used < RESTART_BUDGET
            ),
            default=math.inf,
        )

    def close(self) -> None:
        """Stop the worker processes (idempotent): ask each server to
        QUIT, then join with terminate→kill escalation so a stuck
        worker is never silently leaked."""
        for process, address in zip(self.processes, self.addresses):
            if process.is_alive():
                shutdown_worker(address, timeout=SHUTDOWN_TIMEOUT)
        for index, process in enumerate(self.processes):
            join_or_kill(
                process, timeout=SHUTDOWN_TIMEOUT,
                label=f"shard worker #{index}",
            )
        self.processes = []
        self.addresses = []
        self._restarts = []

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def spawn_local_cluster(
    graph: Hypergraph,
    num_shards: int,
    index_backend: "str | None" = None,
    start_method: "str | None" = None,
    chaos=None,
    store=None,
) -> LocalCluster:
    """Boot ``num_shards`` workers on loopback, named ``0 …
    num_shards - 1``.

    Each worker holds a store of the whole graph, binds an ephemeral
    127.0.0.1 port and serves the framed protocol; the returned
    :class:`LocalCluster` lists the addresses to hand a
    :class:`~repro.parallel.pool.ShardPool`.  This is the single-machine path
    through the *full* network stack — the tests' and benchmarks' way
    of proving the multi-host story without a second host.  A ``chaos``
    :class:`~repro.parallel.chaos.FaultPlan` is pickled into every
    worker so worker-role faults (slow/dropped replies) apply there.
    ``store`` — the caller's already-built store of the whole ``graph``
    — becomes every worker's own where that is free (``fork``); a
    respawned worker builds its own.
    """
    if num_shards < 1:
        raise SchedulerError("num_shards must be >= 1")
    index_backend = resolve_index_backend(index_backend)
    context = get_context(start_method)  # None: the default method
    processes = []
    parent_conns = []
    for shard_id in range(num_shards):
        process, parent_conn = _start_cluster_worker(
            context, graph, shard_id, index_backend, chaos, store
        )
        processes.append(process)
        parent_conns.append(parent_conn)
    addresses: "List[Tuple[str, int]]" = []
    try:
        for shard_id, (process, parent_conn) in enumerate(
            zip(processes, parent_conns)
        ):
            addresses.append(
                _await_worker_ready(parent_conn, shard_id, process=process)
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
        processes, addresses, index_backend,
        graph=graph, start_method=start_method, chaos=chaos,
    )

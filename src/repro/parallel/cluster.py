"""Local clusters: pool members as subprocesses on loopback ports.

:func:`spawn_local_cluster` boots ``num_shards``
:class:`~repro.parallel.worker.ShardWorker` processes — members named
``0 … num_shards - 1`` — on ephemeral 127.0.0.1 ports and returns the
:class:`LocalCluster` that owns them.
It is how a hostless :class:`~repro.parallel.pool.ShardPool`
(``executor="processes"``, the match service), the
supervisor, the tests and the benchmarks run the full network path on
one machine; multi-host deployments start their workers themselves
(``serve-shard``) and hand the coordinator their addresses.
"""

from __future__ import annotations

import random
import time
from multiprocessing import get_context
from typing import List, Tuple

from ..errors import SchedulerError
from ..hypergraph import Hypergraph
from ..hypergraph.storage import resolve_index_backend
from .tasks import RetryPolicy, join_or_kill
from .worker import ShardWorker, shutdown_worker

#: Default policy for polling a spawned worker's ready report (short
#: first probes — workers are usually up in milliseconds — backing off
#: while a slow shard build holds the pipe quiet).
READY_POLL = RetryPolicy(attempts=64, base_delay=0.005, max_delay=0.25)

#: How long a spawned worker may take to report its port — a whole
#: store build of the graph.
READY_TIMEOUT = 30.0

#: How long a worker is given to exit (after QUIT, or after a signal)
#: before the next escalation.
SHUTDOWN_TIMEOUT = 5.0


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
    retry: "RetryPolicy | None" = None,
) -> Tuple[str, int]:
    """Read one worker's ``("ready", host, port)`` report.

    Polls the pipe under jittered exponential backoff (seeded per
    worker name, so schedules are reproducible) instead of one
    blocking wait: between probes a worker that already *died* —
    import error, OOM — is detected immediately via its
    ``process`` handle rather than after the full :data:`READY_TIMEOUT`.
    """
    retry = READY_POLL if retry is None else retry
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
        if parent_conn.poll(min(remaining, retry.delay(attempt, rng))):
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


class LocalCluster:
    """Handle on a set of locally spawned worker processes.

    ``processes``/``addresses`` are lists indexed by the member's name,
    ``shard_id``.
    """

    def __init__(
        self,
        processes,
        addresses,
        index_backend,
        graph: "Hypergraph | None" = None,
        start_method: "str | None" = None,
        chaos=None,
    ) -> None:
        self.processes = processes
        self.addresses: "List[Tuple[str, int]]" = addresses
        self.index_backend = index_backend
        self.chaos = chaos
        self._graph = graph
        self._start_method = start_method

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

    def respawn(self, shard_id: int) -> Tuple[str, int]:
        """Replace a worker process with a fresh one of the same name
        on the same port, and return its address — the restart hook of
        the coordinator's ladder and of the supervisor.  One still
        running (wedged, or stopped) is killed first.  Keeping the port
        (the listener sets ``SO_REUSEADDR``) lets a pool that knows the
        worker only by its address reconnect to the restart."""
        if self._graph is None:
            raise SchedulerError(
                "cluster was not built by spawn_local_cluster; "
                "cannot respawn workers"
            )
        old = self.processes[self._checked(shard_id)]
        if old.is_alive():
            old.kill()  # a stopped process ignores SIGTERM until resumed
        join_or_kill(
            old, timeout=SHUTDOWN_TIMEOUT,
            label=f"shard {shard_id} worker",
        )
        context = (
            get_context(self._start_method)
            if self._start_method is not None
            else get_context()
        )
        process, parent_conn = _start_cluster_worker(
            context, self._graph, shard_id, self.index_backend,
            self.chaos, port=self.addresses[shard_id][1],
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
        return address

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
    context = (
        get_context(start_method)
        if start_method is not None
        else get_context()
    )
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

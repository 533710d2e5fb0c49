"""The coordinator's side of opening a worker session.

Connecting to a pool member and deciding whether to trust it is one
sequence, whoever asks :class:`~repro.parallel.pool.ShardPool` for it —
pool open, a recovery reconnect or respawn, an admission:

* :func:`open_session` — TCP connect (under a retry policy), chaos
  wrap, :func:`validate_handshake`, then the established-connection
  I/O timeout and the chaos endpoint binding;
* :func:`validate_handshake` — the gate itself: backend, scheduler
  seed, data-graph fingerprint and (for a respawn or reconnect) the
  member's name, with a CATCHUP exchange (§2.10) that repairs a worker
  announcing a stale graph version instead of refusing it.

What a worker announces is its
:class:`~repro.parallel.worker.ShardDescriptor`.
"""

from __future__ import annotations

import os
import pickle
import socket
import time

from ..errors import SchedulerError, TransportError
from . import transport
from .tasks import RetryPolicy
from .worker import ShardDescriptor, disable_nagle


#: How long the coordinator waits for a TCP connect + handshake.
CONNECT_TIMEOUT = 10.0


def default_retry_policy() -> RetryPolicy:
    """The coordinator's connect/restart policy, from the environment.

    ``REPRO_NET_RETRIES`` (a positive integer) overrides the attempt
    budget and ``REPRO_NET_BACKOFF`` (a positive number of seconds)
    overrides the base backoff delay; unset, both fall back to
    :class:`~repro.parallel.tasks.RetryPolicy`'s defaults (4 attempts,
    0.05 s base).  Resolved at call time, like ``REPRO_NET_TIMEOUT`` in
    :func:`~repro.parallel.worker.default_io_timeout`, so a deployment
    can harden or tighten retry behaviour without touching call sites.
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


def _catchup_body(graph, stale_version: int) -> bytes:
    """The CATCHUP payload for a worker stuck at ``stale_version``.

    Prefers the cheap path — the contiguous suffix of committed
    :class:`MutationBatch`es the graph retains in its in-memory history
    (:meth:`~repro.hypergraph.dynamic.DynamicHypergraph.batches_since`)
    — and falls back to shipping a snapshot of the whole graph, from
    which the worker rebuilds its store, when the suffix has aged out.
    """
    batches = graph.batches_since(stale_version)
    payload = (
        {"snapshot": graph} if batches is None else {"batches": batches}
    )
    payload["to_version"] = graph.version
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def validate_handshake(
    sock,
    graph,
    *,
    index_backend: str,
    seed: int,
    expected_shard: "int | None" = None,
    allow_catchup: bool = True,
) -> ShardDescriptor:
    """Receive and validate one worker's HELLO against a pool's view.

    The single handshake gate of the coordinator side: every session
    :class:`~repro.parallel.pool.ShardPool` opens goes through it.
    ``expected_shard`` (a respawn or a reconnect in place) pins the
    announced name.

    A worker announcing a *stale* ``graph_version`` (it was restarting
    while MUTATE broadcasts went out, or was spawned from the seed
    graph) is not refused outright: when ``allow_catchup`` is on the
    gate sends a CATCHUP frame carrying the missing mutation batches —
    or a graph snapshot when the retained suffix has aged out — waits
    for the worker's CATCHUP-REPLY (a fresh handshake body reflecting
    the post-replay state), and re-validates that in full.
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

    def _check_contract(descriptor: ShardDescriptor, worker_seed: int):
        # Everything except graph identity: these mismatches are
        # configuration errors a catch-up replay cannot repair.
        who = f"shard {descriptor.shard_id}"
        if descriptor.index_backend != index_backend:
            raise SchedulerError(
                f"handshake backend mismatch: worker {who} built "
                f"{descriptor.index_backend!r}, coordinator expects "
                f"{index_backend!r}"
            )
        if expected_shard not in (None, descriptor.shard_id):
            raise SchedulerError(
                f"respawned worker announced {who}, expected "
                f"shard {expected_shard}"
            )
        if worker_seed != seed:
            raise SchedulerError(
                f"scheduler seed mismatch: worker {who} runs "
                f"REPRO_SEED={worker_seed}, coordinator {seed} — parallel "
                f"runs would not be reproducible"
            )

    kind, body = transport.recv_frame(sock)
    if kind != transport.MSG_HELLO:
        raise SchedulerError(
            f"worker spoke {kind:#x} before HELLO; not a shard server?"
        )
    descriptor, worker_seed = _decode(body)
    _check_contract(descriptor, worker_seed)
    graph_version = graph.version
    if allow_catchup and descriptor.graph_version < graph_version:
        transport.send_frame(
            sock,
            transport.MSG_CATCHUP,
            _catchup_body(graph, descriptor.graph_version),
        )
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
            f"{graph_version} — the worker missed a MUTATE broadcast"
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


def open_session(
    address,
    graph,
    *,
    connect_timeout: float,
    io_timeout: float,
    retry: RetryPolicy,
    rng=None,
    chaos=None,
    **contract,
):
    """Connect to the worker at ``address`` and validate its handshake;
    returns ``(sock, descriptor)`` ready for job traffic.

    The one connect sequence of the coordinator side: TCP connect
    (``retry`` attempts with backoff drawn from ``rng``), chaos wrap,
    :func:`validate_handshake`
    against ``contract`` (its keyword arguments), then the per-frame
    ``io_timeout`` and the chaos endpoint binding.  The handshake runs
    under the (short) ``connect_timeout``: a peer that accepts but
    never says HELLO — e.g. a busy single-session server — should fail
    fast, not tie the coordinator up for a whole job timeout.

    Raises the last ``OSError`` when every connect attempt failed;
    a failed handshake closes the socket and raises
    :class:`~repro.errors.TransportError` (liveness: the peer vanished
    or garbled the stream) or :class:`~repro.errors.SchedulerError`
    (contract: the worker is not one this pool may compose with).
    """
    last_exc: "OSError | None" = None
    for attempt in range(max(1, retry.attempts)):
        if attempt:
            time.sleep(retry.delay(attempt - 1, rng))
        try:
            sock = socket.create_connection(
                tuple(address), timeout=connect_timeout
            )
            break
        except OSError as exc:
            last_exc = exc
    else:
        raise last_exc  # type: ignore[misc]
    disable_nagle(sock)
    if chaos is not None:
        sock = chaos.wrap(sock, "coordinator")
    try:
        descriptor = validate_handshake(sock, graph, **contract)
    except BaseException:
        try:
            sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
        raise
    sock.settimeout(io_timeout)
    if chaos is not None:
        sock.bind_endpoint(descriptor.shard_id)
    return sock, descriptor

"""The coordinator's side of opening a worker session.

Connecting to a pool member and deciding whether to trust it is one
sequence, whoever asks :class:`~repro.parallel.pool.ShardPool` for it —
pool open, a recovery reconnect or respawn, an admission:

* :func:`open_session` — TCP connect (under a retry policy), chaos
  wrap, :func:`validate_handshake`, then the established-connection
  timeout (:data:`REPLY_DEADLINE`) and the chaos endpoint binding;
* :func:`validate_handshake` — the gate itself: backend, data-graph
  fingerprint and (for a respawn or reconnect) the member's name, with
  a CATCHUP exchange (§2.10) that repairs a worker
  announcing a stale graph version instead of refusing it.

The gate reads under the heartbeat's silence rule
(:data:`~repro.parallel.worker.SILENCE_BUDGET` per frame, heartbeats
included), so a worker that never says HELLO, or falls silent before
its CATCHUP-REPLY, fails at once; :data:`REPLY_DEADLINE` bounds how
long a heartbeating one may take to answer.  The pool's pump reads
everything after.

What a worker announces is its
:class:`~repro.parallel.worker.ShardDescriptor`.
"""

from __future__ import annotations

import pickle
import socket
import time

from ..errors import SchedulerError, TransportError
from . import transport
from .tasks import RetryPolicy
from .worker import SILENCE_BUDGET, ShardDescriptor, disable_nagle


#: How long the coordinator waits for a TCP connect to a worker.
CONNECT_TIMEOUT = 10.0

#: How long a live (heartbeating) worker may take to answer — one part's
#: REPLY, a handshake's CATCHUP-REPLY, any read or write on an
#: established connection.  Generous but finite; read at call time.
REPLY_DEADLINE = 600.0

#: How often a coordinator's connect to a refusing address is retried.
_CONNECT_RETRY = RetryPolicy()


def _recv_answer(sock, deadline: float):
    """The worker's next frame that is not a heartbeat, by
    ``deadline``.  Each read is bounded by the silence budget, so it
    fails as soon as the worker stops heartbeating; heartbeats prove
    the worker alive, not that it will ever answer."""
    sock.settimeout(SILENCE_BUDGET)
    while True:
        try:
            kind, body = transport.recv_frame(sock)
        except TransportError as exc:
            if isinstance(exc.__cause__, socket.timeout):
                raise TransportError(
                    f"worker silent for {SILENCE_BUDGET:.2f}s in the handshake"
                ) from None
            raise
        if kind != transport.MSG_HEARTBEAT:
            return kind, body
        if time.monotonic() > deadline:
            raise TransportError(
                f"no handshake answer within {REPLY_DEADLINE}s"
            )


def catchup_body(graph, stale_version: int) -> bytes:
    """The CATCHUP payload rolling a worker at ``stale_version`` forward
    to ``graph`` — from the handshake gate, or a commit's broadcast.

    Prefers the cheap path — the contiguous suffix of committed
    :class:`MutationBatch`es the graph retains in its in-memory history
    (:meth:`~repro.hypergraph.dynamic.DynamicHypergraph.batches_since`)
    — and falls back to shipping a snapshot of the whole graph, from
    which the worker rebuilds its store, when the suffix has aged out.
    The target version, edge and vertex counts ride along, so the
    worker checks its post-replay state itself.
    """
    batches = graph.batches_since(stale_version)
    payload = (
        {"snapshot": graph} if batches is None else {"batches": batches}
    )
    payload["to_version"] = graph.version
    payload["graph_edges"] = graph.num_edges
    payload["graph_vertices"] = graph.num_vertices
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def validate_handshake(
    sock,
    graph,
    *,
    index_backend: str,
    expected_shard: "int | None" = None,
) -> ShardDescriptor:
    """Receive and validate one worker's HELLO against a pool's view.

    The single handshake gate of the coordinator side: every session
    :class:`~repro.parallel.pool.ShardPool` opens goes through it.
    ``expected_shard`` (a respawn or a reconnect in place) pins the
    announced name.

    A worker announcing a *stale* ``graph_version`` (it was away while
    commits went out, or was spawned from the original graph) is not
    refused outright: the gate sends a CATCHUP frame
    carrying the missing mutation batches —
    or a graph snapshot when the retained suffix has aged out — waits
    for the worker's CATCHUP-REPLY (a fresh handshake body reflecting
    the post-replay state), and re-validates that in full.
    """

    def _decode(body) -> ShardDescriptor:
        descriptor_dict = transport.decode_handshake(body)
        try:
            descriptor = ShardDescriptor.from_dict(descriptor_dict)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchedulerError(
                f"malformed handshake descriptor (missing/invalid field "
                f"{exc}): not a compatible shard server"
            ) from None
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
        return descriptor

    deadline = time.monotonic() + REPLY_DEADLINE
    kind, body = _recv_answer(sock, deadline)
    if kind != transport.MSG_HELLO:
        raise SchedulerError(
            f"worker spoke {kind:#x} before HELLO; not a shard server?"
        )
    descriptor = _decode(body)
    graph_version = graph.version
    if descriptor.graph_version < graph_version:
        # A snapshot may be large: sending it is bounded by progress,
        # not by the worker's silence.
        sock.settimeout(REPLY_DEADLINE)
        transport.send_frame(
            sock,
            transport.MSG_CATCHUP,
            catchup_body(graph, descriptor.graph_version),
        )
        kind, body = _recv_answer(sock, deadline)
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
        descriptor = _decode(body)
    if descriptor.graph_version != graph_version:
        raise SchedulerError(
            f"graph version mismatch: worker shard "
            f"{descriptor.shard_id} reflects mutation version "
            f"{descriptor.graph_version}, the engine holds "
            f"{graph_version} — the worker missed a commit"
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


def open_session(address, graph, *, rng=None, chaos=None, **contract):
    """Connect to the worker at ``address`` and validate its handshake;
    returns ``(sock, descriptor)`` ready for job traffic.

    The one connect sequence of the coordinator side: TCP connect
    (:data:`CONNECT_TIMEOUT` per attempt, retried with backoff drawn
    from ``rng`` while the address refuses), chaos wrap,
    :func:`validate_handshake` against ``contract`` (its keyword
    arguments), then the established-connection timeout
    (:data:`REPLY_DEADLINE`) and the chaos endpoint binding.  A peer
    that accepts but never says HELLO — a stopped or wedged worker, or
    one still busy in another session — fails on the silence budget.

    Raises the last ``OSError`` when every connect attempt failed;
    a failed handshake closes the socket and raises
    :class:`~repro.errors.TransportError` (liveness: the peer vanished,
    fell silent or garbled the stream) or
    :class:`~repro.errors.SchedulerError` (contract: the worker is not
    one this pool may compose with).
    """
    last_exc: "OSError | None" = None
    for attempt in range(_CONNECT_RETRY.attempts):
        if attempt:
            time.sleep(_CONNECT_RETRY.delay(attempt - 1, rng))
        try:
            sock = socket.create_connection(
                tuple(address), timeout=CONNECT_TIMEOUT
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
        transport.close_quietly(sock)
        raise
    sock.settimeout(REPLY_DEADLINE)
    if chaos is not None:
        sock.bind_endpoint(descriptor.shard_id)
    return sock, descriptor

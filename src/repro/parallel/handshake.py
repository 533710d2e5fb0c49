"""The coordinator's side of opening a worker session.

Connecting to a pool member and deciding whether to trust it is one
sequence, whoever asks :class:`~repro.parallel.pool.ShardPool` for it —
pool open, a recovery reconnect or respawn, an admission:

* :func:`open_session` — TCP connect (under a retry policy), chaos
  wrap, :func:`validate_handshake`, then the established-connection
  I/O timeout and the chaos endpoint binding;
* :func:`validate_handshake` — the gate itself: backend, data-graph
  fingerprint and (for a respawn or reconnect) the member's name, with
  a CATCHUP exchange (§2.10) that repairs a worker
  announcing a stale graph version instead of refusing it.

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
from .worker import ShardDescriptor, disable_nagle


#: How long the coordinator waits for a TCP connect + handshake.
CONNECT_TIMEOUT = 10.0


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

    kind, body = transport.recv_frame(sock)
    if kind != transport.MSG_HELLO:
        raise SchedulerError(
            f"worker spoke {kind:#x} before HELLO; not a shard server?"
        )
    descriptor = _decode(body)
    graph_version = graph.version
    if descriptor.graph_version < graph_version:
        transport.send_frame(
            sock,
            transport.MSG_CATCHUP,
            catchup_body(graph, descriptor.graph_version),
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


def open_session(
    address,
    graph,
    *,
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
    under the (short) :data:`CONNECT_TIMEOUT`: a peer that accepts but
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
        try:
            sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
        raise
    sock.settimeout(io_timeout)
    if chaos is not None:
        sock.bind_endpoint(descriptor.shard_id)
    return sock, descriptor

"""The socket transport: framed messages between a coordinator and its
pool members.

Every member holds the whole data graph, so a request names a slice of
a query's root candidates and the answer is a count: nothing in either
references process-local state, and whether a worker runs on this
machine or another is purely a matter of where the TCP connection
leads.  What the byte stream needs is enough structure to survive
version skew and partial failure.

This module defines that structure.  It deliberately contains **no
enumeration logic** (that stays in :mod:`repro.parallel.worker`)
and no I/O policy beyond "read exactly one frame": everything here is a
pure function of bytes in, bytes out, which is what makes the format
testable byte-for-byte and documentable (see ``docs/WIRE_FORMAT.md``
for the normative spec with worked examples).

Framing
-------
Every message is one frame::

    u32 length | u8 version | u8 kind | body

``length`` (little-endian, like every integer in the format) counts the
``version`` byte, the ``kind`` byte and the body.  ``version`` is
:data:`PROTOCOL_VERSION`; a reader that sees any other value must close
the connection (the peer speaks a format this build cannot interpret —
guessing would silently corrupt counts).  ``kind`` selects the message
type below.  ``length`` is bounded by :data:`MAX_FRAME_BYTES` so a
corrupt or hostile length prefix fails fast instead of triggering a
multi-gigabyte allocation.

Message kinds
-------------
======  =======  ===========================================================
byte    name     body
======  =======  ===========================================================
``H``   HELLO    pickled handshake dict (worker -> coordinator on accept)
``T``   SUBTREE  ``u64 query_id`` + ``u32 part`` + ``u32 parts`` + pickled
        ``(plan, graph_version, budget, funnel)`` — a whole counting
        job over every ``parts``-th root candidate from ``part`` along
        the coordinator's ``ExecutionPlan``, answered with one REPLY
        carrying the count and accounting; no session state (see
        :func:`encode_subtree_body`)
``R``   REPLY    ``u64 query_id`` + binary reply (see
        :func:`encode_level_reply`)
``e``   QERROR   ``u64 query_id`` + pickled traceback string — fails
        that query alone; the session keeps serving other queries
``S``   STOP     empty — end this session (connection), keep serving
``Q``   QUIT     empty — shut the worker server down
``E``   ERROR    pickled traceback string (a MUTATE / CATCHUP failed;
        the session ends)
``A``   ANNOUNCE pickled registration dict (worker -> registry: the
        worker's serving address plus its handshake descriptor)
``h``   HEARTBEAT empty — worker -> registry liveness tick; identity is
        the connection's preceding ANNOUNCE
``M``   MUTATE   pickled ``MutationBatch`` — apply one committed edge
        insert/delete batch to the worker's graph and store, in place
``D``   DELTA    pickled mutation ack dict (``graph_version``,
        ``graph_edges``, ``graph_vertices``) — the worker's state
        after applying a MUTATE
``U``   CATCHUP  pickled catch-up payload: either the ``(version,
        MutationBatch)`` suffix a stale worker missed, or a full graph
        snapshot when the suffix is no longer retained
``u``   CATCHUP_REPLY  handshake body (like HELLO) — the worker's
        descriptor *after* applying the catch-up payload, which
        the coordinator re-validates in full
======  =======  ===========================================================

A job is one SUBTREE request and one REPLY per part.  SUBTREE, REPLY
and QERROR are tagged with the query they belong to, so one connection
carries any number of queries at once and a coordinator that runs one
job at a time is simply the one-query case (it tags every job
:data:`SOLO_QUERY_ID`).

Control messages carry pickles — the coordinator and its workers are
mutually trusted members of one deployment (do **not** expose a worker
port to untrusted input).
The ``REPLY`` layout keeps a table of candidate payloads (each the
compact :meth:`~repro.core.candidates.CandidateSet.to_bytes` encoding
prefixed with the candidate wire version byte); a subtree reply leaves
it empty.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import List, Optional, Sequence, Tuple

from ..errors import TransportError

#: Version byte of the *framing* protocol (handshake, message kinds,
#: level-reply layout).  Independent from the candidate-payload
#: ``WIRE_VERSION``: a framing change does not invalidate archived
#: payloads, and a payload change is caught per-payload.
PROTOCOL_VERSION = 6

#: Upper bound on a single frame's ``length`` field.  A CATCHUP snapshot
#: (a pickled graph) is the largest message in practice, so anything
#: near this bound indicates a corrupt length prefix, not real data.
MAX_FRAME_BYTES = 1 << 30

MSG_HELLO = 0x48  # b"H"
MSG_STOP = 0x53  # b"S"
MSG_SHUTDOWN = 0x51  # b"Q"
MSG_ERROR = 0x45  # b"E"
MSG_ANNOUNCE = 0x41  # b"A"
MSG_HEARTBEAT = 0x68  # b"h"

# The job family (WIRE_FORMAT.md §2.5): each body leads with a u64
# query_id, so one worker session can hold many in-flight jobs.  QERROR
# fails one query without ending the session.
MSG_SUBTREE = 0x54  # b"T"
MSG_LEVEL_REPLY = 0x52  # b"R"
MSG_QERROR = 0x65  # b"e"

# Dynamic-graph revisions (WIRE_FORMAT.md §2.9): a coordinator commits
# an edge insert/delete batch pool-wide with MUTATE; each worker
# applies it incrementally and acks with DELTA so the coordinator can
# verify the whole pool agrees on the new graph version before
# admitting further queries.
MSG_MUTATE = 0x4D  # b"M"
MSG_DELTA = 0x44  # b"D"

# Catch-up recovery (WIRE_FORMAT.md §2.10): a worker whose HELLO
# announces a stale graph_version is streamed the mutation suffix it
# missed (or a full snapshot when the suffix is no longer retained)
# instead of being refused; it replies with a CATCHUP_REPLY carrying a
# fresh handshake body, which the coordinator re-validates in full.
MSG_CATCHUP = 0x55  # b"U"
MSG_CATCHUP_REPLY = 0x75  # b"u"

#: The kinds whose body starts with a ``u64 query_id`` tag.
QUERY_KINDS = frozenset({MSG_SUBTREE, MSG_LEVEL_REPLY, MSG_QERROR})

_KNOWN_KINDS = QUERY_KINDS | {
    MSG_HELLO, MSG_STOP, MSG_SHUTDOWN, MSG_ERROR,
    MSG_ANNOUNCE, MSG_HEARTBEAT, MSG_MUTATE, MSG_DELTA,
    MSG_CATCHUP, MSG_CATCHUP_REPLY,
}

#: The query id of a coordinator that runs one job at a time;
#: multiplexing coordinators number their queries from 1.
SOLO_QUERY_ID = 0

_QUERY_ID = struct.Struct("<Q")

_HEADER = struct.Struct("<IBB")


# ----------------------------------------------------------------------
# Frame encoding / decoding (pure bytes, no sockets)
# ----------------------------------------------------------------------


def encode_frame(kind: int, body: bytes = b"") -> bytes:
    """Serialise one frame: length prefix, version byte, kind, body."""
    if kind not in _KNOWN_KINDS:
        raise TransportError(f"unknown frame kind {kind:#x}")
    if len(body) + 2 > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame body of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _HEADER.pack(len(body) + 2, PROTOCOL_VERSION, kind) + body


def _validate_header(length: int, version: int, kind: int) -> None:
    """Reject an untrustworthy frame header.

    The single source of truth for header legality: both the byte-level
    :func:`decode_frame` and the socket-level :func:`recv_frame` call
    this on the 6 header bytes, so a garbled length, version or kind is
    rejected with the *same* error on either path — and on the socket
    path it is rejected before any body bytes are read.
    """
    if length < 2 or length > MAX_FRAME_BYTES:
        raise TransportError(f"implausible frame length {length}")
    if version != PROTOCOL_VERSION:
        raise TransportError(
            f"unsupported protocol version {version}; this build speaks "
            f"version {PROTOCOL_VERSION}"
        )
    if kind not in _KNOWN_KINDS:
        raise TransportError(f"unknown frame kind {kind:#x}")


def decode_frame(data: bytes) -> Tuple[int, bytes]:
    """Decode one complete frame; returns ``(kind, body)``.

    Raises :class:`TransportError` on truncation, a length/buffer
    mismatch, an unknown protocol version or an unknown kind — every
    way a byte stream can stop being trustworthy.
    """
    if len(data) < _HEADER.size:
        raise TransportError(
            f"truncated frame: {len(data)} bytes, header needs "
            f"{_HEADER.size}"
        )
    length, version, kind = _HEADER.unpack_from(data)
    if length < 2 or length > MAX_FRAME_BYTES:
        raise TransportError(f"implausible frame length {length}")
    if len(data) != 4 + length:
        raise TransportError(
            f"frame length {length} does not match buffer of "
            f"{len(data)} bytes"
        )
    _validate_header(length, version, kind)
    return kind, data[_HEADER.size:]


# ----------------------------------------------------------------------
# Query-tagged bodies (WIRE_FORMAT.md §2.5)
# ----------------------------------------------------------------------


def encode_query_body(query_id: int, body: bytes = b"") -> bytes:
    """Prefix ``body`` with the ``u64 query_id`` tag of a job-family
    frame (:data:`QUERY_KINDS`)."""
    if not isinstance(query_id, int) or query_id < 0 or query_id > (1 << 64) - 1:
        raise TransportError(f"query id {query_id!r} does not fit u64")
    return _QUERY_ID.pack(query_id) + body


def split_query_body(body: bytes) -> Tuple[int, bytes]:
    """Inverse of :func:`encode_query_body`: ``(query_id, rest)``."""
    if len(body) < _QUERY_ID.size:
        raise TransportError(
            f"query frame body of {len(body)} bytes is shorter than its "
            f"{_QUERY_ID.size}-byte query id tag"
        )
    (query_id,) = _QUERY_ID.unpack_from(body)
    return query_id, body[_QUERY_ID.size:]


# ----------------------------------------------------------------------
# Subtree requests (WIRE_FORMAT.md §2.5)
# ----------------------------------------------------------------------

_SUBTREE_PART = struct.Struct("<II")


def encode_subtree_body(part: int, parts: int, job: bytes) -> bytes:
    """SUBTREE body after the query tag: which slice of the root
    candidates — every ``parts``-th from ``part`` — then ``job``, the
    pickled ``(plan, graph_version, budget, funnel)`` that all parts of
    one query share (so it is pickled once per query, not per part)."""
    if not 0 <= part < parts:
        raise TransportError(f"subtree part {part} outside 0..{parts - 1}")
    return _SUBTREE_PART.pack(part, parts) + job


def decode_subtree_body(body: bytes):
    """Inverse of :func:`encode_subtree_body`, ``job`` unpickled:
    ``(part, parts, plan, graph_version, budget, funnel)``.  Only the
    shape is checked here; what the four fields hold is the worker's
    to judge (a bad one fails that query, not the session)."""
    if len(body) < _SUBTREE_PART.size:
        raise TransportError(
            f"subtree body of {len(body)} bytes is shorter than its "
            f"{_SUBTREE_PART.size}-byte part header"
        )
    part, parts = _SUBTREE_PART.unpack_from(body)
    if not 0 <= part < parts:
        raise TransportError(f"subtree part {part} outside 0..{parts - 1}")
    job = decode_pickle_body(body[_SUBTREE_PART.size:])
    if not isinstance(job, tuple) or len(job) != 4:
        raise TransportError(
            "subtree job is not a (plan, graph_version, budget, funnel) tuple"
        )
    return (part, parts) + job


# ----------------------------------------------------------------------
# Socket helpers
# ----------------------------------------------------------------------


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`TransportError`.

    A clean EOF (peer closed between frames) and a mid-frame EOF both
    surface as :class:`TransportError`; callers that want to treat the
    clean case specially can check :attr:`TransportError.args` — but in
    this protocol a peer never closes while the other side expects a
    frame, so both are failures.
    """
    parts: List[bytes] = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout as exc:  # pragma: no cover - host-dependent
            raise TransportError(
                f"timed out waiting for {remaining} of {count} bytes"
            ) from exc
        except OSError as exc:
            raise TransportError(f"socket read failed: {exc}") from exc
        if not chunk:
            received = count - remaining
            raise TransportError(
                f"connection closed after {received} of {count} bytes "
                f"(truncated frame)" if received else
                "connection closed by peer"
            )
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def send_frame(sock: socket.socket, kind: int, body: bytes = b"") -> None:
    """Write one frame to ``sock`` (blocking, whole frame or error)."""
    try:
        sock.sendall(encode_frame(kind, body))
    except OSError as exc:
        raise TransportError(f"socket write failed: {exc}") from exc


def recv_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Read one frame from ``sock``; returns ``(kind, body)``.

    The header is validated through the same :func:`_validate_header`
    as :func:`decode_frame` *before* the body is read: a garbled
    version or kind byte is rejected identically on both paths, and on
    this one without first pulling (up to a gigabyte of) body bytes
    off a stream that is already known to be untrustworthy.
    """
    header = _recv_exact(sock, _HEADER.size)
    length, version, kind = _HEADER.unpack(header)
    _validate_header(length, version, kind)
    rest = _recv_exact(sock, length - 2)
    return kind, rest


def send_pickle_frame(sock: socket.socket, kind: int, payload) -> None:
    """Pickle ``payload`` and send it as a frame of ``kind``."""
    send_frame(
        sock, kind, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    )


def decode_pickle_body(body: bytes):
    """Unpickle a control-frame body, normalising failures."""
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise TransportError(f"undecodable control payload: {exc}") from exc


# ----------------------------------------------------------------------
# Replies
# ----------------------------------------------------------------------
#
# REPLY body layout::
#
#     u64 embeddings          the part's count
#     u8  has_accounting      1 when the pickled (counters, stats) tail
#                             is present (always, on a subtree reply;
#                             counters is None when no funnel was asked)
#     u32 num_payloads        one slot per frontier partial (0 on a
#                             subtree reply)
#     per payload:
#         u32 size            0 = no survivors for that partial
#         size bytes          versioned candidate payload
#                             (WIRE_VERSION byte + CandidateSet bytes)
#     pickled accounting tail (to end of body, iff has_accounting)


def encode_level_reply(
    payloads: "Sequence[Optional[bytes]] | None",
    embeddings: int,
    accounting: "bytes | None" = None,
) -> bytes:
    """Binary body of a ``REPLY`` frame.

    ``payloads`` holds one *versioned* candidate payload (or None) per
    frontier partial; pass None on the final level.
    """
    parts = [struct.pack(
        "<QBI",
        embeddings,
        0 if accounting is None else 1,
        0 if payloads is None else len(payloads),
    )]
    if payloads is not None:
        for payload in payloads:
            if payload is None:
                parts.append(b"\x00\x00\x00\x00")
            else:
                parts.append(struct.pack("<I", len(payload)))
                parts.append(payload)
    if accounting is not None:
        parts.append(accounting)
    return b"".join(parts)


def decode_level_reply(
    body: bytes,
) -> Tuple["List[Optional[bytes]] | None", int, "bytes | None"]:
    """Inverse of :func:`encode_level_reply`.

    Returns ``(payloads, embeddings, accounting)`` with ``payloads``
    None when the reply carried no payload slots (final level).
    """
    try:
        embeddings, has_accounting, num_payloads = struct.unpack_from(
            "<QBI", body
        )
    except struct.error as exc:
        raise TransportError(f"truncated level reply: {exc}") from None
    offset = 13
    payloads: "List[Optional[bytes]] | None" = None
    if num_payloads:
        payloads = []
        for _ in range(num_payloads):
            if offset + 4 > len(body):
                raise TransportError("truncated level reply payload table")
            (size,) = struct.unpack_from("<I", body, offset)
            offset += 4
            if size == 0:
                payloads.append(None)
                continue
            if offset + size > len(body):
                raise TransportError(
                    f"level reply payload of {size} bytes overruns body"
                )
            payloads.append(body[offset:offset + size])
            offset += size
    accounting = body[offset:] if has_accounting else None
    if has_accounting and not accounting:
        raise TransportError("level reply promised accounting but had none")
    return payloads, embeddings, accounting


def decode_reply(body: bytes):
    """Decode the body of a subtree REPLY into ``(embeddings, counters,
    stats)``: the part's count and its accounting — ``counters`` is
    None when the request asked for no funnel.  Every way the body can
    be undecodable surfaces as :class:`TransportError`."""
    _, embeddings, tail = decode_level_reply(body)
    if tail is None:
        raise TransportError("subtree reply carries no accounting")
    accounting = decode_pickle_body(tail)
    if not isinstance(accounting, tuple) or len(accounting) != 2:
        raise TransportError(
            f"reply accounting is {type(accounting).__name__}, not a "
            f"(counters, stats) pair"
        )
    return (embeddings,) + accounting


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------


def encode_handshake(descriptor_dict: dict) -> bytes:
    """HELLO body: the member's descriptor."""
    return pickle.dumps(
        {
            "protocol": PROTOCOL_VERSION,
            "descriptor": dict(descriptor_dict),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_handshake(body: bytes) -> dict:
    """Inverse of :func:`encode_handshake`: the ``descriptor_dict``.

    Other keys are ignored (an older peer's ``seed`` among them).
    Also validates the embedded ``protocol`` field.  The per-frame
    version byte already rejects framing skew before this body is ever
    parsed; the embedded field guards the *handshake schema* itself, so
    the redundancy is checked rather than silently ignored.
    """
    message = decode_pickle_body(body)
    if not isinstance(message, dict) or "descriptor" not in message:
        raise TransportError("malformed handshake body")
    protocol = message.get("protocol")
    if protocol != PROTOCOL_VERSION:
        raise TransportError(
            f"handshake announces protocol {protocol!r}; this build "
            f"speaks version {PROTOCOL_VERSION}"
        )
    return message["descriptor"]


def encode_announce(address: Tuple[str, int], descriptor_dict: dict) -> bytes:
    """ANNOUNCE body: where the worker serves, plus its handshake.

    The descriptor is the one a HELLO would carry, so a
    registry can pre-validate identity without opening a second
    connection to the worker.
    """
    host, port = address
    return pickle.dumps(
        {
            "protocol": PROTOCOL_VERSION,
            "descriptor": dict(descriptor_dict),
            "address": (str(host), int(port)),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_announce(body: bytes) -> Tuple[Tuple[str, int], dict]:
    """Inverse of :func:`encode_announce`.

    Returns ``(address, descriptor_dict)`` and validates the
    embedded ``protocol`` field exactly like :func:`decode_handshake`.
    """
    message = decode_pickle_body(body)
    if (
        not isinstance(message, dict)
        or "descriptor" not in message
        or "address" not in message
    ):
        raise TransportError("malformed announce body")
    protocol = message.get("protocol")
    if protocol != PROTOCOL_VERSION:
        raise TransportError(
            f"announce declares protocol {protocol!r}; this build "
            f"speaks version {PROTOCOL_VERSION}"
        )
    address = message["address"]
    if (
        not isinstance(address, tuple)
        or len(address) != 2
        or not isinstance(address[0], str)
        or not isinstance(address[1], int)
    ):
        raise TransportError(
            f"announce carries malformed address {address!r}"
        )
    return address, message["descriptor"]


def parse_address(text: str) -> Tuple[str, int]:
    """Parse ``host:port`` (the CLI's ``--hosts`` entries)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise TransportError(
            f"worker address {text!r} is not of the form host:port"
        )
    try:
        return host, int(port)
    except ValueError:
        raise TransportError(
            f"worker address {text!r} has a non-numeric port"
        ) from None

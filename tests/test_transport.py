"""Byte-level tests of the socket transport's framed protocol.

Everything here exercises pure encode/decode paths (plus a socketpair
for the stream helpers) — no worker processes.  The failure modes the
suite pins are exactly the ones a network can produce and a pipe
cannot: truncated frames, version skew, corrupt length prefixes and
payload tables that overrun their body.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

import pytest

from repro.core.candidates import (
    WIRE_VERSION,
    decode_versioned,
    encode_tuple_payload,
    encode_versioned,
)
from repro.errors import SchedulerError, TransportError
from repro.parallel import transport


class TestFrameCodec:
    def test_round_trip_every_kind(self):
        for kind in sorted(transport._KNOWN_KINDS):
            body = bytes([kind]) * 7
            assert transport.decode_frame(
                transport.encode_frame(kind, body)
            ) == (kind, body)

    def test_layout_is_the_documented_one(self):
        # u32 length | u8 version | u8 kind | body — little-endian.
        frame = transport.encode_frame(transport.MSG_HEARTBEAT, b"xy")
        assert frame == struct.pack(
            "<IBB", 4, transport.PROTOCOL_VERSION, transport.MSG_HEARTBEAT
        ) + b"xy"

    def test_truncated_header(self):
        with pytest.raises(TransportError, match="truncated"):
            transport.decode_frame(b"\x02\x00")

    def test_length_buffer_mismatch(self):
        frame = transport.encode_frame(transport.MSG_HEARTBEAT, b"abc")
        with pytest.raises(TransportError, match="does not match"):
            transport.decode_frame(frame[:-1])
        with pytest.raises(TransportError, match="does not match"):
            transport.decode_frame(frame + b"z")

    def test_bad_version_byte(self):
        frame = bytearray(transport.encode_frame(transport.MSG_HEARTBEAT))
        frame[4] = transport.PROTOCOL_VERSION + 1
        with pytest.raises(TransportError, match="unsupported protocol"):
            transport.decode_frame(bytes(frame))

    def test_unknown_kind(self):
        frame = bytearray(transport.encode_frame(transport.MSG_HEARTBEAT))
        frame[5] = 0x7A
        with pytest.raises(TransportError, match="unknown frame kind"):
            transport.decode_frame(bytes(frame))
        with pytest.raises(TransportError, match="unknown frame kind"):
            transport.encode_frame(0x7A)

    def test_implausible_length(self):
        bogus = struct.pack(
            "<IBB", transport.MAX_FRAME_BYTES + 1,
            transport.PROTOCOL_VERSION, transport.MSG_HEARTBEAT,
        )
        with pytest.raises(TransportError, match="implausible"):
            transport.decode_frame(bogus)
        # A length too small to even hold version+kind is also corrupt.
        with pytest.raises(TransportError, match="implausible"):
            transport.decode_frame(struct.pack("<IBB", 1, 1, 0x53))

    def test_transport_error_is_a_scheduler_error(self):
        # Existing except-SchedulerError handlers must keep catching.
        assert issubclass(TransportError, SchedulerError)


class TestLevelReply:
    def test_round_trip_with_gaps(self):
        payloads = [b"\x01T-bytes", None, b"\x01M", None]
        body = transport.encode_level_reply(payloads, 0)
        assert transport.decode_level_reply(body) == (payloads, 0, None)

    def test_final_level_reply(self):
        body = transport.encode_level_reply(None, 42, b"pickled-tail")
        assert transport.decode_level_reply(body) == (
            None, 42, b"pickled-tail"
        )

    def test_truncated_reply_body(self):
        with pytest.raises(TransportError, match="truncated level reply"):
            transport.decode_level_reply(b"\x00\x01")

    def test_truncated_payload_table(self):
        body = transport.encode_level_reply([b"\x01abc"], 0)
        with pytest.raises(TransportError):
            transport.decode_level_reply(body[:-2])

    def test_payload_overruns_body(self):
        body = bytearray(transport.encode_level_reply([b"\x01abc"], 0))
        # Inflate the payload size field past the end of the body.
        struct.pack_into("<I", body, 13, 1000)
        with pytest.raises(TransportError, match="overruns"):
            transport.decode_level_reply(bytes(body))

    def test_missing_promised_accounting(self):
        body = transport.encode_level_reply(None, 1, b"tail")
        with pytest.raises(TransportError, match="accounting"):
            transport.decode_level_reply(body[: 13])


class TestVersionedCandidatePayloads:
    def test_round_trip(self):
        payload = encode_tuple_payload((3, 9))
        wired = encode_versioned(payload)
        assert wired[0] == WIRE_VERSION
        assert decode_versioned(wired) == payload

    def test_bad_version_byte_rejected(self):
        payload = encode_versioned(encode_tuple_payload((1,)))
        skewed = bytes([WIRE_VERSION + 1]) + payload[1:]
        with pytest.raises(ValueError, match="unsupported candidate wire"):
            decode_versioned(skewed)

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            decode_versioned(b"")


class TestHandshake:
    def test_round_trip(self):
        descriptor = {
            "shard_id": 1, "num_shards": 4, "index_backend": "bitset",
            "num_partitions": 3, "num_rows": 17,
            "graph_edges": 40, "graph_vertices": 19,
        }
        body = transport.encode_handshake(descriptor)
        assert transport.decode_handshake(body) == descriptor
        # An older peer's body still carries a ``seed``: it is ignored.
        older = pickle.dumps({
            "protocol": transport.PROTOCOL_VERSION, "seed": 7,
            "descriptor": descriptor,
        })
        assert transport.decode_handshake(older) == descriptor

    def test_malformed_handshake(self):
        with pytest.raises(TransportError, match="malformed"):
            transport.decode_handshake(pickle.dumps(["not", "a", "dict"]))
        with pytest.raises(TransportError, match="undecodable"):
            transport.decode_handshake(b"\x80garbage")


class TestParseAddress:
    def test_valid(self):
        assert transport.parse_address("node-3:7441") == ("node-3", 7441)

    @pytest.mark.parametrize("text", ["bare-host", ":99", "host:port"])
    def test_invalid(self, text):
        with pytest.raises(TransportError):
            transport.parse_address(text)


class TestStreamHelpers:
    def test_socket_round_trip(self):
        left, right = socket.socketpair()
        try:
            body = b"x" * 100_000  # multiple recv() chunks
            thread = threading.Thread(
                target=transport.send_frame,
                args=(left, transport.MSG_SUBTREE, body),
            )
            thread.start()
            assert transport.recv_frame(right) == (transport.MSG_SUBTREE, body)
            thread.join()
        finally:
            left.close()
            right.close()

    def test_peer_closing_mid_frame_is_truncation(self):
        left, right = socket.socketpair()
        try:
            frame = transport.encode_frame(transport.MSG_SUBTREE, b"abcdef")
            left.sendall(frame[: len(frame) - 3])
            left.close()
            with pytest.raises(TransportError, match="truncated frame"):
                transport.recv_frame(right)
        finally:
            right.close()

    def test_peer_closing_between_frames(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(TransportError, match="closed by peer"):
                transport.recv_frame(right)
        finally:
            right.close()

    def test_corrupt_length_prefix_fails_fast(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("<I", transport.MAX_FRAME_BYTES + 5))
            left.sendall(b"\x01\x53")
            with pytest.raises(TransportError, match="implausible"):
                transport.recv_frame(right)
        finally:
            left.close()
            right.close()


class TestUnifiedHeaderValidation:
    """Both frame paths — buffered ``decode_frame`` and streaming
    ``recv_frame`` — must apply the *same* header checks and reject a
    corrupt header with the *same* error, and ``recv_frame`` must do so
    before reading the body (a garbled kind byte must not make it wait
    for a body that may never come)."""

    CASES = [
        # (frame bytes, error pattern) — each corrupt in the header.
        (
            struct.pack(
                "<IBB", 4, transport.PROTOCOL_VERSION ^ 0xFF,
                transport.MSG_HEARTBEAT,
            ) + b"xy",
            "unsupported protocol version",
        ),
        (
            struct.pack("<IBB", 4, transport.PROTOCOL_VERSION, 0x00)
            + b"xy",
            "unknown frame kind",
        ),
        (
            struct.pack("<IBB", 4, transport.PROTOCOL_VERSION, 0x7A)
            + b"xy",
            "unknown frame kind",
        ),
        (
            struct.pack(
                "<IBB", 1, transport.PROTOCOL_VERSION, transport.MSG_HEARTBEAT
            ),
            "implausible frame length",
        ),
    ]

    @pytest.mark.parametrize("frame,pattern", CASES)
    def test_rejected_identically_on_both_paths(self, frame, pattern):
        with pytest.raises(TransportError, match=pattern) as decoded:
            transport.decode_frame(frame)
        left, right = socket.socketpair()
        try:
            left.sendall(frame)
            with pytest.raises(TransportError, match=pattern) as received:
                transport.recv_frame(right)
        finally:
            left.close()
            right.close()
        assert str(decoded.value) == str(received.value)

    def test_recv_rejects_header_before_body_arrives(self):
        """A valid-length header with a garbled kind is refused without
        the body: the sender never provides one, yet recv_frame returns
        immediately instead of blocking for it."""
        left, right = socket.socketpair()
        try:
            right.settimeout(5.0)
            left.sendall(
                struct.pack(
                    "<IBB", 1000, transport.PROTOCOL_VERSION, 0x7A
                )
            )  # promises a 998-byte body that will never come
            with pytest.raises(TransportError, match="unknown frame kind"):
                transport.recv_frame(right)
        finally:
            left.close()
            right.close()


class TestRetiredKinds:
    """Protocol version 4 retired the level-synchronous kinds and CANCEL,
    version 7 MUTATE and DELTA (a commit rides CATCHUP), version 8
    ANNOUNCE (a member heartbeats its coordinator; nothing registers),
    version 9 STOP (a session ends when its connection closes).
    Their bytes are not aliases of anything: no ``MSG_*`` constant holds
    one, and both decoders refuse one from the header alone, naming the
    byte, without waiting for the body the length promises."""

    @pytest.mark.parametrize(
        "kind",
        [0x4A, 0x4C, 0x43, 0x42, 0x58, 0x4D, 0x44, 0x41, 0x53],
        ids=["JOB", "LEVEL", "COLLECT", "REBALANCE", "CANCEL", "MUTATE",
             "DELTA", "ANNOUNCE", "STOP"],
    )
    def test_a_retired_kind_is_refused_from_its_header(self, kind):
        assert kind not in transport._KNOWN_KINDS
        assert kind not in {
            value for name, value in vars(transport).items()
            if name.startswith("MSG_")
        }
        header = struct.pack("<IBB", 10, transport.PROTOCOL_VERSION, kind)
        expected = f"unknown frame kind {kind:#x}"
        with pytest.raises(TransportError, match=expected):
            transport.decode_frame(header + bytes(8))
        left, right = socket.socketpair()
        try:
            right.settimeout(5.0)
            left.sendall(header)  # the 8-byte body never comes
            with pytest.raises(TransportError, match=expected):
                transport.recv_frame(right)
        finally:
            left.close()
            right.close()


def _assert_refused_by_both_decoders(version):
    frame = struct.pack("<IBB", 2, version, transport.MSG_HEARTBEAT)
    expected = (
        f"unsupported protocol version {version}; this build speaks "
        f"version {transport.PROTOCOL_VERSION}"
    )
    with pytest.raises(TransportError, match=expected):
        transport.decode_frame(frame)
    left, right = socket.socketpair()
    try:
        right.settimeout(5.0)
        left.sendall(frame)
        with pytest.raises(TransportError, match=expected):
            transport.recv_frame(right)
    finally:
        left.close()
        right.close()


def test_a_version_4_header_is_refused_by_both_decoders():
    """A version-4 peer announces a two-part name the descriptor no
    longer has: its frames are refused from the header alone, by the
    buffer decoder and the stream reader alike."""
    _assert_refused_by_both_decoders(4)


def test_a_version_5_header_is_refused_by_both_decoders():
    """A version-5 peer ships ``(query, order)`` in a SUBTREE job and
    expects the member to plan it; a version-6 job carries the plan.
    Refused from the header alone, like version 4."""
    _assert_refused_by_both_decoders(5)


def test_a_version_6_header_is_refused_by_both_decoders():
    """A version-6 coordinator commits with MUTATE and waits for a
    DELTA ack; a version-7 commit is a CATCHUP nobody waits on.
    Refused from the header alone, like versions 4 and 5."""
    _assert_refused_by_both_decoders(6)


def test_a_version_7_header_is_refused_by_both_decoders():
    """A version-7 worker heartbeats only a registry and would read a
    coordinator-bound HEARTBEAT as a stray; a version-8 member
    heartbeats its data connection.  Refused from the header alone, so
    the two never share a session."""
    _assert_refused_by_both_decoders(7)


def test_a_version_8_header_is_refused_by_both_decoders():
    """A version-8 coordinator ends a session with a STOP frame, which
    a version-9 worker no longer knows; a version-9 session ends when
    its connection closes.  Refused from the header alone."""
    _assert_refused_by_both_decoders(8)


class TestQueryTaggedFrames:
    """The job family (§2.5): an 8-byte little-endian query id ahead of
    the kind's own body."""

    def test_round_trip_every_query_kind(self):
        for kind in sorted(transport.QUERY_KINDS):
            body = transport.encode_query_body(42, b"payload")
            assert transport.decode_frame(
                transport.encode_frame(kind, body)
            ) == (kind, body)

    def test_query_kinds_is_the_tagged_set(self):
        # Everything in QUERY_KINDS — and nothing else — leads with the
        # u64 tag; the chaos sniffer and the worker dispatch both key
        # off this set.
        assert transport.QUERY_KINDS == frozenset({
            transport.MSG_SUBTREE, transport.MSG_LEVEL_REPLY,
            transport.MSG_QERROR,
        })

    def test_the_kind_table_has_nine_entries(self):
        # One job shape: version 4 retired the level-synchronous kinds
        # JOB/LEVEL/COLLECT/REBALANCE and CANCEL (a SUBTREE request is
        # stateless); version 1's untagged kinds are long gone too.
        # Version 5 named a member by one integer (the descriptor lost
        # its second id); version 6 ships the coordinator's plan in a
        # SUBTREE job; version 7 retired MUTATE/DELTA (a commit rides
        # CATCHUP); version 8 retired ANNOUNCE (HEARTBEAT moved onto
        # the data connection); version 9 retired STOP (closing the
        # connection ends a session), leaving nine kinds.
        assert len(transport._KNOWN_KINDS) == 9
        assert transport.PROTOCOL_VERSION == 9
        assert transport.MSG_SUBTREE == ord("T")
        for retired in b"JLCBXMDAS" + b"cjlrq":
            with pytest.raises(TransportError, match="unknown frame kind"):
                transport.encode_frame(retired)

    def test_tag_layout_is_the_documented_one(self):
        # docs/WIRE_FORMAT.md §2.5: u64 LE query id, then the body.
        assert transport.encode_query_body(7, b"payload").hex() == (
            "0700000000000000" + b"payload".hex()
        )
        assert transport.encode_frame(
            transport.MSG_QERROR, transport.encode_query_body(7)
        ).hex() == "0a00000009650700000000000000"

    def test_split_round_trip(self):
        for query_id in (0, 1, 7, 2**32, 2**64 - 1):
            for payload in (b"", b"x", b"payload" * 100):
                tagged = transport.encode_query_body(query_id, payload)
                assert transport.split_query_body(tagged) == (
                    query_id, payload
                )

    def test_query_id_must_fit_u64(self):
        with pytest.raises(TransportError, match="fit u64"):
            transport.encode_query_body(-1)
        with pytest.raises(TransportError, match="fit u64"):
            transport.encode_query_body(2**64)
        with pytest.raises(TransportError, match="fit u64"):
            transport.encode_query_body("7")

    def test_short_body_is_refused(self):
        with pytest.raises(
            TransportError,
            match="3 bytes is shorter than its 8-byte query id tag",
        ):
            transport.split_query_body(b"\x01\x02\x03")
        with pytest.raises(TransportError, match="shorter"):
            transport.split_query_body(b"")
        # Exactly the tag is legal: COLLECT and CANCEL carry nothing
        # else.
        assert transport.split_query_body(
            transport.encode_query_body(9)
        ) == (9, b"")

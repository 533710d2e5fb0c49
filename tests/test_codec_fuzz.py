"""Codec fuzzing: malformed bytes must fail *predictably*.

Both decoders that eat bytes straight off the network have a total
contract:

* :func:`repro.core.candidates.candidate_set_from_bytes` (and
  :func:`decode_versioned`) either return a decoded value or raise
  :class:`ValueError` — never ``struct.error``, ``IndexError`` or a
  hang;
* :func:`repro.parallel.transport.decode_frame` /
  :func:`recv_frame` either return ``(kind, body)`` frames or raise
  :class:`TransportError`.

The tests are table-driven over seeded random corruptions — truncation,
bit flips, byte substitutions, spliced garbage, pure noise — and every
failure message logs the seed (and corruption number) for replay.
``REPRO_FUZZ_CASES`` scales the corruption count per corpus entry.
"""

import os
import random
import socket

import pytest

from repro import Hypergraph
from repro.core.candidates import (
    candidate_set_from_bytes,
    decode_versioned,
    encode_chunks_payload,
    encode_mask_payload,
    encode_tuple_payload,
    encode_versioned,
)
from repro.errors import TransportError
from repro.hypergraph import INDEX_BACKENDS, build_index
from repro.parallel import transport

NUM_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "120"))
SEED = 0xC0DEC


def fuzz_graph():
    return Hypergraph(
        labels=["A", "C", "A", "A", "B", "C", "A"],
        edges=[{2, 4}, {4, 6}, {0, 1, 2}, {3, 5, 6},
               {0, 1, 4, 6}, {2, 3, 4, 5}],
    )


def corrupt(rng, payload):
    """One random corruption of ``payload`` (never a no-op by intent)."""
    choice = rng.randrange(6)
    if choice == 0:  # truncate
        return payload[: rng.randrange(len(payload) + 1)]
    if choice == 1:  # flip one bit
        if not payload:
            return b"\x00"
        data = bytearray(payload)
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    if choice == 2:  # overwrite one byte
        if not payload:
            return b"\xff"
        data = bytearray(payload)
        data[rng.randrange(len(data))] = rng.randrange(256)
        return bytes(data)
    if choice == 3:  # splice random garbage into the middle
        at = rng.randrange(len(payload) + 1)
        junk = bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
        return payload[:at] + junk + payload[at:]
    if choice == 4:  # drop a middle slice
        if len(payload) < 2:
            return b""
        low = rng.randrange(len(payload))
        high = rng.randrange(low, len(payload) + 1)
        return payload[:low] + payload[high:]
    # pure noise, no relation to the input
    return bytes(rng.randrange(256) for _ in range(rng.randint(0, 64)))


def candidate_corpus(rng):
    """Payloads whose row coordinates fit the 6-row fuzz-graph index."""
    return [
        encode_tuple_payload(()),
        encode_tuple_payload((0, 3, 5)),
        encode_tuple_payload(tuple(sorted(rng.sample(range(10 ** 6), 40)))),
        encode_mask_payload(0b101101),
        encode_mask_payload(rng.getrandbits(6), row_offset=3),
        encode_chunks_payload({0: (1, 5)}),
        encode_chunks_payload({0: rng.getrandbits(6) | 1}),
    ]


def wild_candidate_corpus(rng):
    """Well-formed payloads with out-of-space coordinates — must be
    *rejected* (ValueError), never decoded into absurd masks."""
    return [
        encode_mask_payload(rng.getrandbits(200), row_offset=17),
        encode_mask_payload(1, row_offset=(1 << 32) - 1),
        encode_chunks_payload({0: rng.getrandbits(64) | 1, 3: (2, 4, 8)}),
        encode_chunks_payload({(1 << 32) - 1: (0,)}),
    ]


@pytest.fixture(scope="module")
def indexes():
    graph = fuzz_graph()
    rows = tuple(range(graph.num_edges))
    return [None] + [
        build_index(backend, graph, rows) for backend in INDEX_BACKENDS
    ]


def test_candidate_decoder_accepts_its_own_encodings(indexes):
    rng = random.Random(SEED)
    for payload in candidate_corpus(rng):
        for index in indexes:
            try:
                candidate_set_from_bytes(payload, index)
            except ValueError:
                # Mask/chunk payloads legitimately require an index.
                assert index is None


def test_candidate_decoder_rejects_out_of_space_coordinates(indexes):
    rng = random.Random(SEED)
    for payload in wild_candidate_corpus(rng):
        for index in indexes:
            if index is None or not hasattr(index, "row_to_edge"):
                # merge indexes have no row space of their own; they
                # bound coordinates by the absolute wire ceiling,
                # checked below.
                continue
            with pytest.raises(ValueError):
                candidate_set_from_bytes(payload, index)
    merge = indexes[1 + list(INDEX_BACKENDS).index("merge")]
    assert not hasattr(merge, "row_to_edge")
    for payload in (
        encode_mask_payload(1, row_offset=(1 << 32) - 1),
        encode_chunks_payload({(1 << 32) - 1: (0,)}),
    ):
        with pytest.raises(ValueError):
            candidate_set_from_bytes(payload, merge)


def test_candidate_decoder_never_crashes_on_corruption(indexes):
    rng = random.Random(SEED)
    corpus = candidate_corpus(rng) + wild_candidate_corpus(rng)
    for case in range(NUM_CASES):
        payload = corrupt(rng, corpus[case % len(corpus)])
        for index in indexes:
            try:
                candidate_set_from_bytes(payload, index)
            except ValueError:
                pass
            except Exception as exc:  # pragma: no cover - the bug report
                backend = getattr(index, "backend", None)
                pytest.fail(
                    f"candidate decoder raised {type(exc).__name__} ({exc}) "
                    f"instead of ValueError: seed={SEED:#x} case={case} "
                    f"backend={backend} payload={payload.hex()}"
                )


def test_versioned_wrapper_never_crashes_on_corruption():
    rng = random.Random(SEED + 1)
    base = encode_versioned(encode_tuple_payload((1, 2, 3)))
    assert decode_versioned(base) == encode_tuple_payload((1, 2, 3))
    for case in range(NUM_CASES):
        payload = corrupt(rng, base)
        try:
            decode_versioned(payload)
        except ValueError:
            pass
        except Exception as exc:  # pragma: no cover - the bug report
            pytest.fail(
                f"decode_versioned raised {type(exc).__name__} ({exc}): "
                f"seed={SEED + 1:#x} case={case} payload={payload.hex()}"
            )


# ---------------------------------------------------------------------------
# Transport frames
# ---------------------------------------------------------------------------

def frame_corpus(rng):
    return [
        transport.encode_frame(transport.MSG_HEARTBEAT),
        transport.encode_frame(transport.MSG_HELLO, b"hello-body"),
        transport.encode_frame(transport.MSG_CATCHUP, bytes(rng.randrange(256) for _ in range(64))),
        transport.encode_frame(transport.MSG_CATCHUP_REPLY, b"\x00" * 32),
        transport.encode_frame(
            transport.MSG_LEVEL_REPLY,
            transport.encode_query_body(7, b"payload"),
        ),
    ]


def test_decode_frame_never_crashes_on_corruption():
    rng = random.Random(SEED + 2)
    corpus = frame_corpus(rng)
    for case in range(NUM_CASES):
        data = corrupt(rng, corpus[case % len(corpus)])
        try:
            kind, _ = transport.decode_frame(data)
            assert kind in transport._KNOWN_KINDS
        except TransportError:
            pass
        except Exception as exc:  # pragma: no cover - the bug report
            pytest.fail(
                f"decode_frame raised {type(exc).__name__} ({exc}) instead "
                f"of TransportError: seed={SEED + 2:#x} case={case} "
                f"data={data.hex()}"
            )


def test_recv_frame_never_crashes_or_hangs_on_corrupt_streams():
    """A corrupted byte stream fed through a real socket either yields
    valid frames or dies with TransportError — bounded by a socket
    timeout, so a decoder that hangs fails the test instead of CI."""
    rng = random.Random(SEED + 3)
    corpus = frame_corpus(rng)
    for case in range(40):
        stream = b"".join(
            corrupt(rng, corpus[rng.randrange(len(corpus))])
            for _ in range(rng.randint(1, 4))
        )
        reader, writer = socket.socketpair()
        try:
            reader.settimeout(10.0)
            writer.sendall(stream)
            writer.close()
            for _ in range(16):  # more frames than the stream can hold
                try:
                    kind, _ = transport.recv_frame(reader)
                    assert kind in transport._KNOWN_KINDS
                except TransportError:
                    break
                except Exception as exc:  # pragma: no cover - the bug report
                    pytest.fail(
                        f"recv_frame raised {type(exc).__name__} ({exc}) "
                        f"instead of TransportError: seed={SEED + 3:#x} "
                        f"case={case} stream={stream.hex()}"
                    )
            else:  # pragma: no cover - the bug report
                pytest.fail(
                    f"recv_frame never terminated the corrupt stream: "
                    f"seed={SEED + 3:#x} case={case} stream={stream.hex()}"
                )
        finally:
            reader.close()


def test_recv_frame_round_trips_clean_frames():
    rng = random.Random(SEED + 4)
    frames = frame_corpus(rng)
    reader, writer = socket.socketpair()
    try:
        reader.settimeout(10.0)
        writer.sendall(b"".join(frames))
        writer.close()
        for expected in frames:
            kind, body = transport.recv_frame(reader)
            assert transport.encode_frame(kind, body) == expected
        with pytest.raises(TransportError):
            transport.recv_frame(reader)
    finally:
        reader.close()

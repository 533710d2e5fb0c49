"""Worker discovery: the registry server and the worker-side announcer.

The registry is one-way (workers speak ANNOUNCE then HEARTBEATs; the
registry never replies), so the contract under test is entirely about
*membership*: announcing registers, heartbeating within the deadline
keeps the record, silence past ``interval × miss_budget`` evicts,
garbage evicts with a protocol-error reason, a re-announced identity
supersedes the stale record (latest wins), and eviction records feed
pollers through a monotone cursor.  The integration half proves the
real pipeline: ``spawn_local_cluster(announce=...)`` populates the
registry and ``ShardPool.from_registry`` composes a pool from
it with counts bit-identical to an address-configured run.
"""

from __future__ import annotations

import random
import socket
import time

import pytest

from repro import HGMatch
from repro.errors import SchedulerError
from repro.parallel import (
    Announcer,
    ShardDescriptor,
    ShardPool,
    WorkerRegistry,
    spawn_local_cluster,
    transport,
)
from repro.testing import make_random_instance

#: Fast heartbeat for tests: eviction deadline = 0.1 * 3 = 0.3s.
INTERVAL = 0.1


def _descriptor(shard_id=0):
    return ShardDescriptor(
        shard_id=shard_id,
        index_backend="bitset",
        graph_edges=8,
        graph_vertices=6,
    ).as_dict()


def _announce(registry, descriptor, address=("10.0.0.1", 7000), seed=0):
    """Open a raw announcer connection; returns the socket (caller
    keeps it open — closing it evicts the record)."""
    sock = socket.create_connection(registry.address, timeout=5.0)
    transport.send_frame(
        sock,
        transport.MSG_ANNOUNCE,
        transport.encode_announce(address, descriptor, seed),
    )
    return sock


def _wait(predicate, timeout=5.0, step=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


# ----------------------------------------------------------------------
# Registry units (raw sockets, no real workers)
# ----------------------------------------------------------------------


def test_registry_validates_knobs():
    with pytest.raises(SchedulerError, match="heartbeat_interval"):
        WorkerRegistry(heartbeat_interval=0.0)
    with pytest.raises(SchedulerError, match="miss_budget"):
        WorkerRegistry(miss_budget=0)
    registry = WorkerRegistry()
    with pytest.raises(SchedulerError, match="not started"):
        registry.address


def test_announce_registers_and_close_evicts():
    with WorkerRegistry(heartbeat_interval=INTERVAL) as registry:
        sock = _announce(registry, _descriptor(0), ("10.0.0.1", 7000))
        try:
            assert _wait(lambda: registry.is_live(0))
            record = registry.record(0)
            assert record.address == ("10.0.0.1", 7000)
            assert record.descriptor.shard_id == 0
            generation = registry.generation
        finally:
            sock.close()
        # Connection loss is an eviction, visible to cursor pollers.
        assert _wait(lambda: not registry.is_live(0))
        cursor, evicted = registry.evictions_since(0)
        assert cursor == 1
        assert evicted[0].shard_id == 0
        assert "connection" in evicted[0].reason
        assert registry.generation > generation


def test_missed_heartbeats_evict_with_deadline_reason():
    with WorkerRegistry(
        heartbeat_interval=INTERVAL, miss_budget=2
    ) as registry:
        sock = _announce(registry, _descriptor(1))
        try:
            assert _wait(lambda: registry.is_live(1))
            # Go silent: no heartbeats ever.  Eviction within a few
            # deadlines (0.2s), with the miss accounting in the reason.
            assert _wait(lambda: not registry.is_live(1))
            _, evicted = registry.evictions_since(0)
            assert "heartbeat" in evicted[-1].reason
        finally:
            sock.close()


def test_heartbeats_keep_the_record_alive():
    with WorkerRegistry(
        heartbeat_interval=INTERVAL, miss_budget=2
    ) as registry:
        sock = _announce(registry, _descriptor(0))
        try:
            assert _wait(lambda: registry.is_live(0))
            # Heartbeat for 5 deadlines' worth of wall clock.
            for _ in range(10):
                transport.send_frame(sock, transport.MSG_HEARTBEAT)
                time.sleep(INTERVAL / 2)
            assert registry.is_live(0)
            assert registry.evictions_since(0) == (0, [])
        finally:
            sock.close()


def test_garbage_evicts_as_protocol_error():
    with WorkerRegistry(heartbeat_interval=INTERVAL) as registry:
        sock = _announce(registry, _descriptor(0))
        try:
            assert _wait(lambda: registry.is_live(0))
            sock.sendall(b"\xff" * 32)  # not a frame
            assert _wait(lambda: not registry.is_live(0))
            _, evicted = registry.evictions_since(0)
            assert "protocol error" in evicted[-1].reason
        finally:
            sock.close()


def test_heartbeat_before_announce_is_refused():
    with WorkerRegistry(heartbeat_interval=INTERVAL) as registry:
        sock = socket.create_connection(registry.address, timeout=5.0)
        try:
            transport.send_frame(sock, transport.MSG_HEARTBEAT)
            # The connection is dropped without ever having registered.
            assert _wait(
                lambda: registry.snapshot() == [], timeout=2.0
            )
        finally:
            sock.close()


def test_reannounce_supersedes_latest_wins():
    with WorkerRegistry(heartbeat_interval=INTERVAL) as registry:
        stale = _announce(registry, _descriptor(0), ("10.0.0.1", 7000))
        try:
            assert _wait(lambda: registry.is_live(0))
            fresh = _announce(
                registry, _descriptor(0), ("10.0.0.2", 7000)
            )
            try:
                assert _wait(
                    lambda: (
                        registry.is_live(0)
                        and registry.record(0).address
                        == ("10.0.0.2", 7000)
                    )
                )
                # The stale connection dying must NOT evict the fresh
                # record: it was superseded, not lost.
                stale.close()
                time.sleep(INTERVAL * 2)
                assert registry.is_live(0)
                assert registry.record(0).address == (
                    "10.0.0.2", 7000
                )
            finally:
                fresh.close()
        finally:
            stale.close()


def test_membership_addresses_and_wait_for():
    with WorkerRegistry(heartbeat_interval=INTERVAL) as registry:
        with pytest.raises(SchedulerError, match=r"\[0, 1\]"):
            registry.addresses(2)
        socks = [
            _announce(
                registry,
                _descriptor(shard_id),
                ("10.0.0.1", 7000 + shard_id),
            )
            for shard_id in range(2)
        ]
        try:
            addresses = registry.wait_for(2, timeout=5.0)
            assert addresses == [
                ("10.0.0.1", 7000), ("10.0.0.1", 7001),
            ]
            assert [r.shard_id for r in registry.snapshot()] == [0, 1]
        finally:
            for sock in socks:
                sock.close()


def test_wait_for_times_out_naming_missing_slots():
    with WorkerRegistry(heartbeat_interval=INTERVAL) as registry:
        sock = _announce(registry, _descriptor(0))
        try:
            assert _wait(lambda: registry.is_live(0))
            with pytest.raises(
                SchedulerError, match="did not discover"
            ):
                registry.wait_for(2, timeout=0.3)
        finally:
            sock.close()


# ----------------------------------------------------------------------
# Announcer units
# ----------------------------------------------------------------------


def test_announcer_registers_and_heartbeats():
    descriptor = _descriptor(1)
    with WorkerRegistry(
        heartbeat_interval=INTERVAL, miss_budget=2
    ) as registry:
        announcer = Announcer(
            registry.address,
            lambda: (("10.0.0.9", 7100), descriptor, 0),
            interval=INTERVAL,
            rng=random.Random(5),
        )
        announcer.start()
        try:
            assert announcer.announced.wait(timeout=5.0)
            assert _wait(lambda: registry.is_live(1))
            # Outlive several eviction deadlines: heartbeats flow.
            time.sleep(INTERVAL * 6)
            assert registry.is_live(1)
        finally:
            announcer.stop()
        assert _wait(lambda: not registry.is_live(1))


def test_announcer_reconnects_after_eviction():
    """An announcer whose connection the registry drops (garbage evicts
    it) re-announces on its own — the record comes back."""
    descriptor = _descriptor(0)
    with WorkerRegistry(
        heartbeat_interval=INTERVAL, miss_budget=2
    ) as registry:
        announcer = Announcer(
            registry.address,
            lambda: (("10.0.0.9", 7100), descriptor, 0),
            interval=INTERVAL,
            rng=random.Random(5),
        )
        announcer.start()
        try:
            assert announcer.announced.wait(timeout=5.0)
            assert _wait(lambda: registry.is_live(0))
            # Sever from the registry side: drop every connection by
            # restarting nothing — instead poison the record by closing
            # the announcer's socket out from under it via a stale
            # supersede (a second announce for the same identity).
            stale = _announce(
                registry, descriptor, ("10.0.0.9", 7100)
            )
            stale.close()
            # The raw announce supersedes the announcer's connection
            # and then dies — the record is evicted ...
            assert _wait(lambda: bool(registry.evictions), timeout=10.0)
            # ... and the announcer's reconnect loop must notice its
            # superseded session and re-register on its own.
            assert _wait(
                lambda: registry.is_live(0), timeout=10.0
            )
        finally:
            announcer.stop()


# ----------------------------------------------------------------------
# Integration: real workers announcing, a pool composed by discovery
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def instance():
    rng = random.Random(987)
    while True:
        candidate = make_random_instance(rng)
        if candidate is not None:
            return candidate


def test_cluster_announces_and_from_registry_composes(instance):
    data, query = instance
    engine = HGMatch(data, index_backend="bitset")
    with WorkerRegistry(heartbeat_interval=INTERVAL) as registry:
        cluster = spawn_local_cluster(
            data, 2, index_backend="bitset",
            announce=registry.address, heartbeat_interval=INTERVAL,
        )
        executor = ShardPool.from_registry(
            registry, 2, index_backend="bitset", wait_timeout=15.0,
        )
        try:
            assert executor.registry is registry
            assert (
                executor.run(engine, query).embeddings
                == engine.count(query)
            )
            # The records carry real descriptors of the real workers.
            for record in registry.snapshot():
                assert record.descriptor.index_backend == "bitset"
                assert record.address in cluster.addresses
        finally:
            executor.close()
            cluster.close()
            engine.close()


def test_killed_worker_is_evicted(instance):
    data, _query = instance
    with WorkerRegistry(
        heartbeat_interval=INTERVAL, miss_budget=2
    ) as registry:
        cluster = spawn_local_cluster(
            data, 2, index_backend="bitset",
            announce=registry.address, heartbeat_interval=INTERVAL,
        )
        try:
            registry.wait_for(2, timeout=15.0)
            cluster.kill_member(1)
            assert _wait(lambda: not registry.is_live(1))
            _, evicted = registry.evictions_since(0)
            assert any(record.shard_id == 1 for record in evicted)
        finally:
            cluster.close()

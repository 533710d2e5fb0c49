"""Elastic pool membership: live grow/shrink and registry-fed failover.

The acceptance bar for the elastic runtime: a pool grown mid-lifetime
(``admit``) and a pool that lost and readmitted a member both produce
counts **bit-identical** to a static run; a drained member leaves the
pool serving with the rest; and a worker that stops heartbeating is
evicted by the registry, which the coordinator turns into mid-job
failover well before its I/O timeout.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from repro import HGMatch
from repro.errors import SchedulerError
from repro.hypergraph import INDEX_BACKENDS
from repro.parallel import (
    Announcer,
    ShardPool,
    ShardWorker,
    WorkerRegistry,
    spawn_local_cluster,
    transport,
)
from repro.testing import make_random_instance


@pytest.fixture(scope="module")
def elastic_instance():
    """One deterministic (data, query) pair with expected counts per
    backend — every elastic reconfiguration must reproduce these."""
    rng = random.Random(987)
    instances = []
    while len(instances) < 1:
        instance = make_random_instance(rng)
        if instance is not None:
            instances.append(instance)
    data, query = instances[0]
    expected = {}
    for backend in INDEX_BACKENDS:
        engine = HGMatch(data, index_backend=backend)
        try:
            expected[backend] = engine.count(query)
        finally:
            engine.close()
    return data, query, expected


def _spare_worker(data, shard_id, backend):
    """Boot one in-thread worker (the newcomer to admit)."""
    worker = ShardWorker(data, shard_id, index_backend=backend)
    address = worker.bind()
    thread = threading.Thread(
        target=worker.serve_forever, kwargs={"max_sessions": 1},
        daemon=True,
    )
    thread.start()
    return worker, address


# ----------------------------------------------------------------------
# Grow: admit newcomers mid-lifetime
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_admit_grows_two_member_pool_to_four_with_parity(
    elastic_instance, backend
):
    """The headline acceptance gate: admit members 2 and 3 into a
    running two-member pool; the newcomers join the member list, every
    member takes a part, and counts stay bit-identical on every index
    backend."""
    data, query, expected = elastic_instance
    engine = HGMatch(data, index_backend=backend)
    cluster = spawn_local_cluster(data, 2, index_backend=backend)
    executor = ShardPool(
        addresses=list(cluster.addresses), index_backend=backend,
    )
    spares = []
    try:
        assert executor.run(engine, query).embeddings == expected[backend]
        for shard_id in (2, 3):
            worker, address = _spare_worker(data, shard_id, backend)
            spares.append(worker)
            descriptor = executor.admit(address)
            assert descriptor.shard_id == shard_id
        result = executor.run(engine, query)
        assert result.embeddings == expected[backend]
        assert len(result.worker_stats) == 4
        # The newcomers are real members: drop the originals and the
        # newcomers carry the whole job.
        executor.drain(0)
        executor.drain(1)
        assert executor.run(engine, query).embeddings == expected[backend]
    finally:
        executor.close()
        for worker in spares:
            worker.close()
        cluster.close()
        engine.close()


def test_admit_readmits_a_lost_member(elastic_instance):
    """Lose a member (killed process) of a four-member pool, fail over,
    respawn it and fold it back in with ``admit`` — counts match
    before, during, after."""
    data, query, expected = elastic_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    cluster = spawn_local_cluster(data, 4, index_backend=backend)
    executor = ShardPool(
        addresses=list(cluster.addresses), index_backend=backend
    )
    try:
        assert executor.run(engine, query).embeddings == expected[backend]
        # Lose member 0 for real (process killed).
        cluster.kill_member(0)
        executor.drain(0)  # reads nothing; removes it
        assert executor.run(engine, query).embeddings == expected[backend]
        # Respawn the slot and readmit the fresh worker.
        address = cluster.respawn(0)
        descriptor = executor.admit(address)
        assert descriptor.shard_id == 0
        assert executor.run(engine, query).embeddings == expected[backend]
    finally:
        executor.close()
        cluster.close()
        engine.close()


@pytest.mark.parametrize("name", [2, 7, 31])
def test_admit_appends_a_member_under_any_free_name(elastic_instance, name):
    """The member list is flat: a ``shard_id`` is an identity, not a
    cell of a grid.  A newcomer under a name the pool never had — next
    in line or skipping ahead — passes the handshake, joins as one more
    member and takes a part."""
    data, query, expected = elastic_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    executor = ShardPool(num_shards=2, index_backend=backend)
    newcomer = None
    try:
        assert executor.run(engine, query).embeddings == expected[backend]
        newcomer, address = _spare_worker(data, name, backend)
        descriptor = executor.admit(address)
        assert descriptor.shard_id == name
        result = executor.run(engine, query)
        assert result.embeddings == expected[backend]
        assert len(result.worker_stats) == 3
    finally:
        executor.close()
        if newcomer is not None:
            newcomer.close()
        engine.close()


def test_admit_refuses_bad_newcomers(elastic_instance):
    data, query, expected = elastic_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    executor = ShardPool(num_shards=2, index_backend=backend)
    try:
        with pytest.raises(SchedulerError, match="no live pool"):
            executor.admit(("127.0.0.1", 1))
        assert executor.run(engine, query).embeddings == expected[backend]
        # Duplicate name: a fresh worker claiming 0, which the pool
        # already holds.
        impostor, address = _spare_worker(data, 0, backend)
        try:
            with pytest.raises(SchedulerError, match="both announced"):
                executor.admit(address)
        finally:
            impostor.close()
        # Dead address: connection refused surfaces as SchedulerError.
        with pytest.raises(SchedulerError, match="could not connect"):
            executor.admit(("127.0.0.1", 1))
        # Failed admissions leave the pool fully serviceable.
        assert executor.run(engine, query).embeddings == expected[backend]
    finally:
        executor.close()
        engine.close()


# ----------------------------------------------------------------------
# Shrink: drain a member
# ----------------------------------------------------------------------


def test_drain_unknown_member_errors(elastic_instance):
    data, query, _expected = elastic_instance
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(num_shards=2, index_backend="bitset")
    try:
        with pytest.raises(SchedulerError, match="no live pool"):
            executor.drain(0)
        executor.run(engine, query)
        with pytest.raises(SchedulerError, match="not a live member"):
            executor.drain(7)
        with pytest.raises(SchedulerError, match="not a live member"):
            executor.drain(2)
    finally:
        executor.close()
        engine.close()


# ----------------------------------------------------------------------
# Registry-fed failover: eviction beats the I/O timeout
# ----------------------------------------------------------------------


class _WedgedWorker:
    """A worker that handshakes honestly and then never answers: the
    severed-but-connected failure the registry's heartbeat eviction
    exists to catch (the TCP connection stays up, so only the missing
    heartbeats reveal it)."""

    def __init__(self, data, backend):
        # Borrow a real worker purely for its descriptor — the handshake
        # must be genuine for the coordinator to accept it.
        self._template = ShardWorker(data, 0, index_backend=backend)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def hello(self):
        address, descriptor, seed = self._template._announce_hello()
        return (self.address, descriptor, seed)

    def _serve(self):
        try:
            self._listener.settimeout(0.2)
            conn = None
            while conn is None and not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
            if conn is None:
                return
            with conn:
                conn.sendall(transport.encode_frame(
                    transport.MSG_HELLO, self._template._hello_body()
                ))
                conn.settimeout(0.2)
                while not self._stop.is_set():
                    try:
                        if conn.recv(65536) == b"":
                            return  # coordinator hung up
                    except socket.timeout:
                        continue
                    except OSError:
                        return
        finally:
            self._listener.close()

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._template.close()


def test_registry_eviction_unwedges_a_silent_worker(elastic_instance):
    """Gate (b)'s second half: a worker that wedges (connection open,
    replies and heartbeats both stop) is evicted by the registry, and
    the coordinator fails its part over to the live member long before
    the 60s I/O timeout — the job never wedges."""
    data, query, expected = elastic_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    with WorkerRegistry(
        heartbeat_interval=0.1, miss_budget=3
    ) as registry:
        wedged = _WedgedWorker(data, backend)
        announcer = Announcer(
            registry.address, wedged.hello, interval=0.1,
            rng=random.Random(1),
        )
        announcer.start()
        real = ShardWorker(
            data, 1, index_backend=backend,
            announce=registry.address, heartbeat_interval=0.1,
        )
        real.bind()
        real_thread = threading.Thread(
            target=real.serve_forever, daemon=True
        )
        real_thread.start()
        executor = None
        try:
            executor = ShardPool.from_registry(
                registry, 2, index_backend=backend, io_timeout=60.0,
                wait_timeout=15.0,
            )
            # The wedged worker takes one of the two parts and sits on
            # it.  Stop its heartbeats shortly after the job starts;
            # eviction must unwedge the job.
            timer = threading.Timer(0.3, announcer.stop)
            timer.start()
            started = time.monotonic()
            result = executor.run(engine, query)
            elapsed = time.monotonic() - started
            timer.cancel()
            assert result.embeddings == expected[backend]
            assert elapsed < 30.0, (
                f"job took {elapsed:.1f}s — eviction did not beat the "
                f"I/O timeout"
            )
            # The wedged name is gone from the member list.
            assert executor._member(0) is None
        finally:
            if executor is not None:
                executor.close()
            announcer.stop()
            wedged.close()
            real.close()
            engine.close()


# ----------------------------------------------------------------------
# Discovery vs drain: re-ANNOUNCE while the name is being drained
# ----------------------------------------------------------------------


def test_reannounce_during_drain_supersedes_and_readmits(elastic_instance):
    """A worker re-ANNOUNCing while its name is being drained must not
    confuse either side: the registry's latest-wins record survives the
    drain untouched (discovery is a separate one-way channel), the
    drained pool keeps answering exactly, and the re-announced address
    is admittable right back into the pool."""
    data, query, expected = elastic_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    cluster = spawn_local_cluster(data, 4, index_backend=backend)
    executor = ShardPool(
        addresses=list(cluster.addresses), index_backend=backend
    )
    spare = None
    announcer = None
    with WorkerRegistry(heartbeat_interval=0.05) as registry:
        try:
            assert (
                executor.run(engine, query).embeddings == expected[backend]
            )
            # The replacement for member 1 announces itself (a
            # supervised restart at a fresh port) and keeps announcing
            # while the coordinator drains the old member of the same
            # identity.
            spare, spare_address = _spare_worker(data, 1, backend)
            announcer = Announcer(
                registry.address, spare._announce_hello, interval=0.05,
                rng=random.Random(5),
            )
            announcer.start()
            assert announcer.announced.wait(5.0)
            executor.drain(1)
            assert executor.run(engine, query).embeddings == expected[backend]
            # The registry record was superseded by the re-announce and
            # the drain never touched it: latest wins, and it points at
            # the spare, not the drained member.
            record = registry.record(1)
            assert record is not None
            assert tuple(record.address) == tuple(spare_address)
            # The discovered address folds straight back into the pool.
            descriptor = executor.admit(spare_address)
            assert descriptor.shard_id == 1
            assert executor.run(engine, query).embeddings == expected[backend]
        finally:
            if announcer is not None:
                announcer.stop()
            executor.close()
            if spare is not None:
                spare.close()
            cluster.close()
            engine.close()


# ----------------------------------------------------------------------
# Catch-up: stale workers rejoin a mutated pool (§2.10)
# ----------------------------------------------------------------------


def _rebuild_count(engine, query, backend):
    """Count on a fresh engine over the mutated graph's dense snapshot."""
    oracle = HGMatch(engine.data.to_hypergraph(), index_backend=backend)
    try:
        return oracle.count(query)
    finally:
        oracle.close()


def test_respawned_member_rejoins_via_catchup_batches(elastic_instance):
    """Kill a member, mutate the graph, respawn the slot from its
    spawn-time data: the newcomer announces a stale graph version and
    the handshake gate streams it the missed batches (CATCHUP, §2.10)
    instead of refusing — counts stay bit-identical throughout."""
    from repro.testing import random_mutation_schedule

    data, query, expected = elastic_instance
    backend = "merge"
    engine = HGMatch(data, index_backend=backend)
    cluster = spawn_local_cluster(data, 4, index_backend=backend)
    try:
        executor = engine.pool(hosts=list(cluster.addresses))
        assert executor.run(engine, query).embeddings == expected[backend]
        cluster.kill_member(0)
        executor.drain(0)
        # Mutate while the slot is empty: the eventual respawn rebuilds
        # from the spawn-time graph and comes back stale.
        rng = random.Random(31)
        result = None
        for batch in random_mutation_schedule(rng, data, steps=3):
            result = engine.apply_mutations(batch)
        assert result is not None and result.version == 3
        oracle = _rebuild_count(engine, query, backend)
        assert executor.run(engine, query).embeddings == oracle
        address = cluster.respawn(0)
        descriptor = executor.admit(address)
        assert descriptor.shard_id == 0
        # The returned descriptor is the post-catch-up re-validation:
        # the newcomer is *at* the engine's version, not merely admitted.
        assert descriptor.graph_version == result.version
        assert descriptor.graph_edges == engine.data.num_edges
        assert executor.run(engine, query).embeddings == oracle
    finally:
        engine.close()
        cluster.close()


def test_respawned_member_rejoins_via_catchup_snapshot(elastic_instance):
    """Same rejoin, but the retained batch suffix has aged out: the
    gate falls back to shipping a full snapshot, from which the worker
    rebuilds its store."""
    from repro.testing import random_mutation_schedule

    data, query, expected = elastic_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    cluster = spawn_local_cluster(data, 4, index_backend=backend)
    try:
        executor = engine.pool(hosts=list(cluster.addresses))
        assert executor.run(engine, query).embeddings == expected[backend]
        cluster.kill_member(3)
        executor.drain(3)
        rng = random.Random(47)
        result = None
        for batch in random_mutation_schedule(rng, data, steps=2):
            result = engine.apply_mutations(batch)
        # Age out the retained suffix: batch replay is now impossible,
        # only the snapshot route remains.
        engine.data._history.clear()
        assert engine.data.batches_since(0) is None
        oracle = _rebuild_count(engine, query, backend)
        address = cluster.respawn(3)
        descriptor = executor.admit(address)
        assert descriptor.shard_id == 3
        assert descriptor.graph_version == result.version
        assert executor.run(engine, query).embeddings == oracle
    finally:
        engine.close()
        cluster.close()

"""Elastic pool membership: live grow/shrink and registry-fed failover.

The acceptance bar for the elastic runtime: a pool grown from K=1 to
K=2 mid-lifetime (``admit``) and a pool that lost and readmitted a
replica both produce counts **bit-identical** to a static run; a
drained replica leaves the pool serving at reduced K; draining the
*last* replica of a shard retires the shard — its rows are recut onto
the surviving shards via REBALANCE — and counts still match; and a
worker that stops heartbeating is evicted by the registry, which the
coordinator turns into mid-job failover well before its I/O timeout.
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


def _spare_worker(data, shard_id, num_shards, backend, num_replicas=2,
                  replica_id=1):
    """Boot one in-thread shard worker (the newcomer to admit)."""
    worker = ShardWorker(
        data, shard_id, num_shards, index_backend=backend,
        replica_id=replica_id, num_replicas=num_replicas,
    )
    address = worker.bind()
    thread = threading.Thread(
        target=worker.serve_forever, kwargs={"max_sessions": 1},
        daemon=True,
    )
    thread.start()
    return worker, address


# ----------------------------------------------------------------------
# Grow: K=1 -> K=2 mid-lifetime
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_admit_grows_k1_pool_to_k2_with_parity(elastic_instance, backend):
    """The headline acceptance gate: admit replica-1 workers into a
    running K=1 pool; K becomes 2 and counts stay bit-identical on
    every index backend."""
    data, query, expected = elastic_instance
    engine = HGMatch(data, index_backend=backend)
    cluster = spawn_local_cluster(data, 2, index_backend=backend)
    executor = ShardPool(
        addresses=list(cluster.addresses), index_backend=backend,
    )
    spares = []
    try:
        assert executor.run(engine, query).embeddings == expected[backend]
        assert executor.num_replicas == 1
        for shard_id in range(2):
            worker, address = _spare_worker(
                data, shard_id, 2, backend
            )
            spares.append(worker)
            descriptor = executor.admit(address)
            assert descriptor.shard_id == shard_id
            assert descriptor.replica_id == 1
        assert executor.num_replicas == 2
        assert executor.run(engine, query).embeddings == expected[backend]
        # The grown replicas are real failover targets: drop replica 0
        # of each shard and the spares carry the whole job.
        executor.drain(0, replica_id=0)
        executor.drain(1, replica_id=0)
        assert executor.run(engine, query).embeddings == expected[backend]
    finally:
        executor.close()
        for worker in spares:
            worker.close()
        cluster.close()
        engine.close()


def test_admit_readmits_a_lost_replica(elastic_instance):
    """Lose a replica (killed process), fail over, respawn it and fold
    it back in with ``admit`` — counts match before, during, after."""
    data, query, expected = elastic_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    cluster = spawn_local_cluster(
        data, 2, index_backend=backend, num_replicas=2
    )
    executor = ShardPool(
        addresses=list(cluster.addresses),
        num_replicas=2,
        index_backend=backend,
    )
    try:
        assert executor.run(engine, query).embeddings == expected[backend]
        # Lose shard 0 replica 0 for real (process killed).
        cluster.kill_member(0, 0)
        executor.drain(0, replica_id=0)  # reads nothing; removes it
        assert executor.run(engine, query).embeddings == expected[backend]
        # Respawn the slot and readmit the fresh worker.
        address = cluster.respawn(0, 0)
        descriptor = executor.admit(address)
        assert (descriptor.shard_id, descriptor.replica_id) == (0, 0)
        assert executor.run(engine, query).embeddings == expected[backend]
    finally:
        executor.close()
        cluster.close()
        engine.close()


def test_admit_upgrades_newcomer_to_rebalanced_layout(elastic_instance):
    """A newcomer cut under the spawn placement must be REBALANCE-
    upgraded before joining a pool that runs a rebalanced layout."""
    data, query, expected = elastic_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    cluster = spawn_local_cluster(data, 2, index_backend=backend)
    executor = ShardPool(
        addresses=list(cluster.addresses), index_backend=backend,
    )
    spare = None
    try:
        first = executor.run_bfs(engine, query)  # per-range load
        assert first.embeddings == expected[backend]
        stats = sorted(first.worker_stats, key=lambda s: s.worker_id)
        stats[0].cpu_time, stats[1].cpu_time = 4.0, 1.0
        if executor.rebalance(stats) == 0:
            pytest.skip("synthetic skew did not move any shard")
        assert executor._sharding_label.startswith("rebalanced-")
        spare, address = _spare_worker(data, 0, 2, backend)
        descriptor = executor.admit(address)
        # The admitted worker echoes the *pool's* label, not its
        # spawn-mode one: it was upgraded during admission.
        assert descriptor.sharding == executor._sharding_label
        assert executor.run(engine, query).embeddings == expected[backend]
    finally:
        executor.close()
        if spare is not None:
            spare.close()
        cluster.close()
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
        # Duplicate identity: a fresh worker claiming slot (0, 0),
        # which the pool already holds.
        impostor, address = _spare_worker(
            data, 0, 2, backend, num_replicas=1, replica_id=0,
        )
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
# Shrink: drain a replica, retire a shard
# ----------------------------------------------------------------------


def test_drain_to_retire_recuts_ranges_with_parity(elastic_instance):
    """Draining the last replica of a shard retires it: the pool recuts
    the retired shard's rows onto the survivors (REBALANCE) and counts
    stay bit-identical with fewer active shards."""
    data, query, expected = elastic_instance
    backend = "merge"
    engine = HGMatch(data, index_backend=backend)
    executor = ShardPool(num_shards=3, index_backend=backend)
    try:
        assert executor.run(engine, query).embeddings == expected[backend]
        label = executor.drain(1)
        assert label is not None and label.startswith("rebalanced-")
        assert executor._retired == {1}
        assert executor._active_shards() == [0, 2]
        assert executor.run(engine, query).embeddings == expected[backend]
        # Retire another; a single survivor still carries the job.
        assert executor.drain(2) is not None
        assert executor.run(engine, query).embeddings == expected[backend]
        # The last member of the pool is not drainable.
        with pytest.raises(SchedulerError, match="last live member"):
            executor.drain(0)
        # A retired shard's identity cannot come back.
        with pytest.raises(SchedulerError, match="retired"):
            executor.admit(executor._cluster.addresses[1])
    finally:
        executor.close()
        engine.close()


def test_drain_unknown_member_errors(elastic_instance):
    data, query, _expected = elastic_instance
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(num_shards=2, index_backend="bitset")
    try:
        with pytest.raises(SchedulerError, match="no live pool"):
            executor.drain(0)
        executor.run(engine, query)
        with pytest.raises(SchedulerError, match="outside"):
            executor.drain(7)
        with pytest.raises(SchedulerError, match="not a live member"):
            executor.drain(0, replica_id=1)
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

    def __init__(self, data, backend, num_replicas=2):
        # Borrow a real worker's shard purely for its descriptor — the
        # handshake must be genuine for the coordinator to accept it.
        self._template = ShardWorker(
            data, 0, 1, index_backend=backend,
            replica_id=0, num_replicas=num_replicas,
        )
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
    the coordinator fails the LEVEL over to the live replica long
    before the 60s I/O timeout — the job never wedges."""
    data, query, expected = elastic_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    with WorkerRegistry(
        heartbeat_interval=0.1, miss_budget=3
    ) as registry:
        wedged = _WedgedWorker(data, backend, num_replicas=2)
        announcer = Announcer(
            registry.address, wedged.hello, interval=0.1,
            rng=random.Random(1),
        )
        announcer.start()
        real = ShardWorker(
            data, 0, 1, index_backend=backend,
            replica_id=1, num_replicas=2,
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
                registry, 1, num_replicas=2,
                index_backend=backend, io_timeout=60.0,
                wait_timeout=15.0,
            )
            # The wedged worker is replica 0 — it receives the first
            # LEVEL and sits on it.  Stop its heartbeats shortly after
            # the job starts; eviction must unwedge the job.
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
            # The wedged identity is gone from the member grid.
            assert executor._members[0].get(0) is None
        finally:
            if executor is not None:
                executor.close()
            announcer.stop()
            wedged.close()
            real.close()
            engine.close()


# ----------------------------------------------------------------------
# Discovery vs drain: re-ANNOUNCE while the shard is being drained
# ----------------------------------------------------------------------


def test_reannounce_during_drain_supersedes_and_readmits(elastic_instance):
    """A worker re-ANNOUNCing while its shard is being drained must not
    confuse either side: the registry's latest-wins record survives the
    drain untouched (discovery is a separate one-way channel), the
    drained pool keeps answering exactly, and the re-announced address
    is admittable right back into the pool."""
    data, query, expected = elastic_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    cluster = spawn_local_cluster(
        data, 2, index_backend=backend, num_replicas=2
    )
    executor = ShardPool(
        addresses=list(cluster.addresses),
        num_replicas=2,
        index_backend=backend,
    )
    spare = None
    announcer = None
    with WorkerRegistry(heartbeat_interval=0.05) as registry:
        try:
            assert (
                executor.run(engine, query).embeddings == expected[backend]
            )
            # The replacement for shard 0 replica 1 announces itself (a
            # supervised restart at a fresh port) and keeps announcing
            # while the coordinator drains the old member of the same
            # identity.
            spare, spare_address = _spare_worker(data, 0, 2, backend)
            announcer = Announcer(
                registry.address, spare._announce_hello, interval=0.05,
                rng=random.Random(5),
            )
            announcer.start()
            assert announcer.announced.wait(5.0)
            executor.drain(0, replica_id=1)
            assert executor.run(engine, query).embeddings == expected[backend]
            # The registry record was superseded by the re-announce and
            # the drain never touched it: latest wins, and it points at
            # the spare, not the drained member.
            record = registry.record(0, replica_id=1)
            assert record is not None
            assert tuple(record.address) == tuple(spare_address)
            # The discovered address folds straight back into the pool.
            descriptor = executor.admit(spare_address)
            assert (descriptor.shard_id, descriptor.replica_id) == (0, 1)
            assert executor.run(engine, query).embeddings == expected[backend]
        finally:
            if announcer is not None:
                announcer.stop()
            executor.close()
            if spare is not None:
                spare.close()
            cluster.close()
            engine.close()


def test_retired_shard_ids_are_refused_readmission(elastic_instance):
    """The exact refusal for a retired identity is pinned: retirement
    recuts the shard's rows onto the survivors, so readmitting its id
    would double-own rows — the error must say so."""
    data, query, expected = elastic_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    executor = ShardPool(num_shards=2, index_backend=backend)
    spare = None
    try:
        assert executor.run(engine, query).embeddings == expected[backend]
        assert executor.drain(1) is not None  # last replica: retires it
        assert executor.run(engine, query).embeddings == expected[backend]
        spare, spare_address = _spare_worker(
            data, 1, 2, backend, num_replicas=1, replica_id=0
        )
        with pytest.raises(
            SchedulerError,
            match=r"cannot admit a worker for retired shard 1: its "
                  r"rows were recut onto the surviving shards",
        ):
            executor.admit(spare_address)
    finally:
        executor.close()
        if spare is not None:
            spare.close()
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


def test_respawned_replica_rejoins_via_catchup_batches(elastic_instance):
    """Kill a replica, mutate the graph, respawn the slot from its
    spawn-time data: the newcomer announces a stale graph version and
    the handshake gate streams it the missed batches (CATCHUP, §2.10)
    instead of refusing — counts stay bit-identical throughout."""
    from repro.testing import random_mutation_schedule

    data, query, expected = elastic_instance
    backend = "merge"
    engine = HGMatch(data, index_backend=backend)
    cluster = spawn_local_cluster(
        data, 2, index_backend=backend, num_replicas=2
    )
    try:
        executor = engine.pool(
            hosts=list(cluster.addresses), replicas=2
        )
        assert executor.run(engine, query).embeddings == expected[backend]
        cluster.kill_member(0, 0)
        executor.drain(0, replica_id=0)
        # Mutate while the slot is empty: the eventual respawn rebuilds
        # from the spawn-time graph and comes back stale.
        rng = random.Random(31)
        result = None
        for batch in random_mutation_schedule(rng, data, steps=3):
            result = engine.apply_mutations(batch)
        assert result is not None and result.version == 3
        oracle = _rebuild_count(engine, query, backend)
        assert executor.run(engine, query).embeddings == oracle
        address = cluster.respawn(0, 0)
        descriptor = executor.admit(address)
        assert (descriptor.shard_id, descriptor.replica_id) == (0, 0)
        # The returned descriptor is the post-catch-up re-validation:
        # the newcomer is *at* the engine's version, not merely admitted.
        assert descriptor.graph_version == result.version
        assert descriptor.graph_edges == engine.data.num_edges
        assert executor.run(engine, query).embeddings == oracle
    finally:
        engine.close()
        cluster.close()


def test_respawned_replica_rejoins_via_catchup_snapshot(elastic_instance):
    """Same rejoin, but the retained batch suffix has aged out: the
    gate falls back to shipping a full snapshot with the placement
    label so the worker recuts its shard from scratch."""
    from repro.testing import random_mutation_schedule

    data, query, expected = elastic_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    cluster = spawn_local_cluster(
        data, 2, index_backend=backend, num_replicas=2
    )
    try:
        executor = engine.pool(
            hosts=list(cluster.addresses), replicas=2
        )
        assert executor.run(engine, query).embeddings == expected[backend]
        cluster.kill_member(1, 1)
        executor.drain(1, replica_id=1)
        rng = random.Random(47)
        result = None
        for batch in random_mutation_schedule(rng, data, steps=2):
            result = engine.apply_mutations(batch)
        # Age out the retained suffix: batch replay is now impossible,
        # only the snapshot route remains.
        engine.data._history.clear()
        assert engine.data.batches_since(0) is None
        oracle = _rebuild_count(engine, query, backend)
        address = cluster.respawn(1, 1)
        descriptor = executor.admit(address)
        assert (descriptor.shard_id, descriptor.replica_id) == (1, 1)
        assert descriptor.graph_version == result.version
        assert executor.run(engine, query).embeddings == oracle
    finally:
        engine.close()
        cluster.close()

"""Deterministic fault injection: the chaos harness and the failover
matrix it drives.

The unit half pins the :class:`~repro.parallel.chaos.FaultPlan`
semantics (frame counting, single-use faults, pickling without
killers, the version-byte garble).  The integration half is the
robustness contract of the socket runtime: for every fault the plan
can express — sever, garble, kill, slow worker, dropped reply — a
four-member pool must finish the job with counts **bit-identical** to
the unfaulted run, and losing the *last* member must fail fast with a
clean :class:`SchedulerError`, never a hang.  Faults are pinned to
protocol frame positions, so every test reproduces the same failure at
the same request on every run.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import threading
import time

import pytest

from repro import HGMatch
from repro.errors import SchedulerError
from repro.hypergraph import INDEX_BACKENDS
from repro.parallel import (
    FaultPlan,
    LocalCluster,
    QueryChannel,
    ShardPool,
    spawn_local_cluster,
)
from repro.parallel.chaos import ChaosSeveredError, ChaosSocket
from repro.service import MatchService
from repro.testing import make_random_instance


@pytest.fixture(scope="module")
def chaos_instance():
    """One deterministic (data, query) pair with its expected counts
    per backend — computed once; every fault scenario must reproduce
    these numbers exactly."""
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


# ----------------------------------------------------------------------
# FaultPlan / ChaosSocket units
# ----------------------------------------------------------------------


class _RecordingSock:
    """A sendall sink standing in for a real socket."""

    def __init__(self):
        self.frames = []
        self.closed = False

    def sendall(self, data):
        self.frames.append(bytes(data))

    def close(self):
        self.closed = True


def test_fault_plan_validates_and_reprs():
    plan = FaultPlan(seed=7)
    plan.sever(0, after_frames=2)
    plan.drop_reply(1, after_frames=3)
    assert "faults=2" in repr(plan) and "pending=2" in repr(plan)
    with pytest.raises(ValueError, match="1-based"):
        plan.sever(0, after_frames=0)
    with pytest.raises(ValueError, match="role"):
        plan.sever(0, after_frames=1, role="bystander")
    with pytest.raises(ValueError, match="role"):
        plan.wrap(_RecordingSock(), "bystander")
    # The seeded rng is reproducible harness state.
    assert FaultPlan(seed=5).rng.random() == random.Random(5).random()


def test_fault_plan_pickles_without_killers():
    plan = FaultPlan(seed=3)
    plan.kill_worker(1, 0, after_frames=2)
    plan.arm_killer(1, 0, lambda: None)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone._killers == {}
    assert [f.kind for f in clone.faults] == ["kill"]
    assert clone.seed == 3


def test_frames_count_per_connection_and_faults_fire_once():
    plan = FaultPlan()
    plan.drop_reply(0, 0, after_frames=2)
    raw_a = _RecordingSock()
    raw_b = _RecordingSock()
    sock_a = plan.wrap(raw_a, "worker", 0, 0)
    sock_b = plan.wrap(raw_b, "worker", 0, 1)  # different replica
    frame = b"\x01\x00\x00\x00\x01X"
    for sock in (sock_a, sock_b):
        sock.sendall(frame)
        sock.sendall(frame)  # frame 2: dropped only on (0, 0)
        sock.sendall(frame)
    assert len(raw_a.frames) == 2  # frame 2 vanished, fault consumed
    assert len(raw_b.frames) == 3  # wrong replica: untouched
    assert sock_a.frames_sent == 3
    assert all(f.consumed for f in plan.faults)


def test_garble_flips_exactly_the_version_byte():
    plan = FaultPlan()
    plan.garble(0, after_frames=2, role="worker")
    raw = _RecordingSock()
    sock = plan.wrap(raw, "worker", 0, 0)
    frame = b"\x02\x00\x00\x00\x01H"  # u32 len | version | kind
    sock.sendall(frame)
    sock.sendall(frame)
    clean, garbled = raw.frames
    assert clean == frame
    assert garbled[4] == frame[4] ^ 0xFF
    assert garbled[:4] == frame[:4] and garbled[5:] == frame[5:]


def test_sever_closes_the_socket_and_raises_oserror():
    plan = FaultPlan()
    plan.sever(1, after_frames=1)
    raw = _RecordingSock()
    sock = plan.wrap(raw, "coordinator")
    sock.bind_endpoint(1, 0)  # identity learned post-handshake
    with pytest.raises(ChaosSeveredError):
        sock.sendall(b"xxxx")
    assert raw.closed and raw.frames == []


def test_unarmed_kill_degrades_to_sever_after_sending():
    plan = FaultPlan()
    plan.kill_worker(0, 0, after_frames=1)
    raw = _RecordingSock()
    sock = plan.wrap(raw, "coordinator", 0, 0)
    with pytest.raises(OSError):
        sock.sendall(b"frame")
    assert raw.frames == [b"frame"]  # the frame went out first
    assert raw.closed


def test_unbound_wrapper_passes_frames_through():
    plan = FaultPlan()
    plan.sever(0, after_frames=1)
    raw = _RecordingSock()
    sock = plan.wrap(raw, "coordinator")  # identity never bound
    sock.sendall(b"frame")
    assert raw.frames == [b"frame"]
    assert isinstance(sock, ChaosSocket)
    assert not plan.faults[0].consumed


# ----------------------------------------------------------------------
# The failover matrix (2 x 2 pools, exact counts under faults)
# ----------------------------------------------------------------------
#
# Every case runs twice.  ``channels=1`` is the solo job
# (``executor.run``; the fault pinned to the connection's frame count).
# ``channels=2`` is the same fault with two ``QueryChannel``s in flight
# on the one pool, pinned to *query 1's* frames via ``query_id=`` — the
# multiplexed half of the matrix: both counts must equal the sequential
# ``merge`` engine, neither query may see an error, nothing may stay
# registered, and a fresh job on the same pool must be exact.

MATRIX = pytest.mark.parametrize("channels", [1, 2])


def _pin(channels, solo_frame, query_frame=None):
    """``after_frames=`` / ``query_id=`` for one matrix row: the
    connection's ``solo_frame``-th frame, or query 1's
    ``query_frame``-th (HELLO is untagged, so worker-role pins shift
    by one; coordinator-role pins do not — a SUBTREE is tagged)."""
    if channels == 1:
        return {"after_frames": solo_frame}
    return {
        "after_frames": solo_frame if query_frame is None else query_frame,
        "query_id": 1,
    }


def _run_matrix_row(executor, engine, query, channels, expected):
    """Run ``channels`` jobs on ``executor`` and hold them to
    ``expected``; see the section comment for what is asserted."""
    if channels == 1:
        assert executor.run(engine, query).embeddings == expected
        return
    counts, errors = {}, {}

    def work(query_id):
        channel = QueryChannel(executor, query_id=query_id)
        try:
            counts[query_id] = channel.count(engine, query).embeddings
        except BaseException as exc:  # reported below, on the main thread
            errors[query_id] = exc
        finally:
            executor.release(query_id)

    threads = [
        threading.Thread(target=work, args=(query_id,), daemon=True)
        for query_id in (1, 2)
    ]
    threads[0].start()
    # The victim registers and sends its parts in one go — one to every
    # member, as alone — so the pinned frame is the one the solo case
    # pins, whatever query 2 does next.
    deadline = time.monotonic() + 30.0
    while (
        1 not in executor._queries
        and threads[0].is_alive()
        and time.monotonic() < deadline
    ):
        time.sleep(0.001)
    threads[1].start()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive()
    assert not errors, errors
    assert counts == {1: expected, 2: expected}
    assert not executor._queries
    assert executor.run(engine, query).embeddings == expected


@MATRIX
@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_kill_worker_mid_level_fails_over(chaos_instance, backend, channels):
    """The acceptance scenario: kill a worker process right after its
    part's request lands on it (mid-SUBTREE); another member must
    finish the job with bit-identical counts on every index backend."""
    data, query, expected = chaos_instance
    engine = HGMatch(data, index_backend=backend)
    plan = FaultPlan(seed=11)
    plan.kill_worker(0, 0, **_pin(channels, 1))  # frame 1 = its SUBTREE
    cluster = spawn_local_cluster(
        data, 2, index_backend=backend, num_replicas=2
    )
    plan.arm_killer(0, 0, lambda: cluster.kill_member(0, 0))
    executor = ShardPool(
        addresses=list(cluster.addresses),
        num_replicas=2,
        index_backend=backend,
        io_timeout=60.0,
        chaos=plan,
    )
    try:
        _run_matrix_row(executor, engine, query, channels, expected["merge"])
        assert all(f.consumed for f in plan.faults)
    finally:
        executor.close()
        cluster.close()
        engine.close()


@MATRIX
def test_sever_mid_level_fails_over(chaos_instance, channels):
    """A severed coordinator connection mid-job (worker survives)
    re-dispatches the in-flight part to a live member."""
    data, query, expected = chaos_instance
    engine = HGMatch(data, index_backend="bitset")
    plan = FaultPlan(seed=2)
    plan.sever(1, 0, **_pin(channels, 1))
    cluster = spawn_local_cluster(
        data, 2, index_backend="bitset", num_replicas=2
    )
    executor = ShardPool(
        addresses=list(cluster.addresses),
        num_replicas=2,
        index_backend="bitset",
        io_timeout=60.0,
        chaos=plan,
    )
    try:
        _run_matrix_row(executor, engine, query, channels, expected["merge"])
        assert all(f.consumed for f in plan.faults)
    finally:
        executor.close()
        cluster.close()
        engine.close()


@MATRIX
def test_garbled_frame_fails_over(chaos_instance, channels):
    """A corrupted SUBTREE frame makes the worker reject the session
    (it must never guess); the coordinator treats the lost session like
    any disconnect and fails over."""
    data, query, expected = chaos_instance
    engine = HGMatch(data, index_backend="merge")
    plan = FaultPlan(seed=4)
    plan.garble(0, 0, **_pin(channels, 1))
    cluster = spawn_local_cluster(
        data, 2, index_backend="merge", num_replicas=2
    )
    executor = ShardPool(
        addresses=list(cluster.addresses),
        num_replicas=2,
        index_backend="merge",
        io_timeout=60.0,
        chaos=plan,
    )
    try:
        _run_matrix_row(executor, engine, query, channels, expected["merge"])
        assert all(f.consumed for f in plan.faults)
    finally:
        executor.close()
        cluster.close()
        engine.close()


@MATRIX
def test_dropped_reply_hits_deadline_then_fails_over(
    chaos_instance, channels
):
    """A swallowed reply (wedged worker: connection up, silence) trips
    the per-frame deadline; the part is re-dispatched to another member
    and counts stay exact."""
    data, query, expected = chaos_instance
    engine = HGMatch(data, index_backend="bitset")
    plan = FaultPlan(seed=6)
    plan.drop_reply(1, 0, **_pin(channels, 2, 1))  # frame 1=HELLO, 2=reply
    cluster = spawn_local_cluster(
        data, 2, index_backend="bitset", num_replicas=2, chaos=plan
    )
    executor = ShardPool(
        addresses=list(cluster.addresses),
        num_replicas=2,
        index_backend="bitset",
        io_timeout=1.5,
        chaos=plan,
    )
    try:
        _run_matrix_row(executor, engine, query, channels, expected["merge"])
    finally:
        executor.close()
        cluster.close()
        engine.close()


@MATRIX
def test_slow_replica_triggers_speculation(chaos_instance, channels):
    """A straggling worker (delayed reply) makes the coordinator
    speculatively re-dispatch its part to an idle member; whichever
    reply lands first wins and the duplicate is discarded — counts are
    exact either way."""
    data, query, expected = chaos_instance
    plan = FaultPlan(seed=9)
    plan.slow_reply(0, 0, seconds=1.0, **_pin(channels, 2, 1))
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(
        num_shards=2,
        num_replicas=2,
        index_backend="bitset",
        speculate_after=0.2,
        io_timeout=60.0,
        chaos=plan,
    )
    try:
        _run_matrix_row(executor, engine, query, channels, expected["merge"])
    finally:
        executor.close()
        engine.close()


def test_zero_replica_loss_fails_fast(chaos_instance):
    """Killing the pool's only member mid-job must raise a clean
    SchedulerError — no spare, no hang."""
    data, query, _ = chaos_instance
    engine = HGMatch(data, index_backend="bitset")
    plan = FaultPlan(seed=3)
    plan.kill_worker(0, 0, after_frames=1)
    # ... before it answers (worker frame 1 = HELLO, 2 = the reply).
    plan.slow_reply(0, 0, after_frames=2, seconds=1.0)
    cluster = spawn_local_cluster(data, 1, index_backend="bitset", chaos=plan)
    plan.arm_killer(0, 0, lambda: cluster.kill_member(0, 0))
    executor = ShardPool(
        addresses=list(cluster.addresses),
        index_backend="bitset",
        io_timeout=30.0,
        chaos=plan,
    )
    try:
        with pytest.raises(SchedulerError, match="disconnected mid-job"):
            executor.run(engine, query)
    finally:
        executor.close()
        cluster.close()
        engine.close()


def test_last_replica_lost_on_a_shared_pool_fails_both_and_heals(
    chaos_instance, kill_mid_job, monkeypatch
):
    """One pool per engine: a solo job runs on the service's workers.
    Losing *a* member costs a subtree job nothing (its part is re-sent
    to a survivor); losing the *last* one (the respawn refused) while a
    service query is in flight beside the solo job fails *both* typed
    and takes the cluster down; the next query, solo or served, opens a
    fresh one and is exact."""
    data, query, expected = chaos_instance
    engine = HGMatch(data, index_backend="bitset", shards=2)
    plan = FaultPlan(seed=5)
    # Holds the solo job in flight: each worker's first frame for query
    # 0 is the reply to its part — delayed, so the service query queues
    # behind it (on worker 0: the tie goes to the lowest member) and
    # cannot be answered before the kills land.
    plan.slow_reply(0, 0, after_frames=1, seconds=1.0, query_id=0)
    plan.slow_reply(1, 0, after_frames=1, seconds=1.0, query_id=0)
    service = MatchService(engine, shards=2, chaos=plan, cache_capacity=0)
    pool = service.pool
    failures = {}

    def solo():
        try:
            engine.count(query, executor="processes")
        except SchedulerError as exc:
            failures["solo"] = exc

    try:
        assert service.match(query).embeddings == expected["bitset"]
        pids = [process.pid for process in pool._cluster.processes]
        thread = threading.Thread(target=solo, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            with pool._lock:
                state = pool._queries.get(0)
                if state is not None and state.pending:
                    break  # both parts are out, both replies held
            time.sleep(0.001)

        def refuse(*_):
            raise SchedulerError("respawn refused (test)")

        with monkeypatch.context() as patch:
            patch.setattr(LocalCluster, "respawn", refuse)
            # The service query's request going out kills both workers.
            killed = kill_mid_job(
                pool, 1, then=lambda: os.kill(pids[0], signal.SIGKILL)
            )
            with pytest.raises(SchedulerError, match="disconnected mid-job"):
                service.match(query)
            thread.join(timeout=30.0)
        assert killed["killed"] and not thread.is_alive()
        assert "disconnected mid-job" in str(failures["solo"])
        assert not pool._queries and pool._cluster is None
        assert service.match(query).embeddings == expected["bitset"]
        assert engine.pool() is pool
        assert (
            engine.count(query, executor="processes") == expected["bitset"]
        )
    finally:
        engine.close()


# ----------------------------------------------------------------------
# MUTATE-pinned faults: degrade on broadcast, rejoin via catch-up
# ----------------------------------------------------------------------


def _rebuild_count(engine, query, backend):
    """Count on a fresh engine over the mutated graph's dense snapshot."""
    oracle = HGMatch(engine.data.to_hypergraph(), index_backend=backend)
    try:
        return oracle.count(query)
    finally:
        oracle.close()


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_kill_pinned_to_mutate_degrades_then_catchup_rejoins(
    chaos_instance, backend
):
    """Kill a worker process exactly on the MUTATE broadcast frame: the
    commit drops that member (others remain), the next query's counts
    are bit-identical to a rebuild on the mutated graph, and the
    respawned worker rejoins via catch-up (§2.10) rather than being
    refused for its stale version."""
    from repro.testing import random_mutation_schedule

    data, query, expected = chaos_instance
    engine = HGMatch(data, index_backend=backend)
    plan = FaultPlan(seed=13)
    # On a fresh pool the handshake sends no coordinator frames, so the
    # MUTATE is frame 1 on every connection.
    plan.kill_worker(0, 0, after_frames=1)
    cluster = spawn_local_cluster(
        data, 2, index_backend=backend, num_replicas=2
    )
    plan.arm_killer(0, 0, lambda: cluster.kill_member(0, 0))
    executor = ShardPool(
        addresses=list(cluster.addresses),
        num_replicas=2,
        index_backend=backend,
        io_timeout=60.0,
        chaos=plan,
    )
    try:
        executor.ensure_open(engine)
        rng = random.Random(17)
        result = None
        for batch in random_mutation_schedule(rng, data, steps=2):
            result = engine.apply_mutations(batch)
            executor.mutate(engine, batch, result)
        assert all(f.consumed for f in plan.faults)
        oracle = _rebuild_count(engine, query, backend)
        # Three live members, counts still exact.
        assert executor.run(engine, query).embeddings == oracle
        # The respawned slot rebuilds from spawn-time data (version 0);
        # only the CATCHUP route lets it rejoin the mutated pool.
        address = cluster.respawn(0, 0)
        descriptor = executor.admit(address)
        assert (descriptor.shard_id, descriptor.replica_id) == (0, 0)
        assert descriptor.graph_version == result.version
        assert executor.run(engine, query).embeddings == oracle
    finally:
        executor.close()
        cluster.close()
        engine.close()


def test_sever_pinned_to_mutate_degrades_then_catchup_rejoins(
    chaos_instance
):
    """Sever the coordinator connection on the MUTATE frame (worker
    survives but misses the batch): the commit drops that member, and
    readmitting the *same* worker — still at its spawn-time version —
    goes through catch-up and lands on the committed version."""
    from repro.testing import random_mutation_schedule

    data, query, expected = chaos_instance
    backend = "merge"
    engine = HGMatch(data, index_backend=backend)
    plan = FaultPlan(seed=29)
    plan.sever(1, 0, after_frames=1)
    cluster = spawn_local_cluster(
        data, 2, index_backend=backend, num_replicas=2
    )
    executor = ShardPool(
        addresses=list(cluster.addresses),
        num_replicas=2,
        index_backend=backend,
        io_timeout=60.0,
        chaos=plan,
    )
    try:
        executor.ensure_open(engine)
        rng = random.Random(23)
        batch = random_mutation_schedule(rng, data, steps=1)[0]
        result = engine.apply_mutations(batch)
        executor.mutate(engine, batch, result)
        assert all(f.consumed for f in plan.faults)
        oracle = _rebuild_count(engine, query, backend)
        assert executor.run(engine, query).embeddings == oracle
        # The severed worker process never died and never applied the
        # batch: readmission finds it stale and catch-up repairs it.
        address = cluster.addresses[1 * 2 + 0]
        descriptor = executor.admit(address)
        assert (descriptor.shard_id, descriptor.replica_id) == (1, 0)
        assert descriptor.graph_version == result.version
        assert executor.run(engine, query).embeddings == oracle
    finally:
        executor.close()
        cluster.close()
        engine.close()

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
import socket
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
    ShardWorker,
    spawn_local_cluster,
)
from repro.parallel import handshake, transport
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
        self.shut_down = False

    def sendall(self, data):
        self.frames.append(bytes(data))

    def shutdown(self, how):
        self.shut_down = how == socket.SHUT_RDWR

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
    plan.kill_worker(1, after_frames=2)
    plan.arm_killer(1, lambda: None)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone._killers == {}
    assert [f.kind for f in clone.faults] == ["kill"]
    assert clone.seed == 3


def test_frames_count_per_connection_and_faults_fire_once():
    plan = FaultPlan()
    plan.drop_reply(0, after_frames=2)
    raw_a = _RecordingSock()
    raw_b = _RecordingSock()
    sock_a = plan.wrap(raw_a, "worker", 0)
    sock_b = plan.wrap(raw_b, "worker", 1)  # different member
    frame = b"\x01\x00\x00\x00\x01X"
    for sock in (sock_a, sock_b):
        sock.sendall(frame)
        sock.sendall(frame)  # frame 2: dropped only on member 0
        sock.sendall(frame)
    assert len(raw_a.frames) == 2  # frame 2 vanished, fault consumed
    assert len(raw_b.frames) == 3  # wrong member: untouched
    assert sock_a.frames_sent == 3
    assert all(f.consumed for f in plan.faults)


def test_garble_flips_exactly_the_version_byte():
    plan = FaultPlan()
    plan.garble(0, after_frames=2, role="worker")
    raw = _RecordingSock()
    sock = plan.wrap(raw, "worker", 0)
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
    sock.bind_endpoint(1)  # identity learned post-handshake
    with pytest.raises(ChaosSeveredError):
        sock.sendall(b"xxxx")
    # Shut down before the close: the FIN reaches the peer even while a
    # forked process holds a copy of the socket.
    assert raw.shut_down and raw.closed and raw.frames == []


def test_unarmed_kill_degrades_to_sever_after_sending():
    plan = FaultPlan()
    plan.kill_worker(0, after_frames=1)
    raw = _RecordingSock()
    sock = plan.wrap(raw, "coordinator", 0)
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
# The failover matrix (four-member pools, exact counts under faults)
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

    def work(channel):
        query_id = channel.query_id
        try:
            counts[query_id] = channel.count(
                engine, engine.plan(query)
            ).embeddings
        except BaseException as exc:  # reported below, on the main thread
            errors[query_id] = exc
        finally:
            executor.release(query_id)

    # A fresh pool numbers its queries from 1: the victim is query 1.
    channels = [QueryChannel(executor), QueryChannel(executor)]
    assert [channel.query_id for channel in channels] == [1, 2]
    threads = [
        threading.Thread(target=work, args=(channel,), daemon=True)
        for channel in channels
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
    plan.kill_worker(0, **_pin(channels, 1))  # frame 1 = its SUBTREE
    cluster = spawn_local_cluster(data, 4, index_backend=backend)
    plan.arm_killer(0, lambda: cluster.kill_member(0))
    executor = ShardPool(
        addresses=list(cluster.addresses),
        index_backend=backend,
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
    plan.sever(2, **_pin(channels, 1))
    cluster = spawn_local_cluster(data, 4, index_backend="bitset")
    executor = ShardPool(
        addresses=list(cluster.addresses),
        index_backend="bitset",
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
    plan.garble(0, **_pin(channels, 1))
    cluster = spawn_local_cluster(data, 4, index_backend="merge")
    executor = ShardPool(
        addresses=list(cluster.addresses),
        index_backend="merge",
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
    chaos_instance, channels, monkeypatch
):
    """A swallowed reply (wedged worker: connection up, silence) trips
    the reply deadline; the part is re-dispatched to another member
    and counts stay exact."""
    monkeypatch.setattr(handshake, "REPLY_DEADLINE", 1.5)
    data, query, expected = chaos_instance
    engine = HGMatch(data, index_backend="bitset")
    plan = FaultPlan(seed=6)
    plan.drop_reply(2, **_pin(channels, 2, 1))  # frame 1=HELLO, 2=reply
    cluster = spawn_local_cluster(
        data, 4, index_backend="bitset", chaos=plan
    )
    executor = ShardPool(
        addresses=list(cluster.addresses),
        index_backend="bitset",
        chaos=plan,
    )
    try:
        _run_matrix_row(executor, engine, query, channels, expected["merge"])
    finally:
        executor.close()
        cluster.close()
        engine.close()


@MATRIX
def test_slow_member_part_is_answered_exactly(chaos_instance, channels):
    """A straggling worker (delayed reply) is simply waited for: its
    part is answered exactly by the member it was sent to, and nothing
    is sent twice — ``dispatched_frames`` moves by the number of parts
    (four per query alone on the pool; the second of two concurrent
    queries is cut in two)."""
    data, query, expected = chaos_instance
    plan = FaultPlan(seed=9)
    plan.slow_reply(0, seconds=1.0, **_pin(channels, 2, 1))
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(
        num_shards=4,
        index_backend="bitset",
        chaos=plan,
    )
    try:
        _run_matrix_row(executor, engine, query, channels, expected["merge"])
        parts = {1: 4, 2: 4 + 2 + 4}[channels]
        assert executor.dispatched_frames == parts
    finally:
        executor.close()
        engine.close()


def test_last_member_loss_fails_fast(chaos_instance):
    """Killing the pool's only member mid-job must raise a clean
    SchedulerError — no spare, no hang."""
    data, query, _ = chaos_instance
    engine = HGMatch(data, index_backend="bitset")
    plan = FaultPlan(seed=3)
    plan.kill_worker(0, after_frames=1)
    # ... before it answers (worker frame 1 = HELLO, 2 = the reply).
    plan.slow_reply(0, after_frames=2, seconds=1.0)
    cluster = spawn_local_cluster(data, 1, index_backend="bitset", chaos=plan)
    plan.arm_killer(0, lambda: cluster.kill_member(0))
    executor = ShardPool(
        addresses=list(cluster.addresses),
        index_backend="bitset",
        chaos=plan,
    )
    try:
        with pytest.raises(SchedulerError, match="disconnected mid-job"):
            executor.run(engine, query)
    finally:
        executor.close()
        cluster.close()
        engine.close()


@pytest.mark.usefixtures("pool_route")
def test_last_member_lost_on_a_shared_pool_fails_both_and_heals(
    chaos_instance, kill_mid_job, monkeypatch
):
    """One pool per engine: a solo job runs on the service's workers.
    Losing *a* member costs a subtree job nothing (its part is re-sent
    to a survivor); losing the *last* one (the respawn refused) while a
    service query is in flight beside the solo job fails *both* typed
    and ends the pool's sessions; the next query, solo or served, asks
    the same cluster to restart its workers and is exact."""
    data, query, expected = chaos_instance
    engine = HGMatch(data, index_backend="bitset", shards=2)
    plan = FaultPlan(seed=5)
    # Holds the solo job in flight: the warm-up service query is query
    # 1, so the solo job is query 2, and each worker's first frame for
    # it is the reply to its part — delayed, so the service query queues
    # behind it (on worker 0: the tie goes to the lowest member) and
    # cannot be answered before the kills land.
    plan.slow_reply(0, after_frames=1, seconds=1.0, query_id=2)
    plan.slow_reply(1, after_frames=1, seconds=1.0, query_id=2)
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
                state = pool._queries.get(2)
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
        assert not pool._queries and not pool._members
        cluster = pool._cluster
        assert service.match(query).embeddings == expected["bitset"]
        assert pool._cluster is cluster
        assert engine.pool() is pool
        assert (
            engine.count(query, executor="processes") == expected["bitset"]
        )
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Commit-pinned faults: degrade on the commit's CATCHUP, rejoin via
# the handshake's catch-up
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
    """Kill a worker process exactly on the commit's CATCHUP frame: the
    commit returns, the dead member fails into the ladder (others
    remain), the next query's counts are bit-identical to a rebuild on
    the mutated graph, and the respawned worker rejoins via the
    handshake's catch-up (§2.10) rather than being refused for its
    stale version."""
    from repro.testing import random_mutation_schedule

    data, query, expected = chaos_instance
    engine = HGMatch(data, index_backend=backend)
    plan = FaultPlan(seed=13)
    # On a fresh pool the handshake sends no coordinator frames, so the
    # first commit's CATCHUP is frame 1 on every connection.
    plan.kill_worker(0, after_frames=1)
    cluster = spawn_local_cluster(data, 4, index_backend=backend)
    plan.arm_killer(0, lambda: cluster.kill_member(0))
    executor = ShardPool(
        addresses=list(cluster.addresses),
        index_backend=backend,
        chaos=plan,
    )
    try:
        executor.ensure_open(engine)
        rng = random.Random(17)
        result = None
        for batch in random_mutation_schedule(rng, data, steps=2):
            result = engine.apply_mutations(batch)
            executor.mutate(engine, result)
        assert all(f.consumed for f in plan.faults)
        oracle = _rebuild_count(engine, query, backend)
        # Three live members, counts still exact.
        assert executor.run(engine, query).embeddings == oracle
        # The respawned slot rebuilds from spawn-time data (version 0);
        # only the CATCHUP route lets it rejoin the mutated pool.
        address = cluster.respawn(0)
        descriptor = executor.admit(address)
        assert descriptor.shard_id == 0
        assert descriptor.graph_version == result.version
        assert executor.run(engine, query).embeddings == oracle
    finally:
        executor.close()
        cluster.close()
        engine.close()


def test_sever_pinned_to_mutate_degrades_then_catchup_rejoins(
    chaos_instance
):
    """Sever the coordinator connection on the commit's CATCHUP frame
    (worker survives but misses the batch): the failed send drops that
    member and the commit returns, and readmitting the *same* worker —
    still at its spawn-time version — goes through the handshake's
    catch-up and lands on the committed version."""
    from repro.testing import random_mutation_schedule

    data, query, expected = chaos_instance
    backend = "merge"
    engine = HGMatch(data, index_backend=backend)
    plan = FaultPlan(seed=29)
    plan.sever(2, after_frames=1)
    cluster = spawn_local_cluster(data, 4, index_backend=backend)
    executor = ShardPool(
        addresses=list(cluster.addresses),
        index_backend=backend,
        chaos=plan,
    )
    try:
        executor.ensure_open(engine)
        rng = random.Random(23)
        batch = random_mutation_schedule(rng, data, steps=1)[0]
        result = engine.apply_mutations(batch)
        executor.mutate(engine, result)
        assert all(f.consumed for f in plan.faults)
        assert [m.name for m in executor._members] == [0, 1, 3]
        oracle = _rebuild_count(engine, query, backend)
        assert executor.run(engine, query).embeddings == oracle
        # The severed worker process never died and never applied the
        # batch: readmission finds it stale and catch-up repairs it.
        address = cluster.address_of(2)
        descriptor = executor.admit(address)
        assert descriptor.shard_id == 2
        assert descriptor.graph_version == result.version
        assert executor.run(engine, query).embeddings == oracle
    finally:
        executor.close()
        cluster.close()
        engine.close()


# ----------------------------------------------------------------------
# Silence: the pump's heartbeat detector
# ----------------------------------------------------------------------
#
# Every worker heartbeats its data connection from HELLO on, so a
# member the pump has heard nothing from for MISS_BUDGET intervals is
# dead or wedged.  A stopped process (SIGSTOP: connection up, every
# thread frozen) is exactly that failure; a slow or dropped *reply*
# leaves the heartbeats flowing and is not.


def _record_drops(monkeypatch):
    """Wrap the pool's one drop path: returns the list it appends
    ``(monotonic time, member name, cause)`` to."""
    drops = []
    original = ShardPool._drop_member

    def drop_member(pool, member, cause):
        dropped = original(pool, member, cause)
        if dropped:
            drops.append((time.monotonic(), member.name, cause))
        return dropped

    monkeypatch.setattr(ShardPool, "_drop_member", drop_member)
    return drops


@pytest.mark.parametrize("route", ["service", "fixed"])
def test_a_stopped_member_is_dropped_within_half_a_second(
    chaos_instance, monkeypatch, request, route
):
    """SIGSTOP member 0 right after its SUBTREE lands (mid-job): the
    pump drops it within 0.5 s of the stop — on a match service's own
    pool and on a fixed-address pool alike — the survivor answers its
    part and the count is exact.  The stopped process is killed and
    reaped afterwards."""
    data, query, expected = chaos_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    plan = FaultPlan(seed=43)
    plan.kill_worker(0, after_frames=1)
    stopped = {}
    cluster = service = None
    if route == "service":
        request.getfixturevalue("pool_route")
        service = MatchService(
            engine, shards=2, chaos=plan, cache_capacity=0
        )
        pool = service.pool
    else:
        cluster = spawn_local_cluster(data, 2, index_backend=backend)
        pool = ShardPool(
            addresses=list(cluster.addresses), index_backend=backend,
            chaos=plan,
        )

    def stop_member_0():
        owner = pool._cluster if cluster is None else cluster
        stopped["pid"] = owner.processes[0].pid
        os.kill(stopped["pid"], signal.SIGSTOP)
        stopped["at"] = time.monotonic()

    plan.arm_killer(0, stop_member_0)
    drops = _record_drops(monkeypatch)
    try:
        if service is not None:
            result = service.match(query)
        else:
            result = pool.run(engine, query)
        assert result.embeddings == expected["merge"]
        assert all(f.consumed for f in plan.faults)
        deadline = time.monotonic() + 5.0
        while not drops and time.monotonic() < deadline:
            time.sleep(0.01)
        (dropped_at, name, cause), = drops
        assert name == 0 and "silent for" in cause, cause
        assert dropped_at - stopped["at"] <= 0.5
        if service is not None:
            # The stopped worker is killed by the respawn the next
            # query's open performs; the pool heals on the same port.
            address = pool._cluster.address_of(0)
            assert service.match(query).embeddings == expected["merge"]
            assert pool._cluster.address_of(0) == address
    finally:
        if "pid" in stopped:
            try:
                os.kill(stopped["pid"], signal.SIGKILL)
            except ProcessLookupError:
                pass  # already respawned away
        if service is not None:
            service.close()
        else:
            pool.close()
            cluster.close()
        engine.close()


def test_a_slow_member_is_not_a_silent_one(chaos_instance, monkeypatch):
    """A 1.5 s delayed reply on a two-member pool is waited for: the
    slow member heartbeats throughout, answers its own part, and
    nothing is dropped or sent twice."""
    data, query, expected = chaos_instance
    plan = FaultPlan(seed=47)
    plan.slow_reply(0, after_frames=2, seconds=1.5)
    engine = HGMatch(data, index_backend="bitset")
    pool = ShardPool(
        num_shards=2, index_backend="bitset", chaos=plan
    )
    drops = _record_drops(monkeypatch)
    try:
        started = time.monotonic()
        result = pool.run(engine, query)
        assert time.monotonic() - started >= 1.5  # the delay happened
        assert result.embeddings == expected["merge"]
        assert sorted(s.worker_id for s in result.worker_stats) == [0, 1]
        assert pool.dispatched_frames == 2
        assert drops == []
    finally:
        pool.close()
        engine.close()


class _StalledMidFrameWorker:
    """A member that handshakes with a genuine HELLO, heartbeats, then
    sends the first 3 bytes of a frame and no more, its connection up."""

    def __init__(self, data, backend):
        # A real worker lends its descriptor: the handshake must pass.
        self._template = ShardWorker(data, 0, index_backend=backend)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self.stalled = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        with self._listener:
            conn, _ = self._listener.accept()
        with conn:
            conn.sendall(transport.encode_frame(
                transport.MSG_HELLO, self._template._hello_body()
            ))
            heartbeat = transport.encode_frame(transport.MSG_HEARTBEAT)
            for _ in range(3):
                time.sleep(0.05)
                conn.sendall(heartbeat)
            conn.sendall(heartbeat[:3])
            self.stalled.set()
            conn.settimeout(0.1)
            while not self._stop.is_set():
                try:
                    if not conn.recv(65536):
                        return  # the coordinator hung up
                except socket.timeout:
                    continue
                except OSError:
                    return

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._template.close()


def test_a_member_stalled_mid_frame_holds_up_no_other(
    chaos_instance, monkeypatch
):
    """The pump reads each member without blocking on it: beside a
    member stopped 3 bytes into a frame, a one-part query on the live
    member is answered at once (a pump that waited for the rest of the
    frame held every reply for the 600 s reply deadline), and the
    stopped member is failed on its silence."""
    data, query, expected = chaos_instance
    backend = "bitset"
    engine = HGMatch(data, index_backend=backend)
    real = ShardWorker(data, 1, index_backend=backend)
    real_address = real.bind()
    threading.Thread(target=real.serve_forever, daemon=True).start()
    stalled = _StalledMidFrameWorker(data, backend)
    pool = ShardPool(
        addresses=[real_address, stalled.address], index_backend=backend
    )
    # One part, to the earliest-joined member: the live one.
    monkeypatch.setattr(ShardPool, "_parts", lambda pool: 1)
    drops = _record_drops(monkeypatch)
    outcome = {}

    def run():
        started = time.monotonic()
        outcome["result"] = pool.run(engine, query)
        outcome["seconds"] = time.monotonic() - started

    try:
        pool.ensure_open(engine)
        assert stalled.stalled.wait(5.0)
        time.sleep(0.05)  # the pump has the 3 bytes
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=10.0)
        assert not runner.is_alive(), "the pump is held by the stalled member"
        assert outcome["seconds"] < 1.0
        assert outcome["result"].embeddings == expected["merge"]
        assert [s.worker_id for s in outcome["result"].worker_stats] == [1]
        deadline = time.monotonic() + 5.0
        while not drops and time.monotonic() < deadline:
            time.sleep(0.01)
        (_, name, cause), = drops
        assert name == 0 and "silent for" in cause, cause
    finally:
        pool.close()
        stalled.close()
        real.close()
        engine.close()


def test_busy_cores_drop_no_healthy_member(monkeypatch):
    """About 3 s of concurrent queries from three client threads keep
    both cores busy (the coordinator's threads and the two workers);
    every member stays heartbeating, so none is dropped and every
    count is exact."""
    from repro.bench import workload
    from repro.datasets import load_dataset

    data = load_dataset("HB")
    queries = workload("HB", "q3", 4)
    engine = HGMatch(data, index_backend="bitset")
    expected = [engine.count(q) for q in queries]
    plans = [engine.plan(q) for q in queries]
    pool = ShardPool(num_shards=2, index_backend="bitset")
    drops = _record_drops(monkeypatch)
    wrong, errors, done = [], [], []
    stop_at = time.monotonic() + 3.0

    def client(offset):
        index = offset
        try:
            while time.monotonic() < stop_at:
                which = index % len(plans)
                got = QueryChannel(pool).count(engine, plans[which])
                if got.embeddings != expected[which]:
                    wrong.append((which, got.embeddings))
                done.append(which)
                index += 1
        except BaseException as exc:  # reported on the main thread
            errors.append(exc)

    try:
        pool.ensure_open(engine)
        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        assert not wrong, wrong
        assert len(done) > 30
        assert drops == []
        assert [m.name for m in pool._members] == [0, 1]
    finally:
        pool.close()
        engine.close()


# ----------------------------------------------------------------------
# One clock for a session: silence bounds every wait on a worker, the
# connection bounds the session
# ----------------------------------------------------------------------


def test_a_stopped_last_member_of_a_fixed_pool_fails_fast(chaos_instance):
    """SIGSTOP the only member of a fixed-address pool with its session
    open: the pump drops it for silence, the ladder's reconnect in place
    is accepted by the kernel but never hears a HELLO, and the handshake
    gives up on the same silence budget — the job fails typed within
    1.5 s instead of waiting out a connect timeout under the pool
    lock."""
    data, query, expected = chaos_instance
    engine = HGMatch(data, index_backend="bitset")
    cluster = spawn_local_cluster(data, 1, index_backend="bitset")
    pool = ShardPool(
        addresses=list(cluster.addresses), index_backend="bitset"
    )
    pid = cluster.processes[0].pid
    try:
        assert pool.run(engine, query).embeddings == expected["merge"]
        os.kill(pid, signal.SIGSTOP)
        started = time.monotonic()
        with pytest.raises(SchedulerError):
            pool.run(engine, query)
        elapsed = time.monotonic() - started
        assert elapsed <= 1.5, f"typed failure took {elapsed:.2f}s"
    finally:
        os.kill(pid, signal.SIGKILL)  # SIGTERM would wait for SIGCONT
        pool.close()
        cluster.close()
        engine.close()


def test_a_forked_worker_does_not_hold_a_dropped_session_open(
    chaos_instance, monkeypatch, caplog
):
    """``cluster.respawn(1)`` forks the new worker while the pool's
    sessions are open, so it holds a copy of member 0's socket.  When
    the healthy member 0 is then dropped mid-job, the pool's close must
    still reach worker 0 (a shutdown sends the FIN whoever else holds
    the socket): the ladder reconnects it in place at once, and the
    cluster closes without escalating to a signal."""
    data, query, expected = chaos_instance
    engine = HGMatch(data, index_backend="bitset")
    cluster = spawn_local_cluster(data, 2, index_backend="bitset")
    pool = ShardPool(
        addresses=list(cluster.addresses), index_backend="bitset"
    )
    original = QueryChannel._send_parts
    timing = {}

    def send_parts(channel, plan, funnel):
        original(channel, plan, funnel)
        if "dropped" not in timing:
            with pool._lock:
                timing["dropped"] = time.monotonic()
                pool._member_failed(pool._member(0), "dropped by the test")

    try:
        assert pool.run(engine, query).embeddings == expected["merge"]
        cluster.respawn(1)
        deadline = time.monotonic() + 5.0
        while pool._member(1) is not None and time.monotonic() < deadline:
            time.sleep(0.01)  # the pump reads the old worker 1's EOF
        assert [m.name for m in pool._members] == [0]
        monkeypatch.setattr(QueryChannel, "_send_parts", send_parts)
        result = pool.run(engine, query)
        elapsed = time.monotonic() - timing["dropped"]
        assert result.embeddings == expected["merge"]
        assert [s.worker_id for s in result.worker_stats] == [0]
        assert elapsed <= 1.0, f"member 0 restored after {elapsed:.2f}s"
    finally:
        pool.close()
        with caplog.at_level("WARNING", logger="repro.parallel"):
            cluster.close()
        engine.close()
    assert "did not exit" not in caplog.text, caplog.text


def test_an_idle_pool_keeps_its_members(chaos_instance, monkeypatch):
    """A session lasts as long as its connection: a two-member owned
    pool idle for 1.5 s keeps both members and the same worker
    processes.  ``REPRO_NET_TIMEOUT`` is no longer read — set to 0.5 s
    it would once have ended both sessions and respawned the cluster."""
    monkeypatch.setenv("REPRO_NET_TIMEOUT", "0.5")
    data, query, expected = chaos_instance
    engine = HGMatch(data, index_backend="bitset")
    pool = ShardPool(num_shards=2, index_backend="bitset")
    drops = _record_drops(monkeypatch)
    try:
        assert pool.run(engine, query).embeddings == expected["merge"]
        pids = [process.pid for process in pool._cluster.processes]
        time.sleep(1.5)
        assert pool.run(engine, query).embeddings == expected["merge"]
        assert [p.pid for p in pool._cluster.processes] == pids
        assert drops == []
        assert [m.name for m in pool._members] == [0, 1]
    finally:
        pool.close()
        engine.close()

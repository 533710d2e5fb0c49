"""The socket pool: parity, handshake gates and failure paths.

The correctness bar matches the multiprocess executor's: bit-identical
counts against the sequential engine for every index backend — now
across real TCP connections (loopback clusters spawned by
:func:`repro.parallel.spawn_local_cluster`, i.e. the full network
path).  On top of that, the suite pins the failure modes a network
adds: mid-job worker disconnects must raise cleanly (no hang),
handshake mismatches (backend / data graph / duplicate names)
must refuse to compose, and protocol violations must not corrupt
counts.
"""

from __future__ import annotations

import pickle
import random
import socket
import struct
import threading

import pytest

from repro import HGMatch, Hypergraph
from repro.core.counters import MatchCounters
from repro.errors import QueryError, SchedulerError, TransportError
from repro.parallel import (
    QueryChannel,
    ShardPool,
    ShardWorker,
    spawn_local_cluster,
    transport,
)
from repro.testing import make_random_instance


@pytest.fixture(scope="module")
def workload_instances():
    """A deterministic batch of small (data, query) pairs."""
    rng = random.Random(987)
    instances = []
    while len(instances) < 4:
        instance = make_random_instance(rng)
        if instance is not None:
            instances.append(instance)
    return instances


def test_counter_funnel_matches_sequential(workload_instances):
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset", shards=2)
    try:
        sequential = MatchCounters()
        expected = engine.count(query, counters=sequential)
        networked = MatchCounters()
        assert engine.count(
            query, executor="processes", counters=networked
        ) == expected
        assert networked.candidates == sequential.candidates
        assert networked.filtered == sequential.filtered
        assert networked.embeddings == sequential.embeddings
        assert networked.work_model == sequential.work_model
    finally:
        engine.close()


def test_addresses_mode_in_any_order(workload_instances):
    """Any address order is the same flat pool: one part per member."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="adaptive")
    cluster = spawn_local_cluster(data, 3, index_backend="adaptive")
    executor = ShardPool(
        addresses=list(reversed(cluster.addresses)),
        index_backend="adaptive",
    )
    try:
        result = executor.run(engine, query)
        assert result.embeddings == engine.count(query)
        assert sorted(s.worker_id for s in result.worker_stats) == [0, 1, 2]
    finally:
        executor.close()
        cluster.close()
        engine.close()


def test_worker_sessions_are_reusable(workload_instances):
    """Closing the connection ends a session, not the server: a peer
    that hangs up after the HELLO, then two coordinators in turn."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    worker = ShardWorker(data, 0, index_backend="merge")
    address = worker.bind()
    thread = threading.Thread(
        target=worker.serve_forever, kwargs={"max_sessions": 3}, daemon=True
    )
    thread.start()
    try:
        with socket.create_connection(address, timeout=5.0) as sock:
            assert transport.recv_frame(sock)[0] == transport.MSG_HELLO
        expected = engine.count(query)
        for _ in range(2):
            executor = ShardPool(
                addresses=[address], index_backend="merge"
            )
            try:
                assert executor.run(engine, query).embeddings == expected
            finally:
                executor.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    finally:
        worker.close()
        engine.close()


def test_handshake_backend_mismatch(workload_instances):
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    cluster = spawn_local_cluster(data, 2, index_backend="bitset")
    executor = ShardPool(
        addresses=cluster.addresses, index_backend="merge"
    )
    try:
        with pytest.raises(SchedulerError, match="backend mismatch"):
            executor.run(engine, query)
    finally:
        executor.close()
        cluster.close()
        engine.close()


def test_handshake_graph_mismatch():
    data = Hypergraph(
        labels=["A", "B", "A", "B"], edges=[{0, 1}, {2, 3}, {0, 3}]
    )
    query = Hypergraph(labels=["A", "B"], edges=[{0, 1}])
    other_data = Hypergraph(labels=["A", "B"], edges=[{0, 1}])
    engine = HGMatch(data, index_backend="merge")
    cluster = spawn_local_cluster(other_data, 2, index_backend="merge")
    executor = ShardPool(
        addresses=cluster.addresses, index_backend="merge"
    )
    try:
        with pytest.raises(SchedulerError, match="data graph mismatch"):
            executor.run(engine, query)
    finally:
        executor.close()
        cluster.close()
        engine.close()


def test_a_cluster_spawned_under_another_seed_joins_a_default_pool(
    workload_instances, monkeypatch
):
    """No seed is part of the handshake: a member's reply is a pure
    function of the request, so ``REPRO_SEED`` at spawn time does not
    matter to the pool."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    monkeypatch.setenv("REPRO_SEED", "123")
    cluster = spawn_local_cluster(data, 1, index_backend="merge")
    monkeypatch.delenv("REPRO_SEED")
    executor = ShardPool(addresses=cluster.addresses, index_backend="merge")
    try:
        assert executor.run(engine, query).embeddings == engine.count(query)
    finally:
        executor.close()
        cluster.close()
        engine.close()


def test_duplicate_shard_ids_rejected(workload_instances):
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    # Two independent clusters: their shard-0 servers both announce
    # the name (0, 0) — a registry or supervisor could not tell them
    # apart.
    first = spawn_local_cluster(data, 2, index_backend="merge")
    second = spawn_local_cluster(data, 2, index_backend="merge")
    executor = ShardPool(
        addresses=[first.addresses[0], second.addresses[0]],
        index_backend="merge",
    )
    try:
        with pytest.raises(SchedulerError, match="both announced"):
            executor.run(engine, query)
    finally:
        executor.close()
        first.close()
        second.close()
        engine.close()


def test_dead_worker_between_jobs_recovers_transparently(workload_instances):
    """A worker lost *between* jobs (or a session idled out) is caught
    on reuse: the dead member's part goes to the survivor, the next
    open respawns it, and no query fails on a stale socket."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(num_shards=2, index_backend="bitset")
    try:
        expected = engine.count(query)
        assert executor.run(engine, query).embeddings == expected
        victim = executor._cluster.processes[0]
        victim.terminate()
        victim.join(timeout=2.0)
        for _ in range(2):
            assert executor.run(engine, query).embeddings == expected
        assert all(p.is_alive() for p in executor._cluster.processes)
    finally:
        executor.close()
        engine.close()


def test_mid_job_local_worker_loss_respawns_and_requeues(
    workload_instances, kill_mid_job
):
    """A local-cluster worker killed *mid-job* has its part requeued to
    the survivor — the job completes with the correct count instead of
    failing — and is respawned by the next job's open."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(num_shards=2, index_backend="bitset")
    try:
        expected = engine.count(query)
        assert executor.run(engine, query).embeddings == expected

        state = kill_mid_job(executor, 1)
        result = executor.run(engine, query)
        assert state["killed"]
        assert result.embeddings == expected
        assert len(result.worker_stats) == 2
        # The pool keeps serving afterwards with the fresh worker.
        for _ in range(2):
            assert executor.run(engine, query).embeddings == expected
        assert all(
            process.is_alive() for process in executor._cluster.processes
        )
    finally:
        executor.close()
        engine.close()


def test_mid_job_disconnect_raises_cleanly(workload_instances):
    """The last member vanishing *mid-job* must raise SchedulerError
    promptly (no hang, nothing half-counted) — a fake worker completes
    the handshake, takes its request, then dies: connection and
    listener both go, as a dead process's do.  (A fixed-address member
    whose *connection* alone is lost is reconnected in place; only a
    refused reconnect fails the job.)"""
    from repro.hypergraph import PartitionedStore
    from repro.parallel import ShardDescriptor

    data, query = workload_instances[0]
    descriptor = ShardDescriptor.of(
        PartitionedStore(data, index_backend="merge")
    )
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    address = listener.getsockname()[:2]

    def flaky_worker():
        conn, _ = listener.accept()
        with conn:
            transport.send_frame(
                conn,
                transport.MSG_HELLO,
                transport.encode_handshake(descriptor.as_dict()),
            )
            transport.recv_frame(conn)  # SUBTREE
            # ... and die without replying.
            listener.close()

    thread = threading.Thread(target=flaky_worker, daemon=True)
    thread.start()
    engine = HGMatch(data, index_backend="merge")
    executor = ShardPool(addresses=[address], index_backend="merge")
    try:
        with pytest.raises(SchedulerError, match="disconnected mid-job"):
            executor.run(engine, query)
    finally:
        executor.close()
        listener.close()
        engine.close()


def test_shutdown_worker_stops_a_server(workload_instances):
    """The QUIT frame has a real sender: shutdown_worker() gracefully
    stops a serve-forever worker, local or remote."""
    from repro.parallel import shutdown_worker

    data, _query = workload_instances[0]
    worker = ShardWorker(data, 0, index_backend="merge")
    address = worker.bind()
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    try:
        assert shutdown_worker(address)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        # Asking again reports the worker as already gone.
        assert not shutdown_worker(address, timeout=1.0)
    finally:
        worker.close()


def test_local_cluster_close_is_graceful(workload_instances):
    """LocalCluster.close() QUITs its workers; they exit cleanly (code
    0), not via SIGTERM."""
    data, _query = workload_instances[0]
    cluster = spawn_local_cluster(data, 2, index_backend="merge")
    processes = list(cluster.processes)
    cluster.close()
    assert [process.exitcode for process in processes] == [0, 0]


def test_malformed_descriptor_is_rejected_cleanly():
    """A HELLO whose descriptor is missing fields must raise the
    documented SchedulerError, not leak a KeyError."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    address = listener.getsockname()[:2]

    def impostor():
        conn, _ = listener.accept()
        with conn:
            transport.send_frame(
                conn,
                transport.MSG_HELLO,
                transport.encode_handshake({"shard_id": 0}),
            )

    thread = threading.Thread(target=impostor, daemon=True)
    thread.start()
    data = Hypergraph(labels=["A", "A"], edges=[{0, 1}])
    query = Hypergraph(labels=["A", "A"], edges=[{0, 1}])
    engine = HGMatch(data, index_backend="merge")
    executor = ShardPool(addresses=[address], index_backend="merge")
    try:
        with pytest.raises(SchedulerError, match="malformed handshake"):
            executor.run(engine, query)
    finally:
        executor.close()
        listener.close()
        engine.close()


def test_non_hello_peer_is_rejected():
    """Connecting to something that is not a shard server must fail the
    handshake, not hang or mis-compose."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    address = listener.getsockname()[:2]

    def impostor():
        conn, _ = listener.accept()
        with conn:
            transport.send_frame(conn, transport.MSG_SHUTDOWN)

    thread = threading.Thread(target=impostor, daemon=True)
    thread.start()
    data = Hypergraph(labels=["A", "A"], edges=[{0, 1}])
    query = Hypergraph(labels=["A", "A"], edges=[{0, 1}])
    engine = HGMatch(data, index_backend="merge")
    executor = ShardPool(addresses=[address], index_backend="merge")
    try:
        with pytest.raises(SchedulerError, match="before HELLO"):
            executor.run(engine, query)
    finally:
        executor.close()
        listener.close()
        engine.close()


def test_worker_survives_garbage_frames(workload_instances):
    """A garbled session must not take the server down: the worker drops
    the session and serves the next coordinator normally."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    worker = ShardWorker(data, 0, index_backend="merge")
    address = worker.bind()
    thread = threading.Thread(
        target=worker.serve_forever, kwargs={"max_sessions": 2}, daemon=True
    )
    thread.start()
    try:
        # Session 1: speak garbage (bad version byte) after the HELLO.
        with socket.create_connection(address, timeout=5.0) as sock:
            kind, _body = transport.recv_frame(sock)
            assert kind == transport.MSG_HELLO
            sock.sendall(b"\x06\x00\x00\x00\xff\xff140282")
        # Session 2: a real coordinator still gets served.
        executor = ShardPool(addresses=[address], index_backend="merge")
        try:
            assert executor.run(engine, query).embeddings == engine.count(
                query
            )
        finally:
            executor.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    finally:
        worker.close()
        engine.close()


#: The kind bytes of retired frames: the level-synchronous JOB, LEVEL,
#: COLLECT, REBALANCE and CANCEL, the commit's MUTATE and DELTA, and
#: STOP (a session ends with its connection).
RETIRED_KINDS = (0x4A, 0x4C, 0x43, 0x42, 0x58, 0x4D, 0x44, 0x53)


def test_retired_kinds_end_the_session_and_the_worker_serves_on(
    workload_instances, monkeypatch
):
    """A frame of a retired kind is an unknown kind: the worker ends
    that session (a TransportError on its side) and serves the next
    coordinator as if nothing happened."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    worker = ShardWorker(data, 0, index_backend="merge")
    address = worker.bind()
    refused = []
    real_recv = transport.recv_frame

    def recv_frame(sock):
        try:
            return real_recv(sock)
        except TransportError as exc:
            if threading.current_thread() is thread:
                refused.append(str(exc))
            raise

    monkeypatch.setattr(transport, "recv_frame", recv_frame)
    thread = threading.Thread(
        target=worker.serve_forever,
        kwargs={"max_sessions": len(RETIRED_KINDS) + 1},
        daemon=True,
    )
    thread.start()
    try:
        for kind in RETIRED_KINDS:
            assert kind not in transport._KNOWN_KINDS
            with socket.create_connection(address, timeout=5.0) as sock:
                assert transport.recv_frame(sock)[0] == transport.MSG_HELLO
                with pytest.raises(TransportError, match="unknown frame kind"):
                    transport.decode_frame(
                        struct.pack("<IBB", 10, transport.PROTOCOL_VERSION, kind)
                        + bytes(8)
                    )
                sock.sendall(
                    struct.pack("<IBB", 10, transport.PROTOCOL_VERSION, kind)
                    + bytes(8)
                )
                # The worker hung up on the session (after any heartbeat
                # it sent first).
                with pytest.raises(TransportError):
                    while True:
                        assert real_recv(sock)[0] == transport.MSG_HEARTBEAT
        assert refused == [
            f"unknown frame kind {kind:#x}" for kind in RETIRED_KINDS
        ]
        executor = ShardPool(addresses=[address], index_backend="merge")
        try:
            assert executor.run(engine, query).embeddings == engine.count(
                query
            )
        finally:
            executor.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    finally:
        worker.close()
        engine.close()


def test_the_pump_is_the_only_reader_of_member_sockets():
    """Structural: inside ``pool.py`` nothing but the ``_Pump`` reads a
    socket or a frame — a commit sends its CATCHUP and reads nothing, and no
    membership change takes the receive direction over from the pump
    (a newcomer's handshake is read in ``handshake.py``, before the
    pump ever sees its socket)."""
    import ast
    import inspect

    from repro.parallel import pool

    readers = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, where + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("recv", "recv_frame", "split_frames")
            ):
                readers.append(".".join(where))
            visit(child, where)

    visit(ast.parse(inspect.getsource(pool)), ())
    assert sorted(set(readers)) == ["_Pump._read", "_Pump.run"]


def test_close_between_sessions_stops_serve_forever_cleanly(
    workload_instances, monkeypatch
):
    """``close()`` from another thread between two sessions is a
    shutdown: ``serve_forever`` returns and no exception reaches the
    thread's excepthook."""
    data, _query = workload_instances[0]
    worker = ShardWorker(data, 0, index_backend="merge")
    address = worker.bind()
    served = []

    def serve_session(conn):
        served.append(conn)
        worker.close()
        return True

    monkeypatch.setattr(worker, "_serve_session", serve_session)
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(address, timeout=5.0):
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(served) == 1 and escaped == []
    finally:
        worker.close()


def test_worker_reports_enumeration_errors(workload_instances):
    """A failure inside a query's work arrives as a QERROR frame tagged
    with that query, carrying the remote traceback; the session
    survives it."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    worker = ShardWorker(data, 0, index_backend="merge")
    address = worker.bind()
    thread = threading.Thread(
        target=worker.serve_forever, kwargs={"max_sessions": 1}, daemon=True
    )
    thread.start()
    try:
        with socket.create_connection(address, timeout=5.0) as sock:
            kind, _ = transport.recv_frame(sock)
            assert kind == transport.MSG_HELLO
            # A plan whose budget is spent -> worker-side error.
            plan = engine.plan(query)

            def ask(query_id, budget):
                job = pickle.dumps((plan, 0, budget, True))
                transport.send_frame(
                    sock, transport.MSG_SUBTREE,
                    transport.encode_query_body(
                        query_id, transport.encode_subtree_body(0, 1, job)
                    ),
                )
                kind = transport.MSG_HEARTBEAT
                while kind == transport.MSG_HEARTBEAT:  # skip heartbeats
                    kind, body = transport.recv_frame(sock)
                query_id_back, rest = transport.split_query_body(body)
                assert query_id_back == query_id
                return kind, rest

            kind, text = ask(7, 0.0)
            assert kind == transport.MSG_QERROR
            assert "Traceback" in pickle.loads(text)
            assert "TimeoutExceeded" in pickle.loads(text)
            # The connection outlives the failed query.
            kind, reply = ask(9, None)
            assert kind == transport.MSG_LEVEL_REPLY
            embeddings, _counters, stats = transport.decode_reply(reply)
            assert embeddings == engine.count(query) == stats.embeddings
    finally:
        worker.close()
        engine.close()


@pytest.mark.parametrize("tail", [b"", b"\x80"])
def test_truncated_accounting_tail_is_a_typed_failure(
    workload_instances, monkeypatch, tail
):
    """``has_accounting=1`` over an empty or cut-off pickle (the latter
    is an ``EOFError`` inside ``pickle.loads``) ends the pool's sessions
    with a typed SchedulerError; the next run reconnects to the same
    workers (the owned cluster stays up)."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(num_shards=2, index_backend="bitset")
    try:
        expected = engine.count(query)
        assert executor.run(engine, query).embeddings == expected
        real, original = transport.split_frames, QueryChannel._send_parts
        state = {"armed": False, "fired": False}

        def send_parts(channel, *args):
            # Cut the job's first reply.
            state["armed"] = not state["fired"]
            original(channel, *args)

        def split_frames(buffer):
            for kind, body in real(buffer):
                if state["armed"] and kind == transport.MSG_LEVEL_REPLY:
                    state["armed"], state["fired"] = False, True
                    query_id, _reply = transport.split_query_body(body)
                    body = transport.encode_query_body(
                        query_id,
                        transport.encode_level_reply(None, 0, b"x")[:-1]
                        + tail,
                    )
                yield kind, body

        monkeypatch.setattr(transport, "split_frames", split_frames)
        monkeypatch.setattr(QueryChannel, "_send_parts", send_parts)
        with pytest.raises(SchedulerError, match="undecodable reply"):
            executor.run(engine, query)
        assert state["fired"]
        pids = [process.pid for process in executor._cluster.processes]
        assert not executor._members
        assert executor.run(engine, query).embeddings == expected
        assert [p.pid for p in executor._cluster.processes] == pids
    finally:
        executor.close()
        engine.close()


def test_engine_pool_lifecycle(workload_instances):
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset", shards=2)
    try:
        executor = engine.pool()
        assert engine.count(query, executor="processes") == engine.count(query)
        # Same coordinator object serves the next query.
        assert engine.pool() is executor
        # A different shard count rebuilds.
        other = engine.pool(3)
        assert other is not executor
        assert other.num_shards == 3
        # Host-pinned executors refuse conflicting shard counts.
        cluster = spawn_local_cluster(data, 2, index_backend="bitset")
        try:
            pinned = engine.pool(hosts=cluster.addresses)
            assert pinned.addresses is not None
            assert engine.pool() is pinned
            assert engine.count(query, executor="processes") == engine.count(
                query
            )
            with pytest.raises(QueryError):
                engine.pool(5)
        finally:
            # The pinned pool's sessions go first: a worker busy serving
            # one cannot take the cluster's QUIT and would be waited out.
            engine.close()
            cluster.close()
    finally:
        engine.close()


def test_invalid_configuration():
    with pytest.raises(SchedulerError):
        ShardPool()
    with pytest.raises(SchedulerError):
        ShardPool(num_shards=0)
    with pytest.raises(SchedulerError):
        ShardPool(addresses=[("h", 1)], num_shards=2)
    with pytest.raises(SchedulerError):
        spawn_local_cluster(
            Hypergraph(labels=["A", "A"], edges=[{0, 1}]), 0
        )


def test_results_are_reproducible_across_runs(workload_instances):
    data, query = workload_instances[1]
    engine = HGMatch(data, index_backend="adaptive", shards=2)
    try:
        first = engine.pool().run(engine, query, counters=MatchCounters())
        second = engine.pool().run(engine, query, counters=MatchCounters())
        assert first.embeddings == second.embeddings
        assert first.counters.as_row() == second.counters.as_row()
        assert [s.embeddings for s in first.worker_stats] == [
            s.embeddings for s in second.worker_stats
        ]
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Flat pools (every member interchangeable)
# ----------------------------------------------------------------------


def test_four_member_local_pool_counts_match(workload_instances):
    """A four-member local pool: four interchangeable members, four
    parts, counts bit-identical to the sequential engine."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset", shards=2)
    executor = ShardPool(num_shards=4, index_backend="bitset")
    try:
        expected = engine.count(query)
        result = executor.run(engine, query)
        assert result.embeddings == expected
        assert sorted(s.worker_id for s in result.worker_stats) == [0, 1, 2, 3]
        assert len(executor._cluster.processes) == 4
        assert executor._cluster.num_shards == 4
        # Warm reuse still works.
        assert executor.run(engine, query).embeddings == expected
    finally:
        executor.close()
        engine.close()


def test_addresses_mode_tolerates_dead_members(workload_instances):
    """Addresses mode: a dead worker at pool build merely loses that
    member — three of four dead too; only no live member at all refuses
    to open."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    cluster = spawn_local_cluster(data, 4, index_backend="merge")
    try:
        expected = engine.count(query)
        # Kill member 3: three members count exactly.
        cluster.kill_member(3)
        executor = ShardPool(
            addresses=list(cluster.addresses), index_backend="merge"
        )
        try:
            assert executor.run(engine, query).embeddings == expected
        finally:
            executor.close()
        # Kill members 0 and 1: member 2 counts alone.
        cluster.kill_member(0)
        cluster.kill_member(1)
        executor = ShardPool(
            addresses=list(cluster.addresses), index_backend="merge"
        )
        try:
            result = executor.run(engine, query)
            assert result.embeddings == expected
            assert [s.worker_id for s in result.worker_stats] == [2]
        finally:
            executor.close()
        # Nobody left: a clean refusal.
        cluster.kill_member(2)
        executor = ShardPool(
            addresses=list(cluster.addresses), index_backend="merge"
        )
        try:
            with pytest.raises(SchedulerError, match="could not connect"):
                executor.run(engine, query)
        finally:
            executor.close()
    finally:
        cluster.close()
        engine.close()


def test_duplicate_member_identity_rejected(workload_instances):
    """Two workers announcing the same shard id: a registry or
    supervisor could not tell them apart, so the pool build refuses."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    workers = [
        ShardWorker(data, 0, index_backend="merge") for _ in range(2)
    ]
    threads = []
    addresses = []
    for worker in workers:
        addresses.append(worker.bind())
        thread = threading.Thread(
            target=worker.serve_forever,
            kwargs={"max_sessions": 1},
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    executor = ShardPool(addresses=addresses, index_backend="merge")
    try:
        with pytest.raises(SchedulerError, match="both announced"):
            executor.run(engine, query)
    finally:
        executor.close()
        for worker in workers:
            worker.close()
        engine.close()


def test_retry_policy_is_bounded_and_reproducible():
    from repro.parallel import RetryPolicy

    policy = RetryPolicy(
        attempts=5, base_delay=0.1, max_delay=0.4, jitter=0.5
    )
    # Without jitter: pure capped exponential.
    assert policy.delay(0) == pytest.approx(0.1)
    assert policy.delay(1) == pytest.approx(0.2)
    assert policy.delay(10) == pytest.approx(0.4)
    # With a seeded rng: jittered within [base, base * 1.5], and the
    # same seed reproduces the same schedule.
    first = [policy.delay(a, random.Random(3)) for a in range(5)]
    second = [policy.delay(a, random.Random(3)) for a in range(5)]
    assert first == second
    for attempt, delay in enumerate(first):
        base = min(0.4, 0.1 * 2.0 ** attempt)
        assert base <= delay <= base * 1.5


def test_invalid_pool_configuration():
    with pytest.raises(SchedulerError):
        ShardPool(num_shards=0)
    with pytest.raises(SchedulerError, match="contradicts"):
        ShardPool(addresses=[("h", 1), ("h", 2), ("h", 3)], num_shards=2)
    with pytest.raises(SchedulerError):
        ShardWorker(Hypergraph(labels=["A", "A"], edges=[{0, 1}]), -1)
    with pytest.raises(SchedulerError):
        spawn_local_cluster(Hypergraph(labels=["A", "A"], edges=[{0, 1}]), 0)


def test_close_is_idempotent_in_every_lifecycle_state(workload_instances):
    """``close()`` must be safe to call twice at any point in the
    executor's life: never used, mid-life after a job, and again after
    the first close — no exception, no leaked cluster."""
    data, query = workload_instances[0]
    # Never used: no pool, no cluster.
    executor = ShardPool(num_shards=2)
    executor.close()
    executor.close()
    # After a job: the second close finds everything already released.
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(num_shards=2, index_backend="bitset")
    try:
        executor.run(engine, query)
    finally:
        executor.close()
        assert executor._cluster is None
        assert not executor._members
        executor.close()
        engine.close()
        engine.close()  # HGMatch.close is idempotent too


def test_close_after_refused_handshake_releases_everything(
    workload_instances,
):
    """A pool refused at handshake (backend mismatch discovered on the
    first worker) must be closable — twice — without raising, and the
    failed ``run`` itself must already have released its sockets, so
    the workers accept a later, correctly-configured coordinator."""
    data, query = workload_instances[0]
    cluster = spawn_local_cluster(data, 2, index_backend="merge")
    mismatched = HGMatch(data, index_backend="bitset")
    engine = HGMatch(data, index_backend="merge")
    executor = ShardPool(
        addresses=list(cluster.addresses), index_backend="bitset"
    )
    try:
        with pytest.raises(SchedulerError, match="backend"):
            executor.run(mismatched, query)
        assert not executor._members  # nothing half-open survived
        executor.close()
        executor.close()
        # The refused workers are intact: a matching coordinator works.
        good = ShardPool(
            addresses=list(cluster.addresses), index_backend="merge"
        )
        try:
            assert good.run(engine, query).embeddings == engine.count(query)
        finally:
            good.close()
    finally:
        executor.close()
        cluster.close()
        mismatched.close()
        engine.close()


def test_a_member_lost_before_registration_is_restored_by_the_ladder(
    workload_instances, monkeypatch
):
    """The pool's only member fails between ``ensure_open`` and the
    query's registration (the pump dropped it): the query registers
    anyway and its part goes down the ladder, which reconnects at the
    member's last address — an exact count, not a refusal.  A query on
    a pool closed under it fails typed."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    worker = ShardWorker(data, 0, index_backend="merge")
    address = worker.bind()
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    pool = ShardPool(addresses=[address], index_backend="merge")
    original = QueryChannel._send_parts

    def send_parts(channel, *args):
        with pool._lock:
            pool._member_failed(pool._members[0], "lost (test)")
        original(channel, *args)

    try:
        pool.ensure_open(engine)
        with monkeypatch.context() as patch:
            patch.setattr(QueryChannel, "_send_parts", send_parts)
            assert pool.run(engine, query).embeddings == engine.count(query)
        assert [tuple(m.address) for m in pool._members] == [tuple(address)]
        pool.close()
        with pytest.raises(SchedulerError, match="closed before query"):
            QueryChannel(pool)._send_parts(engine.plan(query), False)
    finally:
        pool.close()
        worker.close()
        engine.close()

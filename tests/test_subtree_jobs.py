"""Subtree jobs: ``count(executor="processes")`` and the match
service cut a query at the root, not by row.

Every pool member holds the whole graph; a counting query is one
SUBTREE request and one REPLY per chosen member, each running the
sequential block-DFS below its slice of the root candidates.  The bar
is the system's one invariant — counts and the Fig. 9 funnel
bit-identical to the sequential ``merge`` engine — on every backend ×
pool layout, for custom orders, empty parts, mutated graphs (tombstones
under both kernel orientations) and under faults; plus what is new with
this shape: exactly ``parts`` frames per query by the one rule, a lost
member's part re-sent to a survivor with no respawn, and the query's
budget enforced on the worker.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from test_frontier_kernel import forced

from repro import HGMatch, Hypergraph
from repro.core.counters import MatchCounters
from repro.core.ordering import is_connected_order
from repro.errors import QueryError, SchedulerError, TimeoutExceeded
from repro.hypergraph import INDEX_BACKENDS, PartitionedStore
from repro.parallel import (
    FaultPlan,
    cluster,
    handshake,
    LocalCluster,
    QueryChannel,
    ShardPool,
    ShardWorker,
    spawn_local_cluster,
    transport,
)
from repro.service import MatchService
from repro.testing import (
    make_mutable_instance,
    random_instances,
    random_mutation_schedule,
    run_mutation_differential,
)

FUNNEL = (
    "candidates", "filtered", "final_candidates", "final_filtered",
    "embeddings", "tasks",
)
#: Pool sizes: 1, 2, 3 and 4 members.
LAYOUTS = [1, 2, 3, 4]


@pytest.fixture(scope="module")
def instances():
    return random_instances(2301, 4)


def oracle(data, query, order=None):
    """Count and funnel of the sequential ``merge`` engine."""
    counters = MatchCounters()
    count = HGMatch(data, index_backend="merge").count(
        query, order=order, counters=counters
    )
    return count, tuple(getattr(counters, name) for name in FUNNEL)


def another_order(engine, query):
    """A connected matching order other than Algorithm 3's, if any."""
    default = tuple(engine.plan(query).order)
    for order in (default[::-1], default[1:] + default[:1]):
        if order != default and is_connected_order(query, order):
            return order
    return None


# ----------------------------------------------------------------------
# Parity: every backend × layout × order
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
@pytest.mark.parametrize("shards", LAYOUTS)
def test_counts_and_funnel_match_the_sequential_merge_engine(
    instances, backend, shards
):
    pool = ShardPool(num_shards=shards, index_backend=backend)
    reordered = 0
    try:
        for data, query in instances:
            engine = HGMatch(data, index_backend=backend)
            orders = [None, another_order(engine, query)]
            reordered += orders[1] is not None
            for order in orders[: 1 + (orders[1] is not None)]:
                before = pool.dispatched_frames
                result = pool.run(
                    engine, query, order=order, counters=MatchCounters()
                )
                count, funnel = oracle(data, query, order)
                assert result.embeddings == count
                assert tuple(
                    getattr(result.counters, name) for name in FUNNEL
                ) == funnel
                # Alone on the pool: one part, one frame, per member.
                assert len(result.worker_stats) == shards
                assert pool.dispatched_frames - before == shards
            engine.close()
    finally:
        pool.close()
    assert reordered > 0


@pytest.mark.parametrize("executor", ["threads", "processes", "simulated"])
@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_every_executor_spelling_matches_the_sequential_merge_engine(
    instances, backend, executor
):
    """Every parallel spelling of ``count`` makes the one root cut — on
    threads, on the pool, or on the simulated
    work-stealing scheduler — and lands on the sequential ``merge``
    engine's count and funnel on every backend."""
    for data, query in instances:
        count, funnel = oracle(data, query)
        engine = HGMatch(data, index_backend=backend, shards=2)
        try:
            counters = MatchCounters()
            assert engine.count(
                query, executor=executor, workers=2, counters=counters
            ) == count
            assert tuple(getattr(counters, name) for name in FUNNEL) == funnel
        finally:
            engine.close()


@pytest.mark.parametrize("spelling", ["processes"])
def test_count_bfs_refuses_a_pool_spelling_before_starting_a_pool(
    fig1_data, fig1_query, spelling
):
    """``count_bfs`` is the in-process level-synchronous loop only: a
    pool spelling is a ``QueryError`` naming the ``count`` call that
    runs it, raised before any worker is spawned."""
    engine = HGMatch(fig1_data, shards=2)
    try:
        with pytest.raises(
            QueryError, match=f"use count\\(executor={spelling!r}\\)"
        ):
            engine.count_bfs(fig1_query, executor=spelling)
        assert engine._pool is None
        assert engine.count_bfs(fig1_query) == oracle(fig1_data, fig1_query)[0]
        assert engine._pool is None
    finally:
        engine.close()


def test_each_processes_count_is_one_solo_channel(instances):
    """``count(executor="processes")`` is the solo subtree job, query
    after query: one channel per count, each with a fresh query id."""
    data, query = instances[0]
    count, _ = oracle(data, query)
    engine = HGMatch(data, shards=2)
    sent = []
    original = QueryChannel._send_parts

    def send_parts(channel, *args):
        sent.append(channel.query_id)
        original(channel, *args)

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(QueryChannel, "_send_parts", send_parts)
            assert engine.count(query, executor="processes") == count
            assert engine.count(query, executor="processes") == count
            assert len(sent) == len(set(sent)) == 2
    finally:
        engine.close()


def test_fewer_roots_than_members_leaves_parts_empty(fig1_data, fig1_query):
    """A part past the last root candidate scans step 0, finds its
    slice empty and answers 0 — charging nothing."""
    count, funnel = oracle(fig1_data, fig1_query)
    engine = HGMatch(fig1_data, index_backend="bitset")
    pool = ShardPool(num_shards=4, index_backend="bitset")
    try:
        result = pool.run(engine, fig1_query, counters=MatchCounters())
        assert result.embeddings == count
        assert tuple(
            getattr(result.counters, name) for name in FUNNEL
        ) == funnel
        assert len(result.worker_stats) == 4
        idle = [s for s in result.worker_stats if not s.tasks_executed]
        assert idle and all(s.embeddings == 0 for s in idle)
    finally:
        pool.close()
        engine.close()


def test_single_step_query_is_sliced_too():
    data = Hypergraph(
        labels=["A", "A", "A", "B"],
        edges=[{0, 1}, {1, 2}, {0, 2}, {2, 3}],
    )
    query = Hypergraph(labels=["A", "A"], edges=[{0, 1}])
    engine = HGMatch(data, shards=2)
    try:
        counters = MatchCounters()
        assert engine.count(
            query, executor="processes", counters=counters
        ) == 3
        _, funnel = oracle(data, query)
        assert tuple(getattr(counters, name) for name in FUNNEL) == funnel
    finally:
        engine.close()


def test_parts_are_a_partition_of_the_roots(instances):
    """``count_part`` in-process: the parts' counts and counters add up
    to the whole search's for any ``parts``, on every backend."""
    for backend in INDEX_BACKENDS:
        for data, query in instances:
            engine = HGMatch(data, index_backend=backend)
            whole = MatchCounters()
            count = engine.count(query, counters=whole)
            for parts in (2, 3, 7):
                total, summed = 0, MatchCounters()
                for part in range(parts):
                    counters = MatchCounters()
                    total += engine.count_part(
                        query, None, part, parts, counters
                    )
                    summed.merge(counters)
                assert total == count
                assert [getattr(summed, name) for name in FUNNEL] == [
                    getattr(whole, name) for name in FUNNEL
                ]


# ----------------------------------------------------------------------
# The parts rule, observed
# ----------------------------------------------------------------------


@pytest.mark.usefixtures("pool_route")
def test_concurrent_service_queries_go_whole_to_different_members(
    instances, monkeypatch
):
    """parts = live members // registered queries: alone, a query
    splits two ways; with a second and a third in flight each goes
    whole to the member owing the fewest replies."""
    data, query = instances[0]
    count, _ = oracle(data, query)
    plan = FaultPlan()
    # Hold query 2 in flight: both workers delay their second reply
    # (frame 1 = HELLO, 2 = the warm-up's reply, 3 = query 2's).
    plan.slow_reply(0, after_frames=3, seconds=0.6)
    plan.slow_reply(1, after_frames=3, seconds=0.6)
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=2, chaos=plan, cache_capacity=0)
    placed = {}
    original = QueryChannel._send_parts

    def send_parts(channel, *args):
        original(channel, *args)
        watchers = channel._state.watchers
        placed[channel.query_id] = [
            watchers[part][0].name for part in sorted(watchers)
        ]

    monkeypatch.setattr(QueryChannel, "_send_parts", send_parts)

    def registered(query_id):
        deadline = time.monotonic() + 10.0
        while query_id not in placed and time.monotonic() < deadline:
            time.sleep(0.001)
        assert query_id in placed

    try:
        assert service.match(query).embeddings == count  # query 1, warm-up
        tickets = []
        for query_id in (2, 3, 4):
            tickets.append(service.submit(query))
            registered(query_id)
        assert [t.result(timeout=60).embeddings for t in tickets] == [count] * 3
        assert placed == {1: [0, 1], 2: [0, 1], 3: [0], 4: [1]}
        assert not service.pool._queries
    finally:
        service.close()
        engine.close()


@pytest.mark.usefixtures("pool_route")
def test_a_cache_hit_dispatches_nothing_and_a_miss_exactly_parts(instances):
    data, query = instances[0]
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=2)
    try:
        service.match(query)
        frames = service.pool.dispatched_frames
        assert service.submit(query).cached
        assert service.pool.dispatched_frames == frames
        service.match(instances[1][1])
        assert service.pool.dispatched_frames == frames + 2
    finally:
        service.close()
        engine.close()


# ----------------------------------------------------------------------
# Faults: a lost member's part is re-sent, nothing is replayed
# ----------------------------------------------------------------------


def _recorded_respawns(monkeypatch):
    calls = []
    original = LocalCluster.respawn

    def respawn(cluster, *args):
        calls.append(args)
        return original(cluster, *args)

    monkeypatch.setattr(LocalCluster, "respawn", respawn)
    return calls


def test_killed_member_is_covered_by_the_survivor_without_a_respawn(
    instances, kill_mid_job, monkeypatch
):
    data, query = instances[0]
    count, funnel = oracle(data, query)
    engine = HGMatch(data, index_backend="bitset")
    plan = FaultPlan()
    # The victim must not have answered before the kill lands: its
    # reply to the second job (frame 1 = HELLO, 2 = the first job's
    # reply) is held back.
    plan.slow_reply(1, after_frames=3, seconds=1.0)
    pool = ShardPool(num_shards=2, index_backend="bitset", chaos=plan)
    respawns = _recorded_respawns(monkeypatch)
    try:
        assert pool.run(engine, query).embeddings == count
        state = kill_mid_job(pool, 1)
        result = pool.run(engine, query, counters=MatchCounters())
        assert state["killed"] and result.embeddings == count
        assert tuple(
            getattr(result.counters, name) for name in FUNNEL
        ) == funnel
        # Rung 1: worker 0 ran both parts; nobody was respawned
        # for this job ...
        assert [s.worker_id for s in result.worker_stats] == [0, 0]
        assert respawns == []
        # ... the next one's ensure_open brings the member back.
        again = pool.run(engine, query)
        assert again.embeddings == count and respawns == [(1,)]
        assert sorted(s.worker_id for s in again.worker_stats) == [0, 1]
        assert all(p.is_alive() for p in pool._cluster.processes)
    finally:
        pool.close()
        engine.close()


@pytest.mark.parametrize("fault", ["sever", "garble", "drop_reply"])
def test_connection_faults_fail_over_to_the_survivor(
    instances, monkeypatch, fault
):
    """A severed or garbled request, or a swallowed reply (silence past
    the reply deadline), costs the query nothing but the re-send."""
    monkeypatch.setattr(handshake, "REPLY_DEADLINE", 0.75)
    data, query = instances[0]
    count, _ = oracle(data, query)
    plan = FaultPlan(seed=23)
    # Coordinator frame 1 on a connection is the request; worker frame
    # 2 (after HELLO) its reply.
    getattr(plan, fault)(1, after_frames=2 if fault == "drop_reply" else 1)
    engine = HGMatch(data, index_backend="bitset")
    pool = ShardPool(
        num_shards=2, index_backend="bitset", chaos=plan
    )
    respawns = _recorded_respawns(monkeypatch)
    try:
        result = pool.run(engine, query)
        assert result.embeddings == count
        # (A worker-role fault fires, and is consumed, in the worker.)
        assert fault == "drop_reply" or plan.faults[0].consumed
        assert [s.worker_id for s in result.worker_stats] == [0, 0]
        assert respawns == []
        assert pool.run(engine, query).embeddings == count
    finally:
        pool.close()
        engine.close()


def test_losing_the_last_member_is_a_typed_failure(instances):
    data, query = instances[0]
    count, _ = oracle(data, query)
    engine = HGMatch(data, index_backend="bitset")
    plan = FaultPlan(seed=3)
    plan.kill_worker(0, after_frames=1)
    # ... before it answers (worker frame 1 = HELLO, 2 = the reply).
    plan.slow_reply(0, after_frames=2, seconds=1.0)
    cluster = spawn_local_cluster(
        data, 1, index_backend="bitset", chaos=plan
    )
    plan.arm_killer(0, lambda: cluster.kill_member(0))
    pool = ShardPool(
        addresses=list(cluster.addresses), index_backend="bitset",
        chaos=plan,
    )
    try:
        with pytest.raises(SchedulerError, match="disconnected mid-job"):
            pool.run(engine, query)
        assert not pool._queries and not pool._members
    finally:
        pool.close()
        cluster.close()
        engine.close()


# ----------------------------------------------------------------------
# Bounded, typed ends
# ----------------------------------------------------------------------


def test_an_exhausted_budget_is_a_timeout_before_anything_is_sent(instances):
    data, query = instances[0]
    engine = HGMatch(data, shards=2)
    try:
        expected = engine.count(query)
        assert engine.count(query, executor="processes") == expected
        frames = engine.pool().dispatched_frames
        with pytest.raises(TimeoutExceeded):
            engine.count(query, executor="processes", time_budget=0.0)
        assert engine.pool().dispatched_frames == frames
        assert not engine.pool()._queries
        assert engine.count(query, executor="processes") == expected
    finally:
        engine.close()


def _subtree_frame(
    query_id, plan, version, budget, part=0, parts=1, funnel=True
):
    job = pickle.dumps((plan, version, budget, funnel))
    return transport.encode_query_body(
        query_id, transport.encode_subtree_body(part, parts, job)
    )


@contextmanager
def _worker_session(data):
    """One session with an in-thread ``bitset`` worker named 1: yields
    ``ask(plan, version, budget, ...)``, which sends one SUBTREE tagged
    query 7 and returns the answer's ``(kind, body after the tag)`` —
    the worker's heartbeats on the session skipped."""
    worker = ShardWorker(data, 1, index_backend="bitset")
    address = worker.bind()
    thread = threading.Thread(
        target=worker.serve_forever, kwargs={"max_sessions": 1}, daemon=True
    )
    thread.start()
    try:
        with socket.create_connection(address, timeout=5.0) as sock:
            assert transport.recv_frame(sock)[0] == transport.MSG_HELLO

            def ask(*args, **kwargs):
                transport.send_frame(
                    sock, transport.MSG_SUBTREE,
                    _subtree_frame(7, *args, **kwargs),
                )
                kind = transport.MSG_HEARTBEAT
                while kind == transport.MSG_HEARTBEAT:
                    kind, body = transport.recv_frame(sock)
                query_id, rest = transport.split_query_body(body)
                assert query_id == 7
                return kind, rest

            yield ask
    finally:
        worker.close()
        thread.join(timeout=5.0)


def test_worker_enforces_the_budget_and_the_graph_version(instances):
    """At the wire: a request whose budget is spent, or that assumes a
    graph version the worker does not hold, is a QERROR naming the
    worker — and the session keeps serving."""
    data, query = instances[0]
    count, _ = oracle(data, query)
    plan = HGMatch(data, index_backend="bitset").plan(query)
    with _worker_session(data) as ask:
        kind, rest = ask(plan, 0, 0.0)
        assert kind == transport.MSG_QERROR
        report = pickle.loads(rest)
        assert "TimeoutExceeded" in report
        assert report.startswith("[shard 1]")
        kind, rest = ask(plan, 5, None)
        assert kind == transport.MSG_QERROR
        assert "missed a commit?" in pickle.loads(rest)
        # The worker's one store answers either half; they add up.
        total = 0
        for part in range(2):
            kind, rest = ask(plan, 0, None, part, 2)
            assert kind == transport.MSG_LEVEL_REPLY
            embeddings, counters, stats = transport.decode_reply(rest)
            assert counters.embeddings == embeddings == stats.embeddings
            assert stats.worker_id == 1
            total += embeddings
        assert total == count


def test_worker_counts_the_shipped_plan_and_refuses_a_malformed_job(
    instances, monkeypatch
):
    """A part runs the coordinator's plan as sent: the worker never
    plans, builds no funnel unless asked (the reply's counters are
    None, no task is tallied) — and a job it cannot run as sent is a
    QERROR naming the cause, after which the session keeps serving."""
    data, query = instances[0]
    count, _ = oracle(data, query)
    plan = HGMatch(data, index_backend="bitset").plan(query)
    merge_plan = HGMatch(data, index_backend="merge").plan(query)

    def no_planning(*args, **kwargs):
        raise AssertionError("a subtree part planned the query")

    monkeypatch.setattr(HGMatch, "plan", no_planning)
    with _worker_session(data) as ask:
        for malformed, cause in (
            (dict(plan=query), "plan is of type Hypergraph, not ExecutionPlan"),
            (dict(plan=merge_plan), "built for the 'merge' backend"),
            (dict(plan=plan, funnel=1), "funnel bit is of type int, not bool"),
        ):
            kind, rest = ask(
                malformed.pop("plan"), 0, None, part=0, parts=2, **malformed
            )
            assert kind == transport.MSG_QERROR
            report = pickle.loads(rest)
            assert report.startswith("[shard 1]")
            assert "SchedulerError" in report and cause in report
        total = 0
        for part in range(2):
            kind, rest = ask(plan, 0, None, part, 2, funnel=False)
            assert kind == transport.MSG_LEVEL_REPLY
            embeddings, counters, stats = transport.decode_reply(rest)
            assert counters is None
            assert stats.embeddings == embeddings
            assert stats.tasks_executed == 0 and stats.worker_id == 1
            total += embeddings
        assert total == count


def test_malformed_subtree_bodies_are_transport_errors():
    job = pickle.dumps((None, 0, None, False))
    assert transport.decode_subtree_body(
        transport.encode_subtree_body(1, 3, job)
    ) == (1, 3, None, 0, None, False)
    with pytest.raises(transport.TransportError, match="outside 0..1"):
        transport.encode_subtree_body(2, 2, job)
    for body in (b"\x00", b"\x02\x00\x00\x00\x02\x00\x00\x00" + job,
                 b"\x00\x00\x00\x00\x01\x00\x00\x00" + pickle.dumps((1, 2))):
        with pytest.raises(transport.TransportError):
            transport.decode_subtree_body(body)


# ----------------------------------------------------------------------
# Mutations: every member's store keeps step
# ----------------------------------------------------------------------


def _rebuilt(engine, query):
    return HGMatch(
        engine.data.to_hypergraph(), index_backend="merge"
    ).count(query)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_mutated_engines_count_exactly_under_both_orientations(
    backend, batched
):
    """``apply_mutations`` tombstones rows on the workers' stores
    (handed over by fork, maintained by MUTATE); the pool is forked
    under the patch, so the workers run the forced orientation."""
    rng = random.Random(2302)
    tombstoned = checked = 0
    for data, query, _ in random_instances(2303, 4, make_mutable_instance):
        with forced(batched, 3):
            engine = HGMatch(data, index_backend=backend, shards=2)
            try:
                assert engine.count(query, executor="processes") == (
                    oracle(data, query)[0]
                )
                for batch in random_mutation_schedule(rng, data, steps=3):
                    engine.apply_mutations(batch)
                    assert engine.count(
                        query, executor="processes"
                    ) == _rebuilt(engine, query)
                    checked += 1
                tombstoned += sum(
                    partition.num_rows - partition.cardinality
                    for partition in engine.store.partitions.values()
                )
            finally:
                engine.close()
    assert tombstoned > 0 and checked >= 12


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_a_four_member_pool_stays_exact_across_commits(backend):
    """A four-member pool is four whole-graph members: every commit's
    MUTATE reaches each member's one store, and every query after it
    still sends one part to each of the four and counts exactly."""
    rng = random.Random(2310)
    data, query, _ = random_instances(2311, 1, make_mutable_instance)[0]
    engine = HGMatch(data, index_backend=backend, shards=4)
    try:
        pool = engine.pool()
        assert engine.count(query, executor="processes") == oracle(data, query)[0]
        for batch in random_mutation_schedule(rng, data, steps=3):
            engine.apply_mutations(batch)
            before = pool.dispatched_frames
            assert engine.count(query, executor="processes") == _rebuilt(
                engine, query
            )
            assert pool.dispatched_frames - before == 4
        assert engine.pool() is pool
    finally:
        engine.close()


def test_a_lazily_built_store_is_maintained_too(instances):
    """No store crosses a ``spawn``: the workers build their own and
    keep it in step afterwards."""
    rng = random.Random(2304)
    data, query, _ = random_instances(2305, 1, make_mutable_instance)[0]
    engine = HGMatch(data, index_backend="bitset")
    pool = ShardPool(
        num_shards=2, index_backend="bitset", start_method="spawn"
    )
    try:
        assert pool.run(engine, query).embeddings == oracle(data, query)[0]
        for batch in random_mutation_schedule(rng, data, steps=2):
            result = engine.apply_mutations(batch)
            pool.mutate(engine, result)
            assert pool.run(engine, query).embeddings == _rebuilt(engine, query)
    finally:
        pool.close()
        engine.close()


def test_mutation_differential_runs_on_subtree_jobs(monkeypatch):
    sent = []
    original = QueryChannel._send_parts

    def send_parts(channel, *args):
        sent.append(channel.query_id)
        original(channel, *args)

    monkeypatch.setattr(QueryChannel, "_send_parts", send_parts)
    rng = random.Random(2306)
    for data, query, _ in random_instances(2307, 2, make_mutable_instance):
        schedule = random_mutation_schedule(rng, data, steps=4)
        for backend in INDEX_BACKENDS:
            assert run_mutation_differential(
                data, query, schedule, index_backend=backend,
                executor="processes",
            ) is None
    assert sent


def test_stale_worker_heals_through_catchup(instances):
    """A member severed on the commit's CATCHUP frame misses the batch
    (the commit returns, the failed send drops it); readmitted it
    announces the old version, is caught up by the handshake (§2.10) —
    its one store, through the one ``apply_batch`` — and its part of
    the next job is exact."""
    rng = random.Random(2308)
    data, query, _ = random_instances(2309, 1, make_mutable_instance)[0]
    engine = HGMatch(data, index_backend="bitset")
    plan = FaultPlan(seed=29)
    plan.sever(2, after_frames=2)  # frame 1 = its part, 2 = the CATCHUP
    cluster = spawn_local_cluster(data, 4, index_backend="bitset")
    pool = ShardPool(
        addresses=list(cluster.addresses),
        index_backend="bitset", chaos=plan,
    )
    try:
        # Every worker builds its whole store at version 0.
        first = pool.run(engine, query)
        assert first.embeddings == oracle(data, query)[0]
        assert len(first.worker_stats) == 4
        batch = random_mutation_schedule(rng, data, steps=1)[0]
        result = engine.apply_mutations(batch)
        pool.mutate(engine, result)
        assert all(planned.consumed for planned in plan.faults)
        assert [member.name for member in pool._members] == [0, 1, 3]
        expected = _rebuilt(engine, query)
        degraded = pool.run(engine, query)
        assert degraded.embeddings == expected
        assert len(degraded.worker_stats) == 3
        descriptor = pool.admit(cluster.address_of(2))
        assert descriptor.graph_version == result.version
        healed = pool.run(engine, query)
        assert healed.embeddings == expected
        assert len(healed.worker_stats) == 4
    finally:
        pool.close()
        cluster.close()
        engine.close()


# ----------------------------------------------------------------------
# Membership: a flat list of whole-graph stores
# ----------------------------------------------------------------------


def test_exact_after_a_drain(instances):
    """Draining a member leaves a smaller pool that is just as exact;
    the last member cannot be drained."""
    data, query = instances[0]
    count, _ = oracle(data, query)
    engine = HGMatch(data, index_backend="bitset")
    pool = ShardPool(num_shards=3, index_backend="bitset")
    try:
        assert pool.run(engine, query).embeddings == count
        pool.drain(2)
        result = pool.run(engine, query)
        assert result.embeddings == count and len(result.worker_stats) == 2
        pool.drain(0)
        assert pool.run(engine, query).embeddings == count
        with pytest.raises(SchedulerError, match="last live member"):
            pool.drain(1)
    finally:
        pool.close()
        engine.close()


def test_a_forked_member_serves_the_engines_own_store(instances, monkeypatch):
    """Under ``fork`` the spawner hands its store over: the member's
    store *is* the engine's, so nothing is built; a store of another
    graph or backend is not taken."""
    data, _ = instances[0]
    engine = HGMatch(data, index_backend="bitset")
    built = []
    original = PartitionedStore.__init__

    def counting_init(store, *args, **kwargs):
        built.append(store)
        original(store, *args, **kwargs)

    monkeypatch.setattr(PartitionedStore, "__init__", counting_init)
    worker = ShardWorker(data, index_backend="bitset", store=engine.store)
    assert worker.store is engine.store and built == []
    other = ShardWorker(data, index_backend="merge", store=engine.store)
    assert other.store is not engine.store and len(built) == 1
    # ... and the cluster spawner passes it only where the child inherits
    # it for free.
    for method, handed in (("fork", engine.store), ("spawn", None)):
        started = []
        context = multiprocessing.get_context(method)

        class Recorder:
            def __init__(self, target, args, daemon):
                started.append(args)

            def start(self):
                pass

        monkeypatch.setattr(context, "Process", Recorder)
        _, parent = cluster._start_cluster_worker(
            context, data, 0, "bitset", store=engine.store
        )
        parent.close()
        assert started[0][-1] is handed

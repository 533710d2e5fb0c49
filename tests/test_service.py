"""The always-on match service: multiplexing, admission, isolation.

The acceptance bar (ROADMAP "always-on match service"): N concurrent
queries multiplexed over one shared pool must return counts
**bit-identical** to solo runs on every index backend — including
under chaos faults pinned to one query's frames, which must fail over
or fail *that query* fast while its neighbours stay exact; a blown
deadline or a cancellation (explicit, or a daemon client
disconnecting) must leave no orphaned worker session state; admission
past the depth limit must be an explicit, immediate BUSY — never a
hang; and cache hits must bypass the pool entirely.
"""

from __future__ import annotations

import asyncio
import io
import json
import multiprocessing
import random
import socket
import threading
import time

import pytest

from repro import HGMatch
from repro.errors import (
    QueryCancelled,
    QueryError,
    ReproError,
    SchedulerError,
    ServiceBusy,
    TimeoutExceeded,
)
from repro.hypergraph import INDEX_BACKENDS, MutationBatch
from repro.hypergraph.io import dump_native, parse_native
from repro.hypergraph.sampling import QuerySetting, sample_query
from repro.parallel import ShardPool
from repro.parallel.chaos import FaultPlan
from repro.service import (
    MatchClient,
    MatchDaemon,
    MatchService,
    QueryChannel,
    graph_fingerprint,
    query_fingerprint,
)
from repro.testing import make_random_instance


def _wire_form(graph):
    """Round-trip through the native text format, the daemon client's
    wire encoding (labels come back as strings there)."""
    buffer = io.StringIO()
    dump_native(graph, buffer)
    return parse_native(io.StringIO(buffer.getvalue()))


@pytest.fixture(scope="module")
def service_instance():
    """One deterministic data graph, three distinct queries against
    it, and the solo (sequential) counts every multiplexed run must
    reproduce per backend.  Both sides are normalised to their native
    text form so in-process submissions and daemon-wire submissions
    see byte-identical labels."""
    rng = random.Random(987)
    instance = None
    while instance is None:
        instance = make_random_instance(rng)
    data, base_query = instance
    data, base_query = _wire_form(data), _wire_form(base_query)
    queries = [base_query]
    sample_rng = random.Random(11)
    # The t-family setting mirrors make_random_instance: random-walk
    # sub-hypergraphs of *this* data graph, so every query has at
    # least one embedding and the graph never re-rolls.
    for num_edges in (2, 3, 2, 3, 2, 3):
        if len(queries) >= 3:
            break
        try:
            candidate = sample_query(
                data, QuerySetting("t", num_edges, 2, 12), sample_rng,
                max_attempts=200,
            )
        except ReproError:  # pragma: no cover - tiny-graph sampling miss
            continue
        if all(
            query_fingerprint(candidate) != query_fingerprint(existing)
            for existing in queries
        ):
            queries.append(candidate)
    assert len(queries) == 3, "could not sample three distinct queries"
    expected = {}
    for backend in INDEX_BACKENDS:
        engine = HGMatch(data, index_backend=backend)
        try:
            expected[backend] = [engine.count(query) for query in queries]
        finally:
            engine.close()
    return data, queries, expected


def _await_registration(service, query_id, ticket=None, timeout=10.0):
    """Block until ``query_id`` is registered with the pool — pins
    pool query-id assignment for query-targeted chaos faults (ids are
    handed out when the worker thread opens its channel, so two
    back-to-back submissions could otherwise race for id 1).  A fast
    query can register *and* finish between two polls, so a finished
    ``ticket`` also counts: it was the only submission, so the id was
    necessarily its."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if query_id in service.pool._queries:
            return
        if ticket is not None and ticket.done():
            return
        time.sleep(0.01)
    raise AssertionError(f"query {query_id} never registered")


# ----------------------------------------------------------------------
# Multiplexed parity: concurrent queries == solo runs, every backend
# ----------------------------------------------------------------------


@pytest.mark.usefixtures("pool_route")
@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_multiplexed_queries_match_solo_counts(service_instance, backend):
    """The headline gate: three distinct queries, each submitted twice,
    all in flight together over one 2-shard pool — every count equals
    its solo run, on every index backend."""
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend=backend)
    service = MatchService(
        engine, shards=2, max_concurrent=6, queue_depth=12,
        cache_capacity=0,  # no cache: every run exercises the pool
    )
    try:
        tickets = [
            service.submit(query)
            for query in queries + list(queries)
        ]
        for index, ticket in enumerate(tickets):
            result = ticket.result(timeout=60)
            assert (
                result.embeddings == expected[backend][index % len(queries)]
            )
    finally:
        service.close()
        engine.close()


@pytest.mark.usefixtures("pool_route")
@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_solo_job_and_service_channel_dispatch_the_same_frames(
    service_instance, backend
):
    """The inverse of the gate above: a solo job is the one-query case
    of the multiplexed pool, so ``ShardPool.run`` and a
    ``QueryChannel`` on a service's pool put the same number of frames
    on the wire for the same query — and count the same."""
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend=backend)
    executor = ShardPool(num_shards=2, index_backend=backend)
    service = MatchService(engine, shards=2, cache_capacity=0)
    try:
        for index, query in enumerate(queries):
            before = executor.dispatched_frames
            solo = executor.run(engine, query)
            solo_frames = executor.dispatched_frames - before
            before = service.pool.dispatched_frames
            multiplexed = service.match(query)
            # One subtree request per member, nothing else (a reused
            # pool is not probed: a dead member's part is re-sent).
            assert (
                service.pool.dispatched_frames - before
                == solo_frames
                == executor.num_shards
            )
            assert (
                solo.embeddings
                == multiplexed.embeddings
                == expected[backend][index]
            )
    finally:
        service.close()
        executor.close()
        engine.close()


def test_channel_plugs_into_the_executor_surface(service_instance):
    """A bare ``QueryChannel`` is the pool's executor surface on its
    own (no service on top): one query, answered, then unregistered."""
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    pool = ShardPool(num_shards=2, index_backend="bitset")
    try:
        result = QueryChannel(pool).count(
            engine, engine.plan(queries[0])
        )
        assert result.embeddings == expected["bitset"][0]
        assert sorted(s.worker_id for s in result.worker_stats) == [0, 1]
        assert not pool._queries
    finally:
        pool.close()
        engine.close()


def _rewrite_next_reply(monkeypatch, rewrite):
    """Pass the next REPLY frame this process receives through
    ``rewrite(query_id, reply_body) -> (kind, body)``; one shot."""
    from repro.parallel import transport

    real = transport.recv_frame
    armed = [True]

    def recv_frame(sock):
        kind, body = real(sock)
        if armed and kind == transport.MSG_LEVEL_REPLY:
            armed.clear()
            return rewrite(*transport.split_query_body(body))
        return kind, body

    monkeypatch.setattr(transport, "recv_frame", recv_frame)
    return armed


def test_garbled_error_report_fails_the_query_not_the_pump(
    service_instance, monkeypatch
):
    """A QERROR whose body does not unpickle still fails its query with
    a typed error; the pump thread survives it, the member is recovered
    and the next query is exact."""
    from repro.parallel import transport

    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    pool = ShardPool(num_shards=2, index_backend="bitset")
    try:
        pool.ensure_open(engine)  # fork the workers before patching
        armed = _rewrite_next_reply(
            monkeypatch,
            lambda query_id, _reply: (
                transport.MSG_QERROR,
                transport.encode_query_body(query_id, b"\x80garbage"),
            ),
        )
        with pytest.raises(SchedulerError, match="unreadable error report"):
            QueryChannel(pool).count(
                engine, engine.plan(queries[0])
            )
        assert not armed and not pool._queries
        assert pool._pump.is_alive()
        result = QueryChannel(pool).count(
            engine, engine.plan(queries[1])
        )
        assert result.embeddings == expected["bitset"][1]
    finally:
        pool.close()
        engine.close()


@pytest.mark.parametrize("tail", [b"", b"\x80"])
def test_truncated_accounting_tail_is_a_typed_failure(
    service_instance, monkeypatch, tail
):
    """``has_accounting=1`` over an empty or cut-off pickle (the latter
    is an ``EOFError`` inside ``pickle.loads``) surfaces as a typed
    SchedulerError and releases the query."""
    from repro.parallel import transport

    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    pool = ShardPool(num_shards=2, index_backend="bitset")
    try:
        pool.ensure_open(engine)
        _rewrite_next_reply(
            monkeypatch,
            lambda query_id, _reply: (
                transport.MSG_LEVEL_REPLY,
                transport.encode_query_body(
                    query_id, transport.encode_level_reply(None, 0, b"x")[:-1]
                    + tail,
                ),
            ),
        )
        with pytest.raises(SchedulerError, match="undecodable reply"):
            QueryChannel(pool).count(
                engine, engine.plan(queries[0])
            )
        assert not pool._queries and pool._pump.is_alive()
        result = QueryChannel(pool).count(
            engine, engine.plan(queries[0])
        )
        assert result.embeddings == expected["bitset"][0]
    finally:
        pool.close()
        engine.close()


# ----------------------------------------------------------------------
# Admission control: explicit BUSY, never a hang
# ----------------------------------------------------------------------


@pytest.mark.usefixtures("pool_route")
def test_overload_is_refused_with_explicit_busy(service_instance):
    """The queue_depth+1-th query gets ServiceBusy with a retry-after
    hint *immediately* — while the admitted query is still running."""
    data, queries, _expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(
        engine, shards=1, max_concurrent=1, queue_depth=1,
        retry_after=0.125,
    )
    gate = threading.Event()
    real_ensure = service.pool.ensure_open

    def gated_ensure(target):
        assert gate.wait(30.0)
        real_ensure(target)

    service.pool.ensure_open = gated_ensure
    try:
        held = service.submit(queries[0])
        deadline = time.monotonic() + 5.0
        while service.in_flight != 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        started = time.monotonic()
        with pytest.raises(
            ServiceBusy,
            match=r"admission depth limit \(1 queries in flight\); "
                  r"retry after 0\.125s",
        ) as refusal:
            service.submit(queries[1])
        assert time.monotonic() - started < 2.0  # refused, not queued
        assert refusal.value.depth == 1
        assert refusal.value.retry_after == 0.125
        gate.set()
        held.result(timeout=60)
        # The slot is free again: the refused query now goes through.
        assert service.submit(queries[1]).result(timeout=60) is not None
    finally:
        gate.set()
        service.close()
        engine.close()


@pytest.mark.usefixtures("pool_route")
def test_cancel_before_start_returns_the_slot(service_instance):
    """Cancelling a never-started ticket frees its admission slot even
    though the run body (whose finally normally does it) never ran."""
    data, queries, _expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(
        engine, shards=1, max_concurrent=1, queue_depth=2
    )
    gate = threading.Event()
    real_ensure = service.pool.ensure_open

    def gated_ensure(target):
        assert gate.wait(30.0)
        real_ensure(target)

    service.pool.ensure_open = gated_ensure
    try:
        running = service.submit(queries[0])   # occupies the one worker
        queued = service.submit(queries[1])    # backlogged, not started
        assert service.in_flight == 2
        queued.cancel()
        deadline = time.monotonic() + 5.0
        while service.in_flight != 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.in_flight == 1          # slot returned
        with pytest.raises(QueryCancelled, match="before it started"):
            queued.result(timeout=5)
        gate.set()
        running.result(timeout=60)
    finally:
        gate.set()
        service.close()
        engine.close()


# ----------------------------------------------------------------------
# Result cache: hits bypass the pool entirely
# ----------------------------------------------------------------------


@pytest.mark.usefixtures("pool_route")
def test_cache_hits_bypass_the_pool(service_instance):
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=2)
    try:
        first = service.match(queries[0])
        assert first.embeddings == expected["bitset"][0]
        frames_after_miss = service.pool.dispatched_frames
        assert frames_after_miss > 0
        hit = service.submit(queries[0])
        assert hit.cached and hit.done()
        assert hit.result() is first  # the very result object, no rerun
        # Not one frame crossed the wire for the hit.
        assert service.pool.dispatched_frames == frames_after_miss
        assert service.cache_hits == 1 and service.cache_misses == 1
        # A *different* query is a miss, not a false hit.
        other = service.match(queries[1])
        assert other.embeddings == expected["bitset"][1]
        assert service.pool.dispatched_frames > frames_after_miss
    finally:
        service.close()
        engine.close()


def test_a_foreign_label_type_never_reaches_the_cache():
    """A query's fingerprint does not see its label *type*: an
    int-labelled query and its str-labelled twin key alike.  The label
    gate therefore runs before the cache lookup — the twin is refused,
    typed, and never served the int query's cached count — and a
    standing registration of it is refused the same way."""
    from repro.hypergraph import Hypergraph

    data = Hypergraph([0, 1, 0, 1], [{0, 1}, {2, 3}, {0, 3}])
    query = Hypergraph([0, 1], [{0, 1}])
    twin = Hypergraph(["0", "1"], [{0, 1}])
    assert query_fingerprint(query) == query_fingerprint(twin)
    engine = HGMatch(data)
    service = MatchService(engine, shards=1)
    try:
        assert service.match(query).embeddings == 3
        assert service.submit(query).cached
        for call in (service.submit, service.register_standing):
            with pytest.raises(
                QueryError, match="labels are str but the data graph's "
                "are int",
            ):
                call(twin)
        assert service.cache_hits == 1
        assert service.standing_queries == 0
    finally:
        service.close()
        engine.close()


def test_fingerprints_key_on_content_and_order(service_instance):
    data, queries, _expected = service_instance
    assert graph_fingerprint(data) == graph_fingerprint(data)
    assert graph_fingerprint(data) != graph_fingerprint(queries[0])
    assert query_fingerprint(queries[0]) == query_fingerprint(queries[0])
    assert query_fingerprint(queries[0]) != query_fingerprint(queries[1])
    # A pinned matching order is part of the key: same query text,
    # different plan — never served from the other's cache entry.
    order = list(range(queries[0].num_edges))
    assert (
        query_fingerprint(queries[0], order)
        != query_fingerprint(queries[0])
    )


# ----------------------------------------------------------------------
# Deadlines & cancellation: no orphaned worker state, exact afterwards
# ----------------------------------------------------------------------


@pytest.mark.usefixtures("pool_route")
def test_deadline_exceeded_cancels_remotely(service_instance):
    """A blown deadline raises TimeoutExceeded, releases the query's
    pool state (CANCEL broadcast included), and the very next query —
    same pool, same workers — is exact."""
    data, queries, expected = service_instance
    plan = FaultPlan()
    # The worker's first QREPLY (its frame 2, after HELLO) is delayed
    # past the deadline, so the query times out mid-gather.
    plan.slow_reply(0, after_frames=2, seconds=1.5)
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=2, chaos=plan, cache_capacity=0)
    try:
        with pytest.raises(TimeoutExceeded, match="time budget"):
            service.match(queries[0], deadline=0.3)
        assert service.pool._queries == {}  # nothing left registered
        assert (
            service.match(queries[0]).embeddings == expected["bitset"][0]
        )
        assert service.pool._queries == {}
    finally:
        service.close()
        engine.close()


@pytest.mark.usefixtures("pool_route")
def test_client_cancel_mid_flight(service_instance):
    data, queries, expected = service_instance
    plan = FaultPlan()
    plan.slow_reply(0, after_frames=2, seconds=1.5)
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=2, chaos=plan, cache_capacity=0)
    try:
        ticket = service.submit(queries[0])
        _await_registration(service, 1)  # it is in the slow gather now
        ticket.cancel()
        with pytest.raises(QueryCancelled):
            ticket.result(timeout=10)
        deadline = time.monotonic() + 10.0
        while service.pool._queries and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.pool._queries == {}
        assert (
            service.match(queries[0]).embeddings == expected["bitset"][0]
        )
    finally:
        service.close()
        engine.close()


# ----------------------------------------------------------------------
# Chaos isolation: a fault pinned to one query hurts only that query
# ----------------------------------------------------------------------


@pytest.mark.usefixtures("pool_route")
def test_query_pinned_drop_fails_fast_for_that_query_alone(
    service_instance,
):
    """A dropped reply pinned to query id 1's frames: that query alone
    fails fast at its I/O deadline; the concurrent query — same
    connection, same traffic — returns its exact count.  (On a pool of
    one: with a second member the silent one is failed and the part
    re-sent — ``tests/test_subtree_jobs.py``.)"""
    data, queries, expected = service_instance
    plan = FaultPlan()
    # Worker 0 swallows its first reply *for query 1 only*.
    plan.drop_reply(0, after_frames=1, query_id=1)
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(
        engine, shards=1, chaos=plan, cache_capacity=0, io_timeout=0.75,
    )
    try:
        victim = service.submit(queries[0])
        _await_registration(service, 1, victim)  # victim owns query id 1
        healthy = service.submit(queries[1])
        assert (
            healthy.result(timeout=60).embeddings == expected["bitset"][1]
        )
        with pytest.raises(
            SchedulerError, match=r"did not answer query 1"
        ):
            victim.result(timeout=60)
        # Fail-fast, not collateral: the pool (and its connections)
        # kept serving — a fresh run of the victim's query is exact.
        assert (
            service.match(queries[0]).embeddings == expected["bitset"][0]
        )
    finally:
        service.close()
        engine.close()


@pytest.mark.usefixtures("pool_route")
@pytest.mark.parametrize("fault", ["sever", "garble"])
def test_query_pinned_connection_fault_fails_over(service_instance, fault):
    """A severed/garbled frame pinned to one query's traffic kills the
    shared connection — recovery reconnects and replays every open
    query, so *all* of them (victim included) finish exact."""
    data, queries, expected = service_instance
    plan = FaultPlan()
    # Query 1's first coordinator frame (its subtree request to
    # worker 0) is the trigger; query 2 shares the pool and must not
    # care.
    getattr(plan, fault)(0, after_frames=1, query_id=1)
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=2, chaos=plan, cache_capacity=0)
    try:
        victim = service.submit(queries[0])
        _await_registration(service, 1, victim)
        healthy = service.submit(queries[1])
        assert (
            victim.result(timeout=60).embeddings == expected["bitset"][0]
        )
        assert (
            healthy.result(timeout=60).embeddings == expected["bitset"][1]
        )
        assert all(planned.consumed for planned in plan.faults)
    finally:
        service.close()
        engine.close()


# ----------------------------------------------------------------------
# Engine integration & lifecycle
# ----------------------------------------------------------------------


def test_engine_owns_a_persistent_match_service(service_instance):
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="adaptive")
    try:
        service = engine.match_service(shards=2)
        assert engine.match_service(shards=2) is service  # warm reuse
        assert (
            service.match(queries[0]).embeddings == expected["adaptive"][0]
        )
        rebuilt = engine.match_service(shards=1)  # new layout: rebuilt
        assert rebuilt is not service
        assert (
            rebuilt.match(queries[0]).embeddings == expected["adaptive"][0]
        )
    finally:
        engine.close()
        engine.close()  # idempotent, service included
    with pytest.raises(SchedulerError, match="closed"):
        rebuilt.submit(queries[0])


def test_match_service_refuses_to_change_a_live_services_settings(
    service_instance,
):
    """``match_service()`` hands out the live service only as what it
    is: asking for another cache size, depth, concurrency, deadline or
    fault plan used to return the old service silently; rebuilding
    would silently drop its cache and standing registrations.  The
    refusal names the setting and leaves the service answering."""
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    try:
        service = engine.match_service(shards=2)
        for setting, value in (
            ("cache_capacity", 0),
            ("queue_depth", 3),
            ("max_concurrent", 2),
            ("default_deadline", 5.0),
            ("chaos", FaultPlan()),
        ):
            with pytest.raises(QueryError, match=setting):
                engine.match_service(shards=2, **{setting: value})
        assert engine.match_service(shards=2) is service
        assert (
            service.match(queries[0]).embeddings == expected["bitset"][0]
        )
    finally:
        engine.close()


@pytest.mark.usefixtures("pool_route")
def test_engine_holds_one_pool(service_instance):
    """One pool per engine: the service's pool *is* the engine's, so a
    served 2-shard engine answers ``service.match`` and both solo
    spellings on the same two worker processes, a commit sends one
    MUTATE per worker, a conflicting layout is refused without
    disturbing the service, and ``close()`` leaves nothing running."""
    data, queries, expected = service_instance
    before = set(multiprocessing.active_children())

    def workers():
        return sorted(
            child.pid for child in multiprocessing.active_children()
            if child not in before
        )

    engine = HGMatch(data, index_backend="bitset", shards=2)
    service = MatchService(engine, shards=2, cache_capacity=0)
    try:
        assert engine.pool() is service.pool
        assert (
            service.match(queries[0]).embeddings == expected["bitset"][0]
        )
        pids = workers()
        assert len(pids) == 2
        assert (
            engine.count(queries[1], executor="processes")
            == expected["bitset"][1]
        )
        assert workers() == pids
        frames = service.pool.dispatched_frames
        victim = next(engine.match(queries[0])).edge_ids[0]
        engine.apply_mutations(MutationBatch(deletes=[victim]))
        assert service.pool.dispatched_frames - frames == 2
        with pytest.raises(QueryError, match="held by its match service"):
            engine.count(queries[0], executor="processes", shards=3)
        with pytest.raises(QueryError, match="held by its match service"):
            engine.pool(hosts=[("127.0.0.1", 1)])
        with pytest.raises(SchedulerError, match="already has a live"):
            MatchService(engine, shards=2)
        assert engine.pool() is service.pool
        assert (
            service.match(queries[0]).embeddings
            == engine.count(queries[0], executor="processes")
            == engine.count(queries[0])
            < expected["bitset"][0]
        )
        assert workers() == pids
        service.close()  # releases the slot: the next solo job is on its own
        assert workers() == []
        assert engine.count(queries[0], executor="processes") == engine.count(
            queries[0]
        )
        assert engine.pool() is not service.pool and len(workers()) == 2
    finally:
        engine.close()
    assert workers() == []


def test_drain_refuses_new_work_and_shuts_down(service_instance):
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=1)
    try:
        assert (
            service.match(queries[0]).embeddings == expected["bitset"][0]
        )
        service.drain(timeout=10.0)
        service.drain(timeout=10.0)  # idempotent
        with pytest.raises(SchedulerError, match="closed"):
            service.submit(queries[1])
    finally:
        service.close()
        engine.close()


# ----------------------------------------------------------------------
# The daemon front end: line JSON, disconnect-cancel, graceful stop
# ----------------------------------------------------------------------


def _start_daemon(service):
    """Serve ``service`` from a MatchDaemon on a background event-loop
    thread; returns ``(daemon, (host, port), thread)`` once listening.
    ``daemon.request_stop()`` (the SIGTERM handler's exact body) is the
    way back out — it is thread-safe by contract."""
    daemon = MatchDaemon(service, port=0)
    ready = threading.Event()

    def runner():
        async def _main():
            await daemon.start()
            ready.set()
            await daemon.serve()

        asyncio.run(_main())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(30.0), "daemon never came up"
    return daemon, daemon.address, thread


def _stop_daemon(daemon, thread):
    daemon.request_stop()
    thread.join(timeout=60.0)
    assert not thread.is_alive()


def test_a_dataset_name_served_with_a_query_file_never_answers_zero(
    tmp_path,
):
    """A built-in dataset (int labels, what ``serve-match SB`` loads)
    asked with a ``repro sample`` query file (labels read back as
    strings): the daemon answers the true count or a typed refusal —
    never the silent 0 no signature match gives — and ``repro query``
    prints the refusal and exits 1.  Nothing reaches the pool."""
    from repro.cli import main
    from repro.datasets import load_dataset
    from repro.hypergraph import Hypergraph
    from repro.hypergraph.io import load_native

    query_path = str(tmp_path / "q.hg")
    assert main(
        ["sample", "SB", "--setting", "q3", "--seed", "7",
         "--out", query_path], out=io.StringIO(),
    ) == 0
    query = load_native(query_path)
    data = load_dataset("SB")
    true_count = HGMatch(data).count(Hypergraph(
        [int(label) for label in query.labels], query.edges
    ))
    assert true_count > 0
    engine = HGMatch(data)
    service = MatchService(engine, shards=2)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        try:
            outcome = MatchClient(host, port, timeout=30.0).query(query)
        except QueryError as exc:
            assert "labels are str but the data graph's are int" in str(exc)
        else:
            assert outcome.embeddings == true_count
        out = io.StringIO()
        code = main(
            ["query", query_path, "--connect", f"{host}:{port}"], out=out
        )
        assert code == 1
        assert out.getvalue().startswith("error: query vertex labels")
        assert service.pool.dispatched_frames == 0
    finally:
        _stop_daemon(daemon, thread)
        service.close()
        engine.close()


def test_daemon_round_trip_cache_and_graceful_stop(service_instance):
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=2)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        client = MatchClient(host, port, timeout=30.0)
        outcome = client.query(queries[0])
        assert outcome.embeddings == expected["bitset"][0]
        assert not outcome.cached
        repeat = client.query(queries[0])
        assert repeat.embeddings == expected["bitset"][0]
        assert repeat.cached
        with pytest.raises(TimeoutExceeded):
            # An already-blown deadline comes back *typed*, not as a
            # generic error string.
            client.query(queries[1], deadline=1e-9)
    finally:
        _stop_daemon(daemon, thread)
        engine.close()
    assert daemon.queries_served == 2  # the typed failure is not "served"
    # request_stop drained the service: the listener is gone and the
    # service refuses new work.
    with pytest.raises(SchedulerError, match="closed"):
        service.submit(queries[0])
    with pytest.raises(ReproError, match="unreachable"):
        MatchClient(host, port, timeout=2.0).query(queries[0])


def test_daemon_refuses_garbage_without_dying(service_instance):
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=1)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(b"this is not json\n")
            raw = sock.makefile("r").readline()
        payload = json.loads(raw)
        assert payload["ok"] is False
        assert "bad request" in payload["error"]
        # The daemon survived: real work still goes through.
        outcome = MatchClient(host, port, timeout=30.0).query(queries[0])
        assert outcome.embeddings == expected["bitset"][0]
    finally:
        _stop_daemon(daemon, thread)
        engine.close()


@pytest.mark.usefixtures("pool_route")
def test_daemon_client_disconnect_cancels_the_query(service_instance):
    data, queries, expected = service_instance
    plan = FaultPlan()
    plan.slow_reply(0, after_frames=2, seconds=1.5)
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=2, chaos=plan, cache_capacity=0)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        # Submit over a raw socket and hang up without reading: the
        # EOF watchdog must cancel the in-flight query.
        buffer = io.StringIO()
        dump_native(queries[0], buffer)
        request = json.dumps({"query": buffer.getvalue()}) + "\n"
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(request.encode("utf-8"))
        # Abandoned mid-gather (the slow reply is still ~1s away): the
        # pool must come back empty — cancelled, not orphaned.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if service.in_flight == 0 and not service.pool._queries:
                break
            time.sleep(0.05)
        assert service.in_flight == 0
        assert service.pool._queries == {}
        # The pool survived the abandonment: a client who *does* listen
        # gets the exact count.
        outcome = MatchClient(host, port, timeout=30.0).query(queries[0])
        assert outcome.embeddings == expected["bitset"][0]
    finally:
        _stop_daemon(daemon, thread)
        engine.close()


@pytest.mark.usefixtures("pool_route")
def test_daemon_answers_a_ticket_cancelled_before_it_started(
    service_instance,
):
    """A live ticket's future is awaited on the event loop; one
    cancelled while still backlogged gets the explicit ``cancelled``
    reply, not a silently closed socket."""
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=1, max_concurrent=1)
    daemon, (host, port), thread = _start_daemon(service)
    gate = threading.Event()
    try:
        service._workers.submit(gate.wait, 30.0)  # holds the one thread
        buffer = io.StringIO()
        dump_native(queries[0], buffer)
        request = json.dumps({"query": buffer.getvalue()}) + "\n"
        with socket.create_connection((host, port), timeout=30.0) as sock:
            sock.sendall(request.encode("utf-8"))
            deadline = time.monotonic() + 10.0
            while service.in_flight != 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.in_flight == 1
            service._tickets[-1].cancel()
            reply = json.loads(sock.makefile("r").readline())
        assert reply["ok"] is False and reply["cancelled"] is True
        assert "before it started" in reply["error"]
        assert service.in_flight == 0
        gate.set()
        outcome = MatchClient(host, port, timeout=30.0).query(queries[0])
        assert outcome.embeddings == expected["bitset"][0]
    finally:
        gate.set()
        _stop_daemon(daemon, thread)
        engine.close()

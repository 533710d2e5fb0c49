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
import inspect
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
from repro.hypergraph.journal import DEFAULT_SNAPSHOT_INTERVAL, MutationJournal
from repro.hypergraph.sampling import QuerySetting, sample_query
from repro.parallel import ShardPool, handshake
from repro.parallel.chaos import FaultPlan
from repro.service import (
    MatchClient,
    MatchDaemon,
    MatchService,
    QueryChannel,
    graph_fingerprint,
    query_fingerprint,
)
from repro.service import daemon as daemon_module
from repro.service import service as service_module
from repro.service.standing import StandingQuery
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
    """Pass the next REPLY frame the pool's pump receives through
    ``rewrite(query_id, reply_body) -> (kind, body)``; one shot."""
    from repro.parallel import transport

    real = transport.split_frames
    armed = [True]

    def split_frames(buffer):
        for kind, body in real(buffer):
            if armed and kind == transport.MSG_LEVEL_REPLY:
                armed.clear()
                kind, body = rewrite(*transport.split_query_body(body))
            yield kind, body

    monkeypatch.setattr(transport, "split_frames", split_frames)
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
                  r"retry after 0\.250s",
        ) as refusal:
            service.submit(queries[1])
        assert time.monotonic() - started < 2.0  # refused, not queued
        assert refusal.value.depth == 1
        assert refusal.value.retry_after == service_module.RETRY_AFTER
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
    """An int-labelled query and its str-labelled twin (the same native
    text) are distinct keys — the key is the query's content, labels
    as they are.  The label gate still runs before the cache lookup:
    the twin is refused, typed, never served the int query's cached
    count, and a standing registration of it is refused the same
    way."""
    from repro.hypergraph import Hypergraph

    data = Hypergraph([0, 1, 0, 1], [{0, 1}, {2, 3}, {0, 3}])
    query = Hypergraph([0, 1], [{0, 1}])
    twin = Hypergraph(["0", "1"], [{0, 1}])
    assert query_fingerprint(query) != query_fingerprint(twin)
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


def test_no_served_query_serialises_the_graph(service_instance, monkeypatch):
    """The cache knows the graph by its version: neither the first
    query, nor a hit, nor the first query after a commit calls
    ``dump_native`` (patched here to raise), and the commit still makes
    the old entry unreachable."""
    data, queries, expected = service_instance

    def refuse(*_args, **_kwargs):
        raise AssertionError("a served query serialised the whole graph")

    monkeypatch.setattr(service_module, "dump_native", refuse)
    monkeypatch.setattr("repro.hypergraph.io.dump_native", refuse)
    engine = HGMatch(parse_native(io.StringIO(_native_text(data))))
    service = MatchService(engine, shards=1)
    try:
        assert service.match(queries[0]).embeddings == expected["bitset"][0]
        assert service.submit(queries[0]).cached
        engine.apply_mutations(MutationBatch(deletes=[0]))
        after = service.submit(queries[0])
        assert not after.cached
        assert after.result().embeddings == HGMatch(engine.data).count(
            queries[0]
        )
        assert (service.cache_hits, service.cache_misses) == (1, 2)
    finally:
        service.close()
        engine.close()


def _native_text(graph) -> str:
    buffer = io.StringIO()
    dump_native(graph, buffer)
    return buffer.getvalue()


def test_the_cache_key_is_exact_not_a_checksum(monkeypatch):
    """Two distinct queries of equal edge and vertex counts whose
    checksums collide (``crc32`` patched to a constant) each get their
    own count: the key is the query's content, not its CRC."""
    from repro.hypergraph import Hypergraph

    monkeypatch.setattr(service_module.zlib, "crc32", lambda *args: 7)
    data = Hypergraph(
        ["A", "B", "C", "A", "B"], [[0, 1], [3, 4], [2, 3]]
    )
    a_b = Hypergraph(["A", "B"], [[0, 1]])
    a_c = Hypergraph(["A", "C"], [[0, 1]])
    engine = HGMatch(data)
    service = MatchService(engine, shards=1)
    try:
        assert service.match(a_b).embeddings == 2
        assert service.match(a_c).embeddings == 1
        assert service.match(a_b).embeddings == 2
        assert (service.cache_hits, service.cache_misses) == (1, 2)
    finally:
        service.close()
        engine.close()


def test_edge_labels_are_part_of_the_cache_key():
    """Two queries that differ only in their hyperedge's label: the
    native text (what a checksum key read) has no edge labels, the key
    does."""
    from repro.hypergraph import Hypergraph

    data = Hypergraph(
        ["A", "B", "A", "B"], [[0, 1], [2, 3], [0, 3]],
        edge_labels=["x", "x", "y"],
    )
    by_label = {
        label: Hypergraph(["A", "B"], [[0, 1]], edge_labels=[label])
        for label in ("x", "y")
    }
    assert query_fingerprint(by_label["x"]) != query_fingerprint(by_label["y"])
    engine = HGMatch(data)
    service = MatchService(engine, shards=1)
    try:
        assert service.match(by_label["x"]).embeddings == 2
        assert service.match(by_label["y"]).embeddings == 1
    finally:
        service.close()
        engine.close()


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
def test_a_deadline_too_large_for_a_float_holds_no_slot(service_instance):
    """An int deadline past a float's range is refused before
    admission: it once overflowed on the pool route's clock with its
    slot taken, so a one-slot service answered BUSY for good."""
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=1, queue_depth=1)
    try:
        with pytest.raises(OverflowError):
            service.submit(queries[0], deadline=10**400)
        assert (
            service.match(queries[0]).embeddings == expected["bitset"][0]
        )
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
    service_instance, monkeypatch
):
    """A dropped reply pinned to query id 1's frames: that query alone
    fails fast at its reply deadline; the concurrent query — same
    connection, same traffic — returns its exact count.  (On a pool of
    one: with a second member the silent one is failed and the part
    re-sent — ``tests/test_subtree_jobs.py``.)"""
    monkeypatch.setattr(handshake, "REPLY_DEADLINE", 0.75)
    data, queries, expected = service_instance
    plan = FaultPlan()
    # Worker 0 swallows its first reply *for query 1 only*.
    plan.drop_reply(0, after_frames=1, query_id=1)
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(
        engine, shards=1, chaos=plan, cache_capacity=0,
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


def test_engine_close_drains_its_match_service(service_instance):
    """A service built on an engine is the engine's: ``engine.close()``
    drains it (twice is a no-op), after which it refuses new work."""
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="adaptive")
    try:
        service = MatchService(engine, shards=2)
        assert engine._match_service is service
        assert (
            service.match(queries[0]).embeddings == expected["adaptive"][0]
        )
    finally:
        engine.close()
        engine.close()  # idempotent, service included
    assert engine._match_service is None
    with pytest.raises(SchedulerError, match="closed"):
        service.submit(queries[0])


#: Each surface retired in favour of the one way that stays:
#: ``MatchService(engine, ...)`` builds a service, a pool is built on
#: the workers' addresses (a member heartbeats its coordinator on the
#: data connection, and a restarted worker keeps its port — nothing is
#: discovered), the constructor's arguments (``serve-match`` flags) set
#: the journal, a registration's callback delivers its deltas, the
#: busy hint is a constant, a worker session ends when its connection
#: closes, the heartbeat's silence rule and the one reply deadline
#: (constants both) bound every wait on a worker, a graph goes to
#: disk only as a journal snapshot (its index is built in memory), and
#: one restart policy, the cluster's (constants too), restarts workers.
RETIRED_SURFACES = (
    "HGMatch.match_service",
    "HGMatch.pool(registry=)",
    "MatchService(retry_after=)",
    "StandingQuery.poll",
    "StandingQuery.events",
    "REPRO_JOURNAL_*",
    "repro.parallel.WorkerRegistry",
    "repro.parallel.Announcer",
    "ShardPool.from_registry",
    "ShardPool(registry=)",
    "transport.MSG_ANNOUNCE",
    "serve-shard --announce",
    "transport.MSG_STOP",
    "repro.parallel.default_io_timeout",
    "ShardPool(io_timeout=)",
    "ShardPool(retry=)",
    "ShardWorker(io_timeout=)",
    "MatchService(io_timeout=)",
    "repro.hypergraph.load_store",
    "repro.hypergraph.save_store",
    "repro.hypergraph.stores_equal",
    "repro.hypergraph.index_from_postings",
    "repro index",
    "supervise --restart-budget",
    "supervise --poll-interval",
    "repro.parallel.WorkerSupervisor",
    "repro.parallel.SlotStatus",
)

#: The command line of each retired CLI spelling.
RETIRED_ARGV = {
    "serve-shard --announce": [
        "serve-shard", "HB", "--shard-id", "0", "--announce", "h:1"
    ],
    "repro index": ["index", "HB", "--out", "HB.hgstore"],
    "supervise --restart-budget": [
        "supervise", "HB", "--num-shards", "2", "--restart-budget", "3"
    ],
    "supervise --poll-interval": [
        "supervise", "HB", "--num-shards", "2", "--poll-interval", "1"
    ],
}


@pytest.mark.parametrize("surface", RETIRED_SURFACES)
def test_retired_service_surface_stays_gone(surface, monkeypatch, tmp_path):
    if surface == "HGMatch.match_service":
        assert not hasattr(HGMatch, "match_service")
    elif surface == "HGMatch.pool(registry=)":
        assert "registry" not in inspect.signature(HGMatch.pool).parameters
    elif surface == "MatchService(retry_after=)":
        assert "retry_after" not in inspect.signature(
            MatchService
        ).parameters
    elif surface.startswith("StandingQuery."):
        assert not hasattr(StandingQuery, surface.split(".")[1])
    elif surface.startswith("repro.hypergraph."):
        import importlib

        import repro.hypergraph
        from repro.hypergraph import index

        name = surface.rsplit(".", 1)[1]
        assert not hasattr(repro.hypergraph, name)
        assert not hasattr(index, name)
        with pytest.raises(ImportError):
            importlib.import_module("repro.hypergraph.persistence")
    elif surface.startswith("repro.parallel."):
        import repro.parallel

        assert not hasattr(repro.parallel, surface.rsplit(".", 1)[1])
    elif surface == "ShardPool.from_registry":
        assert not hasattr(ShardPool, "from_registry")
    elif surface == "ShardPool(registry=)":
        assert "registry" not in inspect.signature(ShardPool).parameters
        assert not hasattr(ShardPool(num_shards=1), "registry")
    elif surface.endswith("_timeout=)") or surface == "ShardPool(retry=)":
        from repro.parallel import ShardWorker

        owner, name = surface[:-2].split("(")
        owner = {
            "ShardPool": ShardPool,
            "ShardWorker": ShardWorker,
            "MatchService": MatchService,
        }[owner]
        assert name not in inspect.signature(owner).parameters
    elif surface.startswith("transport.MSG_"):
        from repro.parallel import transport

        assert not hasattr(transport, surface.split(".")[1])
    elif surface in RETIRED_ARGV:
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(RETIRED_ARGV[surface])
        assert exit_info.value.code == 2
    else:
        for name, value in (
            ("REPRO_JOURNAL_DIR", str(tmp_path / "elsewhere")),
            ("REPRO_JOURNAL_FSYNC", "never"),
            ("REPRO_JOURNAL_SNAPSHOT_INTERVAL", "7"),
        ):
            monkeypatch.setenv(name, value)
        with pytest.raises(TypeError):
            MutationJournal()  # no directory from the environment
        journal = MutationJournal(str(tmp_path / "wal"))
        assert (journal.fsync_policy, journal.snapshot_interval) == (
            "always", DEFAULT_SNAPSHOT_INTERVAL,
        )
        assert not (tmp_path / "elsewhere").exists()


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


# ----------------------------------------------------------------------
# Keep-alive: one connection carries requests one after another
# ----------------------------------------------------------------------


def _request_line(query=None, **fields) -> bytes:
    if query is not None:
        buffer = io.StringIO()
        dump_native(query, buffer)
        fields["query"] = buffer.getvalue()
    return (json.dumps(fields) + "\n").encode("utf-8")


@pytest.mark.usefixtures("pool_route")
def test_daemon_answers_pool_queries_back_to_back_on_one_socket(
    service_instance,
):
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=2, cache_capacity=0)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        with socket.create_connection((host, port), timeout=30.0) as sock:
            replies = sock.makefile("r")
            for index in (0, 1):
                sock.sendall(_request_line(queries[index]))
                payload = json.loads(replies.readline())
                assert payload["ok"] is True
                assert payload["embeddings"] == expected["bitset"][index]
                assert payload["cached"] is False
        assert service.pool.dispatched_frames > 0  # both took the pool
    finally:
        _stop_daemon(daemon, thread)
        engine.close()
    assert daemon.queries_served == 2


@pytest.mark.usefixtures("pool_route")
def test_daemon_answers_pipelined_requests_in_order(service_instance):
    """Three requests in one write: the first is a pool query whose EOF
    watchdog reads the next line early — that line is answered after
    it, from the same read, and so is the one behind it."""
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=2, cache_capacity=0)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        with socket.create_connection((host, port), timeout=30.0) as sock:
            sock.sendall(
                _request_line(queries[0])
                + _request_line(op="no-such-op")
                + _request_line(queries[2])
            )
            replies = sock.makefile("r")
            first, second, third = (
                json.loads(replies.readline()) for _ in range(3)
            )
        assert first["ok"] and first["embeddings"] == expected["bitset"][0]
        assert second == {"ok": False, "error": "unknown op 'no-such-op'"}
        assert third["ok"] and third["embeddings"] == expected["bitset"][2]
    finally:
        _stop_daemon(daemon, thread)
        engine.close()


@pytest.mark.parametrize("text", [
    "v 2\nl 0 A\nl 1 B\nl -1 X\ne 0 1\n",
    "v 2\nl 0 A\ne 0 1\n",
], ids=["negative-label-id", "unlabelled-vertex"])
def test_daemon_refuses_a_query_the_parser_refuses(service_instance, text):
    """A query text ``parse_native`` refuses is a ``bad request`` —
    not a count of some other query it was misread as — and the
    connection still answers the next request."""
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=1)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        with socket.create_connection((host, port), timeout=30.0) as sock:
            replies = sock.makefile("r")
            sock.sendall((json.dumps({"query": text}) + "\n").encode())
            refused = json.loads(replies.readline())
            sock.sendall(_request_line(queries[0]))
            answered = json.loads(replies.readline())
        assert refused["ok"] is False
        assert refused["error"].startswith("bad request: ")
        assert answered["ok"] is True
        assert answered["embeddings"] == expected["bitset"][0]
    finally:
        _stop_daemon(daemon, thread)
        engine.close()
    assert service.cache_misses == 1  # the refusal never reached it


@pytest.mark.parametrize("fields", [
    {"order": 5},
    {"order": [[0]]},
    {"order": "01"},
    {"order": [0, 1.0]},
    {"order": [True]},
    {"deadline": "x"},
    {"deadline": -1},
    {"deadline": float("inf")},
    {"deadline": float("nan")},
    {"deadline": [1]},
    {"deadline": True},
    {"deadline": 10**400},
    {"op": "standing", "order": 5},
], ids=lambda fields: repr(fields)[:40])
@pytest.mark.usefixtures("pool_route")
def test_daemon_refuses_a_malformed_order_or_deadline(
    service_instance, fields,
):
    """``order`` is null or a list of ints (on a ``standing`` request
    too), ``deadline`` null or a finite number >= 0: anything else is a
    ``bad request`` reply — not a dropped connection or an untyped
    message — and the same connection then answers a real query.  On
    the pool route, where the service spends a deadline on its clock:
    an integer too large for a float (sent as raw JSON digits) once
    overflowed there, dropped the connection and held its admission
    slot for good."""
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=1)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        with socket.create_connection((host, port), timeout=30.0) as sock:
            replies = sock.makefile("r")
            sock.sendall(_request_line(queries[0], **fields))
            refused = json.loads(replies.readline())
            sock.sendall(_request_line(queries[0]))
            answered = json.loads(replies.readline())
        assert refused["ok"] is False
        assert refused["error"].startswith("bad request: ")
        assert answered["ok"] is True
        assert answered["embeddings"] == expected["bitset"][0]
    finally:
        _stop_daemon(daemon, thread)
        engine.close()
    assert service.cache_misses == 1  # the refusal never reached it


def test_daemon_takes_a_well_formed_order_and_deadline(service_instance):
    """The decoding refuses nothing the protocol allows: an int
    deadline, a float one, 0 (answered, typed, as already blown or
    not) and an explicit order of ints."""
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=1)
    daemon, (host, port), thread = _start_daemon(service)
    order = list(engine.plan(queries[0]).order)
    try:
        with socket.create_connection((host, port), timeout=30.0) as sock:
            replies = sock.makefile("r")
            for fields in (
                {"deadline": 30}, {"deadline": 30.0}, {"order": order},
                {"order": None, "deadline": None},
            ):
                sock.sendall(_request_line(queries[0], **fields))
                answered = json.loads(replies.readline())
                assert answered["ok"] is True, fields
                assert answered["embeddings"] == expected["bitset"][0]
            sock.sendall(_request_line(queries[1], deadline=0))
            last = json.loads(replies.readline())
        assert last["ok"] or last.get("deadline_exceeded") is True
    finally:
        _stop_daemon(daemon, thread)
        engine.close()


def test_daemon_answers_garbage_then_a_query_on_one_socket(
    service_instance,
):
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=1)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        with socket.create_connection((host, port), timeout=30.0) as sock:
            replies = sock.makefile("r")
            sock.sendall(b"this is not json\n")
            refused = json.loads(replies.readline())
            sock.sendall(_request_line(queries[0]))
            answered = json.loads(replies.readline())
        assert refused["ok"] is False and "bad request" in refused["error"]
        assert answered["ok"] is True
        assert answered["embeddings"] == expected["bitset"][0]
    finally:
        _stop_daemon(daemon, thread)
        engine.close()


def test_daemon_answers_an_over_long_line_then_closes(
    service_instance, monkeypatch,
):
    """Past ``MAX_REQUEST_BYTES`` the framing is lost: the line gets its
    error reply, then EOF — nothing behind it is read as a request."""
    monkeypatch.setattr(daemon_module, "MAX_REQUEST_BYTES", 4096)
    data, queries, expected = service_instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=1)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        with socket.create_connection((host, port), timeout=30.0) as sock:
            sock.sendall(b"x" * 10_000 + b"\n" + _request_line(queries[0]))
            replies = sock.makefile("r")
            payload = json.loads(replies.readline())
            assert replies.readline() == ""  # EOF, no second reply
        assert payload == {
            "ok": False, "error": "request exceeds 4096 bytes"
        }
        assert daemon.queries_served == 0
    finally:
        _stop_daemon(daemon, thread)
        engine.close()


@pytest.mark.usefixtures("pool_route")
def test_drain_closes_idle_connections_and_answers_busy_ones(
    service_instance,
):
    """SIGTERM's drain closes a connection waiting for its next request
    itself — the idle client reads EOF while the stop is still in
    progress — and a connection with a query in flight gets its exact
    answer before it closes."""
    data, queries, expected = service_instance
    plan = FaultPlan()
    plan.slow_reply(0, after_frames=2, seconds=1.5)
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=2, chaos=plan, cache_capacity=0)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        with socket.create_connection((host, port), timeout=30.0) as idle, \
                socket.create_connection((host, port), timeout=30.0) as busy:
            idle.sendall(_request_line(op="no-such-op"))
            assert not json.loads(idle.makefile("r").readline())["ok"]
            busy.sendall(_request_line(queries[0]))
            deadline = time.monotonic() + 10.0
            while service.in_flight != 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.in_flight == 1
            daemon.request_stop()
            idle.settimeout(1.0)
            assert idle.recv(1) == b""
            assert thread.is_alive() and service.in_flight == 1
            replies = busy.makefile("r")
            payload = json.loads(replies.readline())
            assert payload["ok"] is True
            assert payload["embeddings"] == expected["bitset"][0]
            assert replies.readline() == ""
    finally:
        _stop_daemon(daemon, thread)
        engine.close()

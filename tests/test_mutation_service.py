"""MatchService under mutation: cache invalidation, standing queries,
and the daemon's ``mutate`` / ``standing`` wire ops.

The service-level contract this file pins:

* a committed mutation bumps the graph fingerprint, so every cached
  result keyed by the old fingerprint becomes unreachable — never
  served, not even straight after the commit;
* standing queries receive *exact* deltas — ``removed`` is the old
  matches using a deleted edge, ``added`` the matches using an
  inserted one — and the maintained match set always equals a full
  re-enumeration on a fresh engine;
* a commit that cannot touch the query's subgraph still emits a delta
  (the version bump), with both sides empty;
* the mutation barrier refuses concurrent work with the *typed*
  errors: submissions see ServiceBusy, a second barrier SchedulerError;
* the daemon speaks the same truths over line-JSON TCP.
"""

import asyncio
import gc
import io
import json
import logging
import queue
import random
import socket
import threading
import time

import pytest

from repro import HGMatch
from repro.errors import ReproError, SchedulerError, ServiceBusy
from repro.hypergraph import MutationBatch
from repro.hypergraph.io import dump_native, parse_native
from repro.service import (
    MatchClient,
    MatchDaemon,
    MatchService,
    graph_fingerprint,
)
from repro.service.standing import enumerate_added
from repro.testing import make_mutable_instance


def _wire_form(graph):
    """Round-trip through the native text format so in-process graphs
    and daemon-wire queries agree on (stringified) labels."""
    buffer = io.StringIO()
    dump_native(graph, buffer)
    return parse_native(io.StringIO(buffer.getvalue()))


@pytest.fixture()
def instance():
    """A fresh (data, query) per test — mutations consume the graph."""
    rng = random.Random(4242)
    prepared = None
    while prepared is None:
        prepared = make_mutable_instance(rng)
    data, query, _ = prepared
    return _wire_form(data), _wire_form(query)


def full_matches(engine, query):
    """The oracle: a complete enumeration as canonical tuples."""
    return {embedding.canonical() for embedding in engine.match(query)}


def rebuild_count(engine, query, backend):
    """Count on a fresh engine over the mutated graph's dense snapshot."""
    oracle = HGMatch(engine.data.to_hypergraph(), index_backend=backend)
    try:
        return oracle.count(query)
    finally:
        oracle.close()


def delete_a_matched_edge(handle):
    """A batch deleting one data edge that some current match uses."""
    match = min(handle.matches)
    return min(match), MutationBatch(deletes=[min(match)])


# ----------------------------------------------------------------------
# Cache invalidation
# ----------------------------------------------------------------------


def test_mutation_bumps_fingerprint_and_unreaches_stale_cache(instance):
    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=2)
    try:
        before = service.match(query)
        assert service.submit(query).cached  # sanity: it IS cached
        fp_before = graph_fingerprint(engine.data)

        # Mutate through the ENGINE: it must route via the service's
        # barrier, not around it.
        victim = sorted(
            edge for match in full_matches(engine, query) for edge in match
        )[0]
        result = engine.apply_mutations(MutationBatch(deletes=[victim]))
        assert result.version == 1

        assert graph_fingerprint(engine.data) != fp_before
        after = service.submit(query)
        assert not after.cached, "stale result served across a mutation"
        expected = rebuild_count(engine, query, "merge")
        assert after.result().embeddings == expected
        assert expected < before.embeddings  # the delete really bit
        # The post-mutation result is cacheable under the new key.
        assert service.submit(query).cached
    finally:
        service.close()
        engine.close()


# ----------------------------------------------------------------------
# Standing queries
# ----------------------------------------------------------------------


def test_standing_delta_is_exact_for_deletes_and_inserts(instance):
    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=2)
    try:
        deltas = queue.Queue()
        handle = service.register_standing(query, callback=deltas.put)
        assert handle.matches == full_matches(engine, query)
        assert service.standing_queries == 1

        # Delete an edge used by a match; re-insert its vertex set in
        # the same batch (fresh id, so old matches die and new ones
        # appear).
        victim, _ = delete_a_matched_edge(handle)
        victim_vertices = tuple(sorted(engine.data.edge(victim)))
        batch = MutationBatch(deletes=[victim], inserts=[victim_vertices])
        old_matches = set(handle.matches)
        result = service.apply_mutations(batch)

        delta = deltas.get_nowait()
        assert delta.version == result.version
        # removed: exactly the old matches using the deleted edge.
        assert set(delta.removed) == {
            match for match in old_matches if victim in match
        }
        # added: exactly the fresh enumeration from the inserted edges.
        inserted = {mutation.edge_id for mutation in result.inserted}
        assert set(delta.added) == enumerate_added(engine, query, inserted)
        # The maintained set equals a from-scratch enumeration.
        assert handle.matches == full_matches(engine, query)
        assert handle.version == result.version
        assert deltas.empty()  # exactly one delta per commit
    finally:
        service.close()
        engine.close()


def test_untouched_subgraph_emits_empty_delta(instance):
    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=2)
    try:
        deltas = queue.Queue()
        handle = service.register_standing(query, callback=deltas.put)
        seeded = set(handle.matches)
        base = engine.data.num_vertices
        # Two vertices with a label no query vertex wears, joined by a
        # new edge: no embedding can gain or lose anything.
        batch = MutationBatch(
            add_vertices=["__fresh__", "__fresh__"],
            inserts=[(base, base + 1)],
        )
        result = service.apply_mutations(batch)
        assert not deltas.empty(), "every commit must emit a delta"
        delta = deltas.get_nowait()
        assert not delta, "untouched subgraph produced a non-empty delta"
        assert delta.version == result.version
        assert handle.matches == seeded
    finally:
        service.close()
        engine.close()


def test_standing_callback_fires_and_submit_is_busy_mid_commit(instance):
    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=2)
    observed = []

    def callback(delta):
        # Runs inside the commit: the barrier is up, so a submission
        # from here must be refused as BUSY, not deadlock or compute.
        with pytest.raises(ServiceBusy):
            service.submit(query)
        with pytest.raises(SchedulerError, match="already being committed"):
            service.apply_mutations(MutationBatch())
        observed.append(delta)

    try:
        handle = service.register_standing(query, callback=callback)
        old_matches = set(handle.matches)
        _, batch = delete_a_matched_edge(handle)
        result = service.apply_mutations(batch)
        assert len(observed) == 1
        delta = observed[0]
        assert delta.version == result.version == handle.version
        # The delivered delta is exactly the change to the match set.
        assert handle.matches == (
            old_matches - set(delta.removed)
        ) | set(delta.added)
        assert delta.removed
    finally:
        service.close()
        engine.close()


def test_unregister_and_drain_close_standing_streams(instance):
    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=1)
    try:
        first = service.register_standing(query)
        second = service.register_standing(query)
        assert service.standing_queries == 2
        service.unregister_standing(first)
        assert first.closed and not second.closed
        assert service.standing_queries == 1
        service.unregister_standing(first)  # idempotent
        service.drain()
        assert second.closed
        assert service.standing_queries == 0
        with pytest.raises(SchedulerError, match="closed"):
            service.register_standing(query)
        with pytest.raises(SchedulerError, match="closed"):
            service.apply_mutations(MutationBatch(deletes=[0]))
    finally:
        service.close()
        engine.close()


def test_events_iterator_drains_then_ends_after_close(instance):
    """The callback's stream: one delta per commit, then one ``None``
    when the query is unregistered, and nothing after."""
    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=1)
    try:
        events = queue.Queue()
        handle = service.register_standing(query, callback=events.put)
        _, batch = delete_a_matched_edge(handle)
        service.apply_mutations(batch)
        service.unregister_standing(handle)
        service.unregister_standing(handle)  # idempotent: no 2nd end
        deltas = list(iter(events.get_nowait, None))
        assert len(deltas) == 1 and deltas[0].removed
        assert events.empty()
    finally:
        service.close()
        engine.close()


def test_a_raising_callback_fails_neither_the_commit_nor_its_neighbours(
    instance, caplog
):
    """A subscriber whose callback raises is logged; the commit (already
    applied) returns, and the registration after it still gets exactly
    its delta and stays exact."""
    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=1)

    def broken(delta):
        raise RuntimeError("subscriber gone")

    try:
        first = service.register_standing(query, callback=broken)
        deltas = queue.Queue()
        second = service.register_standing(query, callback=deltas.put)
        _, batch = delete_a_matched_edge(first)
        with caplog.at_level(logging.ERROR, logger="repro.service"):
            result = service.apply_mutations(batch)
        assert result.version == engine.data.version == 1
        assert "subscriber gone" in caplog.text
        assert deltas.get_nowait().version == 1
        assert deltas.empty()
        assert second.version == first.version == 1
        assert second.matches == full_matches(engine, query)
        service.unregister_standing(first)  # its final None fails too
        assert service.standing_queries == 1
    finally:
        service.close()
        engine.close()


def test_a_registration_nobody_reads_retains_nothing(instance):
    """Without a callback a registration keeps its match set current
    and holds no delta: after 50 commits no ``MatchDelta`` is alive."""
    from repro.service.standing import MatchDelta

    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=1)
    try:
        handle = service.register_standing(query)
        for _ in range(50):
            # Kill a match and give its edge back under a fresh id.
            victim, _ = delete_a_matched_edge(handle)
            vertices = tuple(sorted(engine.data.edge(victim)))
            service.apply_mutations(
                MutationBatch(deletes=[victim], inserts=[vertices])
            )
        assert handle.version == 50
        gc.collect()
        alive = [o for o in gc.get_objects() if isinstance(o, MatchDelta)]
        assert alive == []
        assert handle.matches == full_matches(engine, query)
    finally:
        service.close()
        engine.close()


# ----------------------------------------------------------------------
# The daemon wire ops
# ----------------------------------------------------------------------


def _start_daemon(service):
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


def test_daemon_mutate_and_standing_stream(instance):
    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=2)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        client = MatchClient(host, port, timeout=30.0)
        before = client.query(query)

        with client.standing(query) as subscription:
            assert subscription.matches == before.embeddings
            assert service.standing_queries == 1

            victim = min(min(m) for m in full_matches(engine, query))
            outcome = client.mutate(MutationBatch(deletes=[victim]))
            assert outcome.version == 1
            assert outcome.deleted == 1 and outcome.inserted == 0
            assert outcome.edges == engine.data.num_edges

            delta = subscription.poll(timeout=15.0)
            assert delta is not None
            assert delta["version"] == outcome.version
            assert delta["removed"], "the deleted edge killed matches"
            assert subscription.version == outcome.version

            after = client.query(query)
            assert not after.cached
            assert after.embeddings == rebuild_count(engine, query, "merge")

        # Dropping the subscription unregisters it server-side.
        deadline = 100
        while service.standing_queries and deadline:
            deadline -= 1
            threading.Event().wait(0.05)
        assert service.standing_queries == 0
    finally:
        _stop_daemon(daemon, thread)
        engine.close()


def test_daemon_rejects_bad_mutations_and_unknown_ops(instance):
    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=1)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        client = MatchClient(host, port, timeout=30.0)
        # A batch deleting a non-existent edge is a typed refusal, and
        # the graph must stay pristine (atomicity through the wire).
        with pytest.raises(ReproError, match="not a live edge"):
            client.mutate(MutationBatch(deletes=[10 ** 6]))
        assert getattr(engine.data, "version", 0) == 0

        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(
                (json.dumps({"op": "frobnicate"}) + "\n").encode("utf-8")
            )
            reply = json.loads(sock.makefile("r").readline())
        assert reply["ok"] is False
        assert "frobnicate" in reply["error"]

        # The daemon survived both refusals.
        assert client.query(query).embeddings >= 1
    finally:
        _stop_daemon(daemon, thread)
        engine.close()


# ----------------------------------------------------------------------
# Durability: the journal seam and restart recovery
# ----------------------------------------------------------------------


def test_service_journals_commits_inside_the_barrier(instance, tmp_path):
    from repro.hypergraph.journal import MutationJournal, read_journal

    data, query = instance
    wal = str(tmp_path / "wal")
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=1, journal=wal)
    try:
        assert service.journal is not None and service.journal.attached
        handle = service.register_standing(query)
        # Registration is persisted immediately, not only at drain.
        assert service.journal.load_standing(), "standing not persisted"
        _, batch = delete_a_matched_edge(handle)
        result = service.apply_mutations(batch)
        records, _valid = read_journal(service.journal.journal_path)
        assert [(v, b) for _o, v, b in records] == [(result.version, batch)]
    finally:
        service.close()
        engine.close()
    # drain (via close) flushed and closed the journal; the directory
    # alone reconstructs the committed graph.
    recovered = MutationJournal(wal).recover()
    assert recovered is not None
    assert recovered.version == result.version


def test_daemon_restart_recovers_graph_and_resumes_standing(
    instance, tmp_path
):
    """The SIGTERM-drain / restart contract: stopping the daemon
    flushes the journal and persists the standing registrations; a
    daemon restarted on the same directory serves bit-identical counts
    and resumes the standing streams from the recovered version."""
    from repro.hypergraph.journal import MutationJournal

    data, query = instance
    wal = str(tmp_path / "wal")
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=2, journal=wal)
    daemon, (host, port), thread = _start_daemon(service)
    try:
        client = MatchClient(host, port, timeout=30.0)
        handle = service.register_standing(query)
        victim = min(min(m) for m in handle.matches)
        outcome = client.mutate(MutationBatch(deletes=[victim]))
        assert outcome.version == 1
        expected = rebuild_count(engine, query, "merge")
        fingerprint = graph_fingerprint(engine.data)
        survivors = set(handle.matches)
    finally:
        # request_stop is the SIGTERM path: drain fsyncs the journal
        # and rewrites standing.json before the process exits.
        _stop_daemon(daemon, thread)
        engine.close()

    journal = MutationJournal(wal)
    recovered = journal.recover()
    assert recovered is not None and recovered.version == 1
    assert graph_fingerprint(recovered.graph) == fingerprint

    engine2 = HGMatch(recovered.graph, index_backend="merge")
    service2 = MatchService(engine2, shards=2, journal=journal)
    deltas = []
    assert service2.restore_standing(callback=deltas.append) == 1
    daemon2, (host2, port2), thread2 = _start_daemon(service2)
    try:
        client2 = MatchClient(host2, port2, timeout=30.0)
        after = client2.query(query)
        assert after.embeddings == expected == len(survivors)
        # The restored stream picks up exactly where the journal left
        # off: the next commit's delta carries version 2, and the
        # maintained match set equals a fresh enumeration.
        restored = next(iter(service2._standing.values()))
        assert restored.matches == survivors
        victim2 = min(engine2.data.live_edge_ids())
        outcome2 = client2.mutate(MutationBatch(deletes=[victim2]))
        assert outcome2.version == 2
        assert len(deltas) == 1 and deltas[0].version == 2
        assert restored.matches == full_matches(engine2, query)
    finally:
        _stop_daemon(daemon2, thread2)
        engine2.close()


def test_mux_pool_heals_missed_mutate_via_catchup(instance):
    """The reconnect-replay story for the service's pool: the commit's
    CATCHUP send severed on the pool's only member drops it (the
    commit itself returns), leaving the worker stale.  The next query's
    reopen finds the stale HELLO and repairs it with the handshake's
    CATCHUP — before §2.10 this pool was permanently wedged against
    external workers."""
    from repro.parallel import FaultPlan, ShardPool, spawn_local_cluster

    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    plan = FaultPlan(seed=37)
    # The pool's first coordinator frame on each connection is the
    # commit's CATCHUP itself (the handshake sends none), so pin frame 1.
    plan.sever(0, after_frames=1, role="coordinator")
    cluster = spawn_local_cluster(data, 1, index_backend="merge")
    pool = ShardPool(
        addresses=list(cluster.addresses),
        index_backend="merge",
        chaos=plan,
    )
    try:
        pool.ensure_open(engine)
        victim = min(engine.data.live_edge_ids()) if hasattr(
            engine.data, "live_edge_ids"
        ) else 0
        result = engine.apply_mutations(MutationBatch(deletes=[victim]))
        pool.mutate(engine, result)
        assert all(f.consumed for f in plan.faults)
        assert not pool._members  # the failed send dropped it
        # The worker never saw the batch: the pool reopens against a
        # stale worker and catch-up levels it — counts match a rebuild
        # on the mutated graph.
        outcome = pool.run(engine, query)
        assert outcome.embeddings == rebuild_count(engine, query, "merge")
    finally:
        pool.close()
        cluster.close()
        engine.close()


def test_lost_mutate_ack_ends_the_barrier_at_once(instance, monkeypatch):
    """The commit never waits on an ack: a member lost between the
    commit's CATCHUP and its CATCHUP-REPLY (the worker applies the
    batch, then its connection is severed on the reply) costs the
    commit nothing — it returns at once, never near the reply deadline.
    The pump finds the member gone; the next query reopens the pool and
    counts like a rebuild."""
    from repro.parallel import FaultPlan, ShardPool, handshake
    from repro.parallel import spawn_local_cluster

    monkeypatch.setattr(handshake, "REPLY_DEADLINE", 6.0)

    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    plan = FaultPlan(seed=41)
    # Worker frames: 1 = HELLO, 2 = the CATCHUP-REPLY.
    plan.sever(0, after_frames=2, role="worker")
    cluster = spawn_local_cluster(
        data, 1, index_backend="merge", chaos=plan
    )
    pool = ShardPool(
        addresses=list(cluster.addresses),
        index_backend="merge",
    )
    try:
        pool.ensure_open(engine)
        result = engine.apply_mutations(MutationBatch(deletes=[0]))
        started = time.monotonic()
        pool.mutate(engine, result)
        assert time.monotonic() - started < 1.0
        outcome = pool.run(engine, query)
        assert outcome.embeddings == rebuild_count(engine, query, "merge")
        assert time.monotonic() - started < 6.0  # no reply deadline waited
    finally:
        pool.close()
        cluster.close()
        engine.close()


def test_worker_side_mutate_error_is_typed_not_a_timeout(
    instance, monkeypatch
):
    """A worker whose ``apply`` raises answers the commit's CATCHUP with
    an ERROR frame and ends the session.  The commit stands; the pump
    fails the member into the ladder, and the next query fails typed —
    naming the worker and its traceback — at once, not at the reply
    deadline."""
    from repro.hypergraph.dynamic import DynamicHypergraph
    from repro.parallel import ShardPool, handshake, spawn_local_cluster

    data, query = instance
    engine = HGMatch(data, index_backend="merge")

    def broken_apply(self, batch):
        raise RuntimeError("disk full while applying the batch")

    # The workers fork with the patch in place; the engine commits
    # after it is undone, so only the workers' replay of the batch
    # fails.
    monkeypatch.setattr(DynamicHypergraph, "apply", broken_apply)
    cluster = spawn_local_cluster(data, 2, index_backend="merge")
    monkeypatch.undo()
    monkeypatch.setattr(handshake, "REPLY_DEADLINE", 6.0)
    pool = ShardPool(
        addresses=list(cluster.addresses),
        index_backend="merge",
    )
    try:
        pool.ensure_open(engine)
        result = engine.apply_mutations(MutationBatch(deletes=[0]))
        pool.mutate(engine, result)
        assert engine.data.version == 1
        started = time.monotonic()
        with pytest.raises(
            SchedulerError, match=r"shard \d failed (.|\n)*disk full"
        ):
            pool.run(engine, query)
        assert time.monotonic() - started < 1.0
        assert not pool._members
    finally:
        pool.close()
        cluster.close()
        engine.close()


@pytest.mark.usefixtures("pool_route")
@pytest.mark.parametrize("via", ["service", "daemon"])
def test_a_commit_that_loses_its_last_member_still_commits(
    instance, tmp_path, via
):
    """A durable commit never reports failure for a worker it lost.
    The one member of a journalled service is severed on the commit's
    CATCHUP: the commit returns its result (the daemon's ``mutate`` op
    answers ``ok``), the standing query gets its delta, the journal
    holds the batch, and the next served query reopens the pool,
    catches the stale worker up and counts like a rebuild."""
    from repro.hypergraph.journal import read_journal
    from repro.parallel import FaultPlan, spawn_local_cluster

    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    plan = FaultPlan(seed=43)
    # Coordinator frames on the one connection: 1 = the warm-up
    # query's part, 2 = the commit's CATCHUP.
    plan.sever(0, after_frames=2, role="coordinator")
    cluster = spawn_local_cluster(data, 1, index_backend="merge")
    worker_pid = cluster.processes[0].pid
    service = MatchService(
        engine, shards=1, addresses=list(cluster.addresses), chaos=plan,
        journal=str(tmp_path / "wal"),
    )
    daemon = thread = None
    if via == "daemon":
        daemon, (host, port), thread = _start_daemon(service)
    try:
        assert service.match(query).embeddings == len(
            full_matches(engine, query)
        )
        deltas = queue.Queue()
        handle = service.register_standing(query, callback=deltas.put)
        _, batch = delete_a_matched_edge(handle)
        if daemon is None:
            version = service.apply_mutations(batch).version
        else:
            client = MatchClient(host, port, timeout=30.0)
            version = client.mutate(batch).version  # raises unless ok
        assert version == engine.data.version == 1
        assert all(f.consumed for f in plan.faults)
        delta = deltas.get_nowait()
        assert delta.version == 1
        assert handle.matches == full_matches(engine, query)
        records, _valid = read_journal(service.journal.journal_path)
        assert [(v, b) for _o, v, b in records] == [(1, batch)]
        after = service.submit(query)
        assert not after.cached
        assert after.result().embeddings == rebuild_count(
            engine, query, "merge"
        )
        # The same worker process, caught up rather than respawned.
        assert cluster.processes[0].pid == worker_pid
        assert cluster.processes[0].is_alive()
    finally:
        if daemon is not None:
            _stop_daemon(daemon, thread)
        service.close()
        cluster.close()
        engine.close()

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
import io
import json
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
        handle = service.register_standing(query)
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

        delta = handle.poll()
        assert delta is not None and delta.version == result.version
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
        assert handle.poll() is None  # exactly one delta per commit
    finally:
        service.close()
        engine.close()


def test_untouched_subgraph_emits_empty_delta(instance):
    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=2)
    try:
        handle = service.register_standing(query)
        seeded = set(handle.matches)
        base = engine.data.num_vertices
        # Two vertices with a label no query vertex wears, joined by a
        # new edge: no embedding can gain or lose anything.
        batch = MutationBatch(
            add_vertices=["__fresh__", "__fresh__"],
            inserts=[(base, base + 1)],
        )
        result = service.apply_mutations(batch)
        delta = handle.poll()
        assert delta is not None, "every commit must emit a delta"
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
        _, batch = delete_a_matched_edge(handle)
        result = service.apply_mutations(batch)
        assert len(observed) == 1
        assert observed[0].version == result.version
        assert observed[0] == handle.poll()
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
    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    service = MatchService(engine, shards=1)
    try:
        handle = service.register_standing(query)
        _, batch = delete_a_matched_edge(handle)
        service.apply_mutations(batch)
        service.unregister_standing(handle)
        deltas = list(handle.events(poll_interval=0.01))
        assert len(deltas) == 1 and deltas[0].removed
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
    """The reconnect-replay story for the service's pool: a MUTATE
    send severed on the pool's only member closes the pool (no member
    to degrade onto), leaving the worker stale.  The next query's
    reopen finds the stale HELLO and repairs it with a CATCHUP stream —
    before §2.10 this pool was permanently wedged against external
    workers."""
    from repro.parallel import FaultPlan, ShardPool, spawn_local_cluster

    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    plan = FaultPlan(seed=37)
    # The pool's first coordinator frame on each connection is the
    # MUTATE itself (the handshake sends none), so pin frame 1.
    plan.sever(0, 0, after_frames=1, role="coordinator")
    cluster = spawn_local_cluster(data, 1, index_backend="merge")
    pool = ShardPool(
        addresses=list(cluster.addresses),
        index_backend="merge",
        io_timeout=60.0,
        chaos=plan,
    )
    try:
        pool.ensure_open(engine)
        victim = min(engine.data.live_edge_ids()) if hasattr(
            engine.data, "live_edge_ids"
        ) else 0
        batch = MutationBatch(deletes=[victim])
        result = engine.apply_mutations(batch)
        with pytest.raises(
            SchedulerError,
            match=r"shard 0 replica 0 is gone \(mutate send failed",
        ):
            pool.mutate(engine, batch, result)
        assert all(f.consumed for f in plan.faults)
        # The worker never saw the batch: the pool reopens against a
        # stale worker and catch-up levels it — counts match a rebuild
        # on the mutated graph.
        outcome = pool.run(engine, query)
        assert outcome.embeddings == rebuild_count(engine, query, "merge")
    finally:
        pool.close()
        cluster.close()
        engine.close()


def test_lost_mutate_ack_ends_the_barrier_at_once(instance):
    """A member lost between a successful MUTATE send and its DELTA ack
    (the worker applies the batch, then its connection is severed on
    the ack) must end the barrier *at once* with the coordinator's
    typed error — not wait out the I/O timeout, as the service's own
    barrier did (6.00 s here, 600 s at the default) for want of an
    outcome for a member lost mid-barrier.  The next query reopens the
    pool and counts like a rebuild."""
    from repro.parallel import FaultPlan, ShardPool, spawn_local_cluster

    data, query = instance
    engine = HGMatch(data, index_backend="merge")
    plan = FaultPlan(seed=41)
    # Worker frames: 1 = HELLO, 2 = the DELTA ack.
    plan.sever(0, 0, after_frames=2, role="worker")
    cluster = spawn_local_cluster(
        data, 1, index_backend="merge", chaos=plan
    )
    pool = ShardPool(
        addresses=list(cluster.addresses),
        index_backend="merge",
        io_timeout=6.0,
    )
    try:
        pool.ensure_open(engine)
        batch = MutationBatch(deletes=[0])
        result = engine.apply_mutations(batch)
        started = time.monotonic()
        with pytest.raises(
            SchedulerError,
            match=r"shard 0 replica 0 is gone \(mutate ack failed",
        ):
            pool.mutate(engine, batch, result)
        assert time.monotonic() - started < 1.0
        assert not pool._members  # closed, not wedged
        outcome = pool.run(engine, query)
        assert outcome.embeddings == rebuild_count(engine, query, "merge")
    finally:
        pool.close()
        cluster.close()
        engine.close()


def test_worker_side_mutate_error_is_typed_not_a_timeout(
    instance, monkeypatch
):
    """A worker whose ``apply`` raises answers MUTATE with an ERROR
    frame and ends the session; the barrier must surface that as the
    typed failure naming the shard, immediately."""
    from repro.hypergraph.dynamic import DynamicHypergraph
    from repro.parallel import spawn_local_cluster
    from repro.parallel import ShardPool

    data, _query = instance
    engine = HGMatch(data, index_backend="merge")

    def broken_apply(self, batch):
        raise RuntimeError("disk full while applying the batch")

    # The workers fork with the patch in place; the engine commits
    # after it is undone, so only the workers' replay of the batch
    # fails.
    monkeypatch.setattr(DynamicHypergraph, "apply", broken_apply)
    cluster = spawn_local_cluster(data, 2, index_backend="merge")
    monkeypatch.undo()
    pool = ShardPool(
        addresses=list(cluster.addresses),
        index_backend="merge",
        io_timeout=6.0,
    )
    try:
        pool.ensure_open(engine)
        batch = MutationBatch(deletes=[0])
        result = engine.apply_mutations(batch)
        started = time.monotonic()
        with pytest.raises(
            SchedulerError,
            match=r"shard worker 0 \(replica 0\) failed to mutate:"
                  r"(.|\n)*disk full",
        ):
            pool.mutate(engine, batch, result)
        assert time.monotonic() - started < 1.0
        assert not pool._members
    finally:
        pool.close()
        cluster.close()
        engine.close()

"""The match service's inline route.

A miss whose plan :func:`~repro.core.estimation.estimate_order` costs
below :data:`~repro.service.service.INLINE_COST` is counted inside
``submit``, on the caller's thread and the service's own engine: exact
counts, the full sequential funnel, no frame sent and no worker
spawned.  Everything costlier still goes to the pool as a subtree job
of exactly ``parts`` frames, and so does a query the estimate
undersold: an inline count stops at
:data:`~repro.service.service.INLINE_BUDGET` and is sent on.  Deadlines
and commits behave the same on both routes.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time

import pytest

from repro import HGMatch
from repro.core.counters import MatchCounters
from repro.core.estimation import estimate_order
from repro.errors import ReproError, TimeoutExceeded
from repro.hypergraph import INDEX_BACKENDS, Hypergraph, MutationBatch
from repro.hypergraph.generators import generate_hypergraph
from repro.hypergraph.sampling import QuerySetting, sample_query
from repro.parallel import QueryChannel
from repro.service import MatchClient, MatchService
from repro.service import service as service_module
from repro.service.service import INLINE_COST
from test_service import _start_daemon, _stop_daemon

FUNNEL = ("candidates", "filtered", "final_candidates", "final_filtered")


def estimated_cost(engine, query) -> float:
    plan = engine.plan(query)
    return estimate_order(query, engine.store, plan.order).estimated_cost


@pytest.fixture(scope="module")
def instance():
    """A ~150-edge graph with random-walk queries on both sides of
    the threshold: ``cheap`` (inline) and ``heavy`` (subtree jobs)."""
    rng = random.Random(29)
    data = generate_hypergraph(
        num_vertices=60, num_edges=160, num_labels=4, mean_arity=2.5,
        max_arity=4, rng=rng,
    )
    engine = HGMatch(data, index_backend="merge")
    cheap, heavy = [], []
    try:
        for num_edges in (2, 3) * 6:
            try:
                query = sample_query(
                    data, QuerySetting("t", num_edges, 2, 12), rng,
                    max_attempts=200,
                )
            except ReproError:  # pragma: no cover - sampling miss
                continue
            cost = estimated_cost(engine, query)
            (cheap if cost < INLINE_COST else heavy).append(query)
    finally:
        engine.close()
    assert len(cheap) >= 2 and heavy, "need queries on both routes"
    return data, cheap, heavy


def oracle_count(data, query) -> int:
    engine = HGMatch(data, index_backend="merge")
    try:
        return engine.count(query)
    finally:
        engine.close()


def routed(engine, queries, inline):
    """``queries``, after checking they take the expected route on
    this engine's store."""
    for query in queries:
        assert (estimated_cost(engine, query) < INLINE_COST) == inline
    return queries


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_cheap_queries_count_inline_exactly_without_workers(
    instance, backend
):
    data, cheap, _heavy = instance
    engine = HGMatch(data, index_backend=backend)
    service = MatchService(engine, shards=2, cache_capacity=0)
    try:
        for query in routed(engine, cheap, inline=True):
            result = service.match(query)
            assert result.embeddings == oracle_count(data, query)
            funnel = MatchCounters()
            assert engine.count_part(query, counters=funnel) == (
                result.embeddings
            )
            # A served result carries no funnel; the engine has it.
            assert result.counters is None
            assert result.worker_stats == []
        assert service.pool.dispatched_frames == 0
        assert multiprocessing.active_children() == []
    finally:
        service.close()
        engine.close()


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_an_inline_query_past_its_budget_is_a_typed_timeout(
    instance, backend
):
    data, cheap, _heavy = instance
    engine = HGMatch(data, index_backend=backend)
    service = MatchService(engine, shards=2)
    try:
        query = routed(engine, cheap, inline=True)[0]
        with pytest.raises(TimeoutExceeded):
            service.match(query, deadline=1e-9)
        assert service.in_flight == 0
        # A timeout is not a result: nothing was cached for the query.
        assert not service.submit(query).cached
        assert service.pool.dispatched_frames == 0
    finally:
        service.close()
        engine.close()


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_an_inline_ticket_is_born_finished_and_holds_no_slot(
    instance, backend
):
    """The count happens inside ``submit``, on the caller's thread: the
    ticket is done (not cached), its admission slot is already back and
    the service threads never saw it — even with the only one busy.  A
    cancel comes too late and changes nothing."""
    data, cheap, _heavy = instance
    engine = HGMatch(data, index_backend=backend)
    service = MatchService(engine, shards=2, max_concurrent=1)
    gate = threading.Event()
    try:
        query = routed(engine, cheap, inline=True)[0]
        busy = service._workers.submit(gate.wait, 30.0)  # the one thread
        ticket = service.submit(query)
        assert ticket.done() and not ticket.cached
        assert service.in_flight == 0
        ticket.cancel()
        assert ticket.result().embeddings == oracle_count(data, query)
        assert not busy.done()
        assert service.submit(query).cached
        assert service.pool.dispatched_frames == 0
    finally:
        gate.set()
        service.close()
        engine.close()


def test_drain_waits_for_an_inline_count(instance, monkeypatch):
    """An inline count holds an admission slot but no ticket: drain
    waits for the slot before it releases the engine and the pool."""
    data, cheap, _heavy = instance
    engine = HGMatch(data, index_backend="bitset")
    service = MatchService(engine, shards=2)
    started, gate = threading.Event(), threading.Event()
    count_inline = service._count_inline

    def held(plan, budget):
        started.set()
        gate.wait(30.0)
        return count_inline(plan, budget)

    monkeypatch.setattr(service, "_count_inline", held)
    query, tickets = cheap[0], []
    submitter = threading.Thread(
        target=lambda: tickets.append(service.submit(query))
    )
    drainer = threading.Thread(target=service.drain, args=(30.0,))
    try:
        submitter.start()
        assert started.wait(30.0)
        drainer.start()
        time.sleep(0.2)
        assert drainer.is_alive() and engine._match_service is service
        gate.set()
        submitter.join(30.0)
        drainer.join(30.0)
        assert not drainer.is_alive()
        assert tickets[0].result().embeddings == oracle_count(data, query)
        assert engine._match_service is None
    finally:
        gate.set()
        for thread in (submitter, drainer):
            if thread.ident is not None:
                thread.join(30.0)
        service.close()
        engine.close()


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_a_commit_before_the_pool_opens_then_a_heavy_query(
    instance, backend
):
    """Inline queries never open the pool, so a commit finds nothing to
    broadcast to; the first heavy query opens it from the mutated
    graph and is exact, and so is every later inline one."""
    data, cheap, heavy = instance
    engine = HGMatch(data, index_backend=backend)
    service = MatchService(engine, shards=2)
    try:
        query = routed(engine, cheap, inline=True)[0]
        assert service.match(query).embeddings == oracle_count(data, query)
        result = service.apply_mutations(MutationBatch(deletes=[0]))
        assert result.version == 1
        assert multiprocessing.active_children() == []
        assert service.pool.dispatched_frames == 0
        mutated = engine.data.to_hypergraph()
        for query in heavy:
            if estimated_cost(engine, query) >= INLINE_COST:
                break
        else:  # pragma: no cover - the delete made every query cheap
            pytest.fail("no heavy query left after the commit")
        outcome = service.match(query)
        assert outcome.embeddings == oracle_count(mutated, query)
        assert len(outcome.worker_stats) == 2
        assert len(multiprocessing.active_children()) == 2
        for query in cheap:
            assert (
                service.match(query).embeddings
                == oracle_count(mutated, query)
            )
    finally:
        service.close()
        engine.close()


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_a_heavy_query_still_sends_exactly_parts_frames(instance, backend):
    data, cheap, heavy = instance
    engine = HGMatch(data, index_backend=backend)
    service = MatchService(engine, shards=2, cache_capacity=0)
    try:
        for query in routed(engine, heavy, inline=False):
            frames = service.pool.dispatched_frames
            result = service.match(query)
            # Alone on a two-member pool: two parts, one SUBTREE each.
            assert service.pool.dispatched_frames == frames + 2
            assert len(result.worker_stats) == 2
            assert result.embeddings == oracle_count(data, query)
            # Served without a funnel; a channel asked for one gets the
            # sequential engine's.
            assert result.counters is None
            result = QueryChannel(service.pool).count(
                engine, engine.plan(query), counters=MatchCounters()
            )
            funnel = MatchCounters()
            engine.count_part(query, counters=funnel)
            assert [getattr(result.counters, name) for name in FUNNEL] == [
                getattr(funnel, name) for name in FUNNEL
            ]
        frames = service.pool.dispatched_frames
        service.match(routed(engine, cheap, inline=True)[0])
        assert service.pool.dispatched_frames == frames
    finally:
        service.close()
        engine.close()


# ----------------------------------------------------------------------
# The estimate is an average: a hub
# ----------------------------------------------------------------------

HUB_SPOKES = 70


def hub_instance():
    """A hub joined to ``HUB_SPOKES`` spokes, drowned in 10x as many
    disjoint edges of the same signature, and a star on the hub.  The
    average posting length is ~1, so the star estimates ~4 — well
    under ``INLINE_COST`` — yet it has ``n (n-1) (n-2)`` embeddings,
    every one walked through the hub's posting list."""
    spokes, pairs = HUB_SPOKES, 10 * HUB_SPOKES
    labels = ["H", "X"] + ["U"] * spokes + ["H", "U"] * pairs
    edges = [{0, 1}] + [{0, 2 + i} for i in range(spokes)] + [
        {2 + spokes + 2 * j, 3 + spokes + 2 * j} for j in range(pairs)
    ]
    star = Hypergraph(
        ["X", "H", "U", "U", "U"], [{0, 1}, {1, 2}, {1, 3}, {1, 4}]
    )
    return Hypergraph(labels, edges), star, spokes * (spokes - 1) * (
        spokes - 2
    )


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_an_inline_count_past_its_cap_goes_to_the_pool(backend, monkeypatch):
    """The hub star is routed inline by its estimate, outruns
    ``INLINE_BUDGET`` and is sent on as a subtree job: ``submit``
    returns a live ticket, the answer is exact and came from both
    members.  The cap is cut to 5 ms, as ``bitset`` counts the star in
    under 0.1 s."""
    monkeypatch.setattr(service_module, "INLINE_BUDGET", 0.005)
    data, star, expected = hub_instance()
    engine = HGMatch(data, index_backend=backend)
    service = MatchService(engine, shards=2)
    try:
        assert estimated_cost(engine, star) < INLINE_COST
        ticket = service.submit(star)
        assert not ticket.done()
        result = ticket.result()
        assert result.embeddings == expected
        assert len(result.worker_stats) == 2
        assert service.pool.dispatched_frames == 2
        assert service.in_flight == 0
    finally:
        service.close()
        engine.close()


def test_a_hub_query_does_not_hold_the_daemon():
    """While the hub star runs, the daemon's event loop still answers
    another client's cache hit: the inline try gave the loop back after
    ``INLINE_BUDGET`` and a block, and the query went on on the pool."""
    data, star, expected = hub_instance()
    cheap = Hypergraph(["X", "H"], [{0, 1}])
    engine = HGMatch(data, index_backend="merge")  # the slowest walk
    service = MatchService(engine, shards=2)
    daemon, (host, port), thread = _start_daemon(service)
    answered, outcome = threading.Event(), {}

    def ask_for_the_star():
        outcome["star"] = MatchClient(host, port, timeout=60.0).query(star)
        answered.set()

    asker = threading.Thread(target=ask_for_the_star)
    try:
        client = MatchClient(host, port, timeout=60.0)
        assert client.query(cheap).embeddings == 1  # inline, now cached
        asker.start()
        deadline = time.monotonic() + 30.0
        while service.in_flight == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert service.in_flight == 1
        hit = client.query(cheap)
        assert hit.cached and hit.embeddings == 1
        assert not answered.is_set()
        asker.join(timeout=60.0)
        assert outcome["star"].embeddings == expected
    finally:
        if asker.ident is not None:
            asker.join(timeout=60.0)
        _stop_daemon(daemon, thread)
        engine.close()

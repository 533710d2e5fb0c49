"""Tests for plan cardinality estimation."""

from __future__ import annotations

import random

import pytest

from repro import HGMatch, Hypergraph
from repro.core.estimation import (
    average_posting_length,
    compare_orders,
    estimate_driven_order,
    estimate_order,
    estimated_cost,
    explain,
)
from repro.core.ordering import is_connected_order
from repro.errors import QueryError
from repro.hypergraph import INDEX_BACKENDS, PartitionedStore
from repro.service import MatchService
from repro.service import service as service_module
from repro.testing import (
    make_mutable_instance,
    random_instances,
    random_mutation_schedule,
)


class TestStepEstimates:
    def test_scan_step_uses_partition_rows(self, fig1_data, fig1_query):
        store = PartitionedStore(fig1_data)
        estimate = estimate_order(fig1_query, store, (0, 1, 2))
        assert estimate.steps[0].partition_rows == 2
        assert estimate.steps[0].expansion_factor == 2.0
        assert estimate.steps[0].anchors == 0

    def test_anchor_counts(self, fig1_data, fig1_query):
        store = PartitionedStore(fig1_data)
        estimate = estimate_order(fig1_query, store, (0, 1, 2))
        assert estimate.steps[1].anchors == 1   # shares u2
        assert estimate.steps[2].anchors == 3   # shares u0, u1, u4

    def test_missing_partition_estimates_zero(self, fig1_data):
        store = PartitionedStore(fig1_data)
        query = Hypergraph(["B", "B", "A"], [{0, 2}, {0, 1}])
        estimate = estimate_order(query, store, (0, 1))
        assert estimate.estimated_embeddings == 0.0

    def test_the_cost_alone_is_the_same_walk(self, fig1_data, fig1_query):
        store = PartitionedStore(fig1_data)
        for order in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
            assert estimated_cost(fig1_query, store, order) == (
                estimate_order(fig1_query, store, order).estimated_cost
            )
        with pytest.raises(QueryError):
            estimated_cost(fig1_query, store, ())

    def test_empty_order_rejected(self, fig1_data, fig1_query):
        store = PartitionedStore(fig1_data)
        with pytest.raises(QueryError):
            estimate_order(fig1_query, store, ())

    def test_estimated_embeddings_in_right_ballpark(self, fig1_data, fig1_query):
        """The Fig. 1 instance has 2 embeddings; the estimate must be a
        small positive number, not zero and not astronomically large."""
        store = PartitionedStore(fig1_data)
        estimate = estimate_order(fig1_query, store, (0, 1, 2))
        assert 0 < estimate.estimated_embeddings < 100

    def test_describe(self, fig1_data, fig1_query):
        store = PartitionedStore(fig1_data)
        text = estimate_order(fig1_query, store, (0, 1, 2)).describe()
        assert "total:" in text


class TestAveragePostingLength:
    def test_value(self, fig1_data):
        store = PartitionedStore(fig1_data)
        partition = store.partition(("A", "B"))
        # 4 posting entries over 3 distinct vertices.
        assert average_posting_length(partition) == pytest.approx(4 / 3)

    def test_missing_partition(self):
        assert average_posting_length(None) == 0.0


class TestEstimateDrivenOrder:
    def test_produces_connected_permutation(self, fig1_data, fig1_query):
        store = PartitionedStore(fig1_data)
        order = estimate_driven_order(fig1_query, store)
        assert is_connected_order(fig1_query, order)

    def test_random_instances(self):
        from repro.hypergraph.generators import generate_hypergraph
        from repro.hypergraph.sampling import QuerySetting, sample_query

        rng = random.Random(3)
        for _ in range(6):
            data = generate_hypergraph(30, 40, 3, 2.5, 5, rng)
            try:
                query = sample_query(
                    data, QuerySetting("t", 3, 3, 15), rng, max_attempts=50
                )
            except QueryError:
                continue
            store = PartitionedStore(data)
            order = estimate_driven_order(query, store)
            assert is_connected_order(query, order)
            # The engine accepts the order and produces correct results.
            engine = HGMatch(data, store=store)
            assert engine.count(query, order=order) == engine.count(query)

    def test_empty_query_rejected(self, fig1_data):
        store = PartitionedStore(fig1_data)
        with pytest.raises(QueryError):
            estimate_driven_order(Hypergraph(["A"], []), store)

    def test_disconnected_query_rejected(self, fig1_data):
        store = PartitionedStore(fig1_data)
        query = Hypergraph(["A", "B", "A", "B"], [{0, 1}, {2, 3}])
        with pytest.raises(QueryError):
            estimate_driven_order(query, store)


class TestExplainAndCompare:
    def test_explain_combines_plan_and_estimate(self, fig1_engine, fig1_query):
        text = explain(fig1_engine, fig1_query)
        assert "SCAN" in text
        assert "PlanEstimate" in text

    def test_compare_orders_sorted_by_cost(self, fig1_engine, fig1_query):
        rows = compare_orders(
            fig1_engine,
            fig1_query,
            {"paper": (0, 1, 2), "reversed": (2, 1, 0)},
        )
        assert len(rows) == 2
        assert rows[0]["est_cost"] <= rows[1]["est_cost"]


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_num_entries_is_kept_through_mutations_and_routes_agree(
    backend, monkeypatch,
):
    """``num_entries`` is a counter the index keeps, not a recount: after
    every random insert/delete batch it equals both a recount of the
    postings the index holds and a store built from scratch over the
    same graph.  And the match service routes each query exactly as
    ``estimate_order(...).estimated_cost < INLINE_COST`` on that fresh
    store says (the threshold is set between the queries' costs so both
    routes are taken; the pool route is stubbed out)."""
    routes = {True: 0, False: 0}
    for seed, (data, query, _edges) in enumerate(
        random_instances(71, 4, make_mutable_instance)
    ):
        engine = HGMatch(data, index_backend=backend)
        rng = random.Random(seed)
        try:
            for batch in random_mutation_schedule(rng, data, steps=6):
                engine.apply_mutations(batch)
                fresh = PartitionedStore(engine.data, index_backend=backend)
                for signature, partition in engine.store.partitions.items():
                    index = partition.index
                    assert index.num_entries == sum(
                        len(index.postings(vertex))
                        for vertex in index.vertices()
                    )
                    assert index.num_entries == (
                        fresh.partition(signature).index.num_entries
                    )
            queries = [query] + [
                engine.data.to_hypergraph().induced_by_edges(edge_ids)
                for edge_ids in ((0, 1), (1, 2), (0, 2))
            ]
            queries = [q for q in queries if q.is_connected()]
            plans = [engine.plan(q) for q in queries]
            costs = [
                estimate_order(q, fresh, plan.order).estimated_cost
                for q, plan in zip(queries, plans)
            ]
            threshold = sorted(costs)[len(costs) // 2]
            monkeypatch.setattr(service_module, "INLINE_COST", threshold)
            service = MatchService(engine, shards=1, cache_capacity=0)

            def pool_route(plan, budget, cancel_event, key):
                service._release_slot()
                return None

            monkeypatch.setattr(service, "_run", pool_route)
            try:
                for q, cost in zip(queries, costs):
                    inline = service.submit(q).result() is not None
                    assert inline == (cost < threshold), (q, cost, threshold)
                    routes[inline] += 1
            finally:
                service.close()
        finally:
            engine.close()
    assert routes[True] and routes[False]

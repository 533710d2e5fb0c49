"""Unit and behavioural tests for the HGMatch engine (Algorithm 2)."""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro import HGMatch, Hypergraph, MatchCounters, QueryError, TimeoutExceeded
from repro.hypergraph.generators import generate_hypergraph


class TestFig1:
    def test_count(self, fig1_engine, fig1_query):
        assert fig1_engine.count(fig1_query) == 2

    def test_embeddings_are_the_papers(self, fig1_engine, fig1_query):
        found = {e.canonical() for e in fig1_engine.match(fig1_query)}
        # Paper: {e1,e3,e5} and {e2,e4,e6} — 0-based (0,2,4) and (1,3,5).
        assert found == {(0, 2, 4), (1, 3, 5)}

    def test_strict_mode_agrees(self, fig1_engine, fig1_query):
        strict = list(fig1_engine.match(fig1_query, strict=True))
        assert len(strict) == 2

    def test_partial_query_single_edge(self, fig1_engine):
        """Example III.1: partial query ({u2,u4}) has embeddings (e1), (e2)."""
        partial = Hypergraph(["A", "B"], [{0, 1}])
        found = {e.canonical() for e in fig1_engine.match(partial)}
        assert found == {(0,), (1,)}

    def test_custom_order(self, fig1_engine, fig1_query):
        for order in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 0, 1), (1, 2, 0)]:
            assert fig1_engine.count(fig1_query, order=order) == 2

    def test_invalid_order_rejected(self, fig1_engine, fig1_query):
        with pytest.raises(QueryError):
            fig1_engine.count(fig1_query, order=(0, 1))

    def test_vertex_embedding_count(self, fig1_engine, fig1_query):
        assert fig1_engine.count_vertex_embeddings(fig1_query) == 2


class TestEmbeddingObject:
    def test_hyperedge_mapping(self, fig1_engine, fig1_query):
        embedding = next(iter(fig1_engine.match(fig1_query)))
        mapping = embedding.hyperedge_mapping()
        assert set(mapping) == {0, 1, 2}

    def test_vertex_mappings_are_injective_and_label_preserving(
        self, fig1_data, fig1_engine, fig1_query
    ):
        for embedding in fig1_engine.match(fig1_query):
            mappings = list(embedding.vertex_mappings())
            assert len(mappings) == embedding.num_vertex_mappings() == 1
            mapping = mappings[0]
            assert len(set(mapping.values())) == len(mapping)
            for u, v in mapping.items():
                assert fig1_query.label(u) == fig1_data.label(v)

    def test_equality_and_hash(self, fig1_engine, fig1_query):
        first = list(fig1_engine.match(fig1_query))
        second = list(fig1_engine.match(fig1_query))
        assert set(first) == set(second)

    def test_repr(self, fig1_engine, fig1_query):
        embedding = next(iter(fig1_engine.match(fig1_query)))
        assert "Embedding(" in repr(embedding)


class TestEngineBehaviour:
    def test_empty_query_raises(self, fig1_engine):
        with pytest.raises(QueryError):
            fig1_engine.count(Hypergraph(["A"], []))

    def test_disconnected_query_raises(self, fig1_engine):
        query = Hypergraph(["A", "B", "A", "B"], [{0, 1}, {2, 3}])
        with pytest.raises(QueryError):
            fig1_engine.count(query)

    def test_a_label_type_the_graph_lacks_is_refused_on_every_path(self):
        """A str-labelled query on an int-labelled graph (a native query
        file against a built-in dataset) could match nothing: every
        path plans, and planning refuses it before any worker starts."""
        data = Hypergraph([0, 1, 0, 1], [{0, 1}, {2, 3}, {0, 3}])
        query = Hypergraph(["0", "1"], [{0, 1}])
        engine = HGMatch(data, shards=2)
        try:
            calls = {
                "sequential": lambda: engine.count(query),
                "threads": lambda: engine.count(
                    query, executor="threads", workers=2
                ),
                "processes": lambda: engine.count(query, executor="processes"),
                "simulated": lambda: engine.count(
                    query, executor="simulated", workers=2
                ),
                "count_bfs": lambda: engine.count_bfs(query),
                "match": lambda: list(engine.match(query)),
            }
            for call in calls.values():
                with pytest.raises(
                    QueryError, match="labels are str but the data graph's "
                    "are int",
                ):
                    call()
            assert not multiprocessing.active_children()
            same_type = Hypergraph([0, 1], [{0, 1}])
            assert engine.count(same_type, executor="processes") == 3
        finally:
            engine.close()

    def test_no_matching_partition_gives_zero(self, fig1_engine):
        query = Hypergraph(["B", "B"], [{0, 1}])
        assert fig1_engine.count(query) == 0

    def test_query_equals_data(self, fig1_data):
        engine = HGMatch(fig1_data)
        assert engine.count(fig1_data) >= 1

    def test_counters_populated(self, fig1_engine, fig1_query):
        counters = MatchCounters()
        assert fig1_engine.count(fig1_query, counters=counters) == 2
        assert counters.embeddings == 2
        assert counters.candidates >= 2
        assert counters.filtered >= counters.embeddings
        assert counters.tasks >= 1

    def test_time_budget_enforced(self):
        rng = random.Random(0)
        data = generate_hypergraph(200, 1200, 1, 3.0, 6, rng)
        engine = HGMatch(data)
        query = Hypergraph(
            [data.label(0)] * 5, [{0, 1, 2}, {2, 3, 4}, {0, 1, 4}]
        )
        with pytest.raises(TimeoutExceeded):
            engine.count(query, time_budget=0.0)

    def test_bfs_count_agrees(self, fig1_engine, fig1_query):
        assert fig1_engine.count_bfs(fig1_query) == 2

    def test_bfs_retains_more_than_lifo_on_bushy_queries(self):
        """The Exp-5 phenomenon at unit scale: BFS materialises whole
        levels while the LIFO loop keeps a bounded stack."""
        rng = random.Random(1)
        data = generate_hypergraph(40, 220, 1, 2.2, 3, rng)
        label = data.label(0)
        query = Hypergraph([label] * 3, [{0, 1}, {1, 2}])
        engine = HGMatch(data)
        lifo, bfs = MatchCounters(), MatchCounters()
        count_lifo = engine.count(query, counters=lifo)
        count_bfs = engine.count_bfs(query, counters=bfs)
        assert count_lifo == count_bfs
        if count_bfs > 10:
            assert bfs.peak_retained > lifo.peak_retained

    def test_shared_store_reuse(self, fig1_data, fig1_query):
        from repro import PartitionedStore

        store = PartitionedStore(fig1_data)
        first = HGMatch(fig1_data, store=store)
        second = HGMatch(fig1_data, store=store)
        assert first.count(fig1_query) == second.count(fig1_query) == 2

    def test_plan_describe(self, fig1_engine, fig1_query):
        plan = fig1_engine.plan(fig1_query)
        assert "SCAN" in plan.describe()

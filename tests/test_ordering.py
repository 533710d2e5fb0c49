"""Unit tests for the matching-order computation (Algorithm 3)."""

from __future__ import annotations

import random

import pytest

from repro import Hypergraph, PartitionedStore
from repro.core.ordering import compute_matching_order, is_connected_order
from repro.errors import QueryError


class TestComputeMatchingOrder:
    def test_fig1_starts_with_min_cardinality(self, fig1_data, fig1_query):
        """All Fig. 1 query signatures have cardinality 2; the tie breaks
        to query edge 0 and the order must stay connected."""
        store = PartitionedStore(fig1_data)
        order = compute_matching_order(fig1_query, store)
        assert sorted(order) == [0, 1, 2]
        assert order[0] == 0
        assert is_connected_order(fig1_query, order)

    def test_same_signature_ties_do_not_depend_on_the_numbering(self):
        """Two query edges of one signature always tie on cardinality;
        the start is the one sharing more with the third edge, whichever
        id it carries."""
        data = Hypergraph(
            ["A"] * 4 + ["B"] * 3,
            [{0, 1, 4}, {1, 2, 5},
             {0, 1, 2, 4, 5}, {0, 1, 3, 4, 6}, {1, 2, 3, 5, 6}],
        )
        store = PartitionedStore(data)
        labels = ["A", "A", "A", "B", "B", "A"]
        close, far, hub = {0, 1, 3}, {2, 5, 4}, {0, 1, 2, 3, 4}
        for edges in ([close, far, hub], [far, close, hub], [hub, far, close]):
            order = compute_matching_order(Hypergraph(labels, edges), store)
            assert [edges[e] for e in order] == [close, hub, far]

    def test_prefers_rare_signature(self):
        data = Hypergraph(
            ["A"] * 6 + ["B"],
            [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}],
        )
        # Query edge 1 has the rare {A,B} signature (cardinality 1).
        query = Hypergraph(["A", "A", "B"], [{0, 1}, {1, 2}])
        order = compute_matching_order(query, PartitionedStore(data))
        assert order[0] == 1

    def test_connectivity_enforced_over_cardinality(self):
        data = Hypergraph(
            ["A", "A", "B", "B", "C"],
            [{0, 1}, {2, 3}, {1, 2}, {3, 4}],
        )
        query = Hypergraph(
            ["A", "A", "B", "B", "C"],
            [{0, 1}, {1, 2}, {2, 3}, {3, 4}],
        )
        order = compute_matching_order(query, PartitionedStore(data))
        assert is_connected_order(query, order)

    def test_empty_query_raises(self, fig1_data):
        with pytest.raises(QueryError):
            compute_matching_order(
                Hypergraph(["A"], []), PartitionedStore(fig1_data)
            )

    def test_disconnected_query_raises(self, fig1_data):
        query = Hypergraph(["A", "A", "A", "A"], [{0, 1}, {2, 3}])
        with pytest.raises(QueryError):
            compute_matching_order(query, PartitionedStore(fig1_data))

    def test_deterministic(self, fig1_data, fig1_query):
        store = PartitionedStore(fig1_data)
        orders = {compute_matching_order(fig1_query, store) for _ in range(5)}
        assert len(orders) == 1

    def test_random_queries_get_connected_orders(self):
        from repro.hypergraph.generators import random_connected_hypergraph

        rng = random.Random(3)
        data = random_connected_hypergraph(30, 25, 3, 4, rng)
        store = PartitionedStore(data)
        for seed in range(5):
            query = random_connected_hypergraph(8, 5, 3, 3, random.Random(seed))
            order = compute_matching_order(query, store)
            assert is_connected_order(query, order)


class TestIsConnectedOrder:
    def test_valid_order(self, fig1_query):
        assert is_connected_order(fig1_query, (0, 2, 1))

    def test_disconnected_order(self):
        query = Hypergraph(["A"] * 5, [{0, 1}, {1, 2}, {3, 4}, {2, 3}])
        assert not is_connected_order(query, (0, 2, 1, 3))
        assert is_connected_order(query, (0, 1, 3, 2))

    def test_non_permutation_rejected(self, fig1_query):
        assert not is_connected_order(fig1_query, (0, 1))
        assert not is_connected_order(fig1_query, (0, 1, 1))
        assert not is_connected_order(fig1_query, ())

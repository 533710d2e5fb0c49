"""Matching-order computation (Algorithm 3 of the paper).

A matching order is a permutation of the query hyperedges
(Definition V.1).  HGMatch works with any *connected* order — each
hyperedge after the first must share a vertex with the region already
ordered — and Algorithm 3 greedily picks:

1. the query hyperedge with minimal cardinality in the data hypergraph
   (``Card(e, H)`` = row count of the signature partition, Definition V.2)
   as the start, then
2. repeatedly the connected hyperedge minimising
   ``Card(e, H) / |V_ϕ ∩ e|`` — low cardinality and high connectivity to
   the ordered region first.

Cardinality lookups are O(1) against :class:`PartitionedStore` metadata,
so the whole computation is O(|E(q)|²).

Query hyperedges of one signature share a partition, so the measure
can never tell them apart by cardinality: such ties are decided by the
query's structure — the tied hyperedge whose neighbours offer the
cheaper next steps wins (one step of lookahead with the same
``Card / overlap`` measure) — and fall back to the edge id only between
hyperedges that still tie.  How an instance happens to be numbered then
does not pick the search tree.  A tie between *different* signatures is
a coincidence of two cardinalities and keeps the plain edge-id rule.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..errors import QueryError
from ..hypergraph import Hypergraph, PartitionedStore


def compute_matching_order(
    query: Hypergraph, store: PartitionedStore
) -> Tuple[int, ...]:
    """Return a matching order (tuple of query edge ids) per Algorithm 3.

    Ties are broken by edge id so the order is deterministic, except
    between hyperedges of one signature, where one step of lookahead
    decides first (module docstring).  Raises :class:`QueryError` for
    empty or disconnected queries (a connected order cannot exist for
    the latter).
    """
    if query.num_edges == 0:
        raise QueryError("query hypergraph has no hyperedges")

    edge_ids = range(query.num_edges)
    edges = query.edges
    signatures = query.edge_signatures()
    cardinalities = [store.cardinality(signature) for signature in signatures]

    def next_steps(edge_id: int) -> List[float]:
        """What Algorithm 3 would be offered after ``edge_id`` alone:
        ``Card / overlap`` of its neighbours, cheapest first."""
        edge = edges[edge_id]
        keys = []
        for other in edge_ids:
            shared = len(edge & edges[other])
            if shared and other != edge_id:
                keys.append(cardinalities[other] / shared)
        keys.sort()
        return keys

    def pick(overlaps: Dict[int, int]) -> int:
        """The candidate minimising ``Card / overlap``; ``overlaps`` maps
        each connected candidate to ``|V_ϕ ∩ e|``."""
        if len(overlaps) == 1:
            return next(iter(overlaps))
        best = min(overlaps, key=lambda e: (cardinalities[e] / overlaps[e], e))
        rivals = [
            e for e, shared in overlaps.items()
            if shared == overlaps[best] and signatures[e] == signatures[best]
        ]
        if len(rivals) > 1:
            best = min(rivals, key=lambda e: (next_steps(e), e))
        return best

    start = pick(dict.fromkeys(edge_ids, 1))
    order: List[int] = [start]
    ordered_vertices: Set[int] = set(edges[start])
    remaining = set(edge_ids) - {start}

    while remaining:
        overlaps = {}
        for edge_id in remaining:
            overlap = len(ordered_vertices & edges[edge_id])
            if overlap:
                overlaps[edge_id] = overlap
        if not overlaps:
            raise QueryError(
                "query hypergraph is disconnected; HGMatch requires a "
                "connected matching order"
            )
        best_edge = pick(overlaps)
        order.append(best_edge)
        ordered_vertices.update(edges[best_edge])
        remaining.remove(best_edge)

    return tuple(order)


def is_connected_order(query: Hypergraph, order: Sequence[int]) -> bool:
    """True if ``order`` is a valid connected matching order for ``query``.

    Used to validate user-supplied orders passed to the engine.
    """
    if sorted(order) != list(range(query.num_edges)):
        return False
    if not order:
        return False
    seen: Set[int] = set(query.edge(order[0]))
    for edge_id in order[1:]:
        edge = query.edge(edge_id)
        if not seen & edge:
            return False
        seen.update(edge)
    return True

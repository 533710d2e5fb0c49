"""Cardinality estimation for execution plans.

The plan generator of Fig. 3 "fetches cardinality information from the
indexed data hypergraph to select a better matching order"; Algorithm 3
uses the raw partition row counts.  This module builds the natural next
layer a database system would add on the same metadata: per-step
*expansion factor* estimates and a plan-level cost/cardinality model,
exposed through :func:`explain`.

The model is intentionally simple and reads only O(1) index
statistics per step, in the spirit of the paper's design (no runtime
auxiliary structures): a partition's row count, its index's vertex
count and its posting-entry count, which every index backend keeps
current through builds, inserts and deletes:

* the SCAN step emits ``Card(ϕ[0], H)`` partial embeddings;
* an EXPAND step keeps, for each anchor vertex shared with a previous
  hyperedge, roughly ``avg_postings(partition)`` incident candidate
  edges out of ``Card(partition)`` — the selectivity of one posting-list
  intersection — multiplied over the step's anchors;
* the estimated cost of a step is (estimated input) × (average posting
  length summed over anchors), matching the set-operation work the
  engine actually charges.

The estimates feed an alternative ordering strategy
(:func:`estimate_driven_order`) benchmarked against Algorithm 3 in the
matching-order ablation, power ``EXPLAIN``-style output in the CLI
and examples, and route every match-service miss
(:func:`estimated_cost`: the same walk as :func:`estimate_order`,
without its per-step records).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..errors import QueryError
from ..hypergraph import Hypergraph, PartitionedStore
from ..hypergraph.storage import HyperedgePartition


@dataclass(frozen=True)
class StepEstimate:
    """Estimated cardinality/cost of one plan step."""

    step: int
    query_edge_id: int
    partition_rows: int
    anchors: int
    expansion_factor: float
    estimated_output: float
    estimated_cost: float


@dataclass(frozen=True)
class PlanEstimate:
    """Aggregate estimate for a whole matching order."""

    steps: Tuple[StepEstimate, ...]
    estimated_embeddings: float
    estimated_cost: float

    def describe(self) -> str:
        lines = ["PlanEstimate:"]
        for step in self.steps:
            lines.append(
                f"  [{step.step}] edge {step.query_edge_id}: "
                f"rows={step.partition_rows} anchors={step.anchors} "
                f"fanout≈{step.expansion_factor:.3g} "
                f"out≈{step.estimated_output:.3g} cost≈{step.estimated_cost:.3g}"
            )
        lines.append(
            f"  total: embeddings≈{self.estimated_embeddings:.3g} "
            f"cost≈{self.estimated_cost:.3g}"
        )
        return "\n".join(lines)


def average_posting_length(partition: "HyperedgePartition | None") -> float:
    """Mean posting-list length of a partition's inverted index.

    This is the expected number of same-signature hyperedges incident to
    a vertex that occurs in the partition at all — the key selectivity
    statistic of one anchor intersection.
    """
    if partition is None or len(partition.index) == 0:
        return 0.0
    return partition.index.num_entries / len(partition.index)


def _fanout(rows: int, posting: float, anchors: int) -> float:
    """Expected matches per partial embedding of an EXPAND step: each
    anchor keeps ~``posting`` candidates, and intersecting the anchors'
    unions multiplies the single-anchor selectivity (``posting/rows``)
    per extra anchor."""
    if rows == 0:
        return 0.0
    return posting * (posting / rows) ** max(anchors - 1, 0)


def _walk(
    query: Hypergraph,
    store: PartitionedStore,
    order: Sequence[int],
    records: "List[StepEstimate] | None" = None,
) -> Tuple[float, float]:
    """The estimator: ``(estimated embeddings, estimated cost)`` of
    ``order``, appending one :class:`StepEstimate` per step to
    ``records`` when a list is given."""
    if not order:
        raise QueryError("cannot estimate an empty matching order")
    covered: Set[int] = set()
    running_output = 1.0
    total_cost = 0.0
    for step, edge_id in enumerate(order):
        edge = query.edge(edge_id)
        partition = store.partition(query.edge_signature(edge_id))
        rows = partition.cardinality if partition is not None else 0
        posting = average_posting_length(partition)
        anchors = len(edge & covered)
        if step == 0:
            fanout = cost = float(rows)
        else:
            fanout = _fanout(rows, posting, anchors)
            cost = (
                running_output * posting * max(anchors, 1) if rows
                else running_output
            )
        running_output *= fanout
        total_cost += cost
        if records is not None:
            records.append(StepEstimate(
                step, edge_id, rows, anchors, fanout, running_output, cost
            ))
        covered |= edge
    return running_output, total_cost


def estimate_order(
    query: Hypergraph, store: PartitionedStore, order: Sequence[int]
) -> PlanEstimate:
    """Estimate per-step cardinalities and costs for ``order``."""
    records: List[StepEstimate] = []
    embeddings, cost = _walk(query, store, order, records)
    return PlanEstimate(tuple(records), embeddings, cost)


def estimated_cost(
    query: Hypergraph, store: PartitionedStore, order: Sequence[int]
) -> float:
    """``estimate_order(query, store, order).estimated_cost``, without
    the per-step records: what the match service routes a query by."""
    return _walk(query, store, order)[1]


def estimate_driven_order(
    query: Hypergraph, store: PartitionedStore
) -> Tuple[int, ...]:
    """Greedy order minimising the *estimated expansion factor* per step.

    An alternative to Algorithm 3: instead of ``Card(e)/|V_ϕ ∩ e|``,
    pick at each step the connected hyperedge whose estimated fanout
    (see :func:`estimate_order`) is smallest.  Benchmarked against the
    paper's order in ``bench_ablation_matching_order``.
    """
    if query.num_edges == 0:
        raise QueryError("query hypergraph has no hyperedges")

    def partition_stats(edge_id: int) -> Tuple[int, float]:
        partition = store.partition(query.edge_signature(edge_id))
        rows = partition.cardinality if partition is not None else 0
        return rows, average_posting_length(partition)

    start = min(
        range(query.num_edges), key=lambda e: (partition_stats(e)[0], e)
    )
    order = [start]
    covered: Set[int] = set(query.edge(start))
    remaining = set(range(query.num_edges)) - {start}
    while remaining:
        best_edge = -1
        best_key: Tuple[float, int] = (float("inf"), -1)
        for edge_id in remaining:
            anchors = len(covered & query.edge(edge_id))
            if anchors == 0:
                continue
            key = (_fanout(*partition_stats(edge_id), anchors), edge_id)
            if key < best_key:
                best_key = key
                best_edge = edge_id
        if best_edge < 0:
            raise QueryError(
                "query hypergraph is disconnected; a connected order "
                "cannot be estimated"
            )
        order.append(best_edge)
        covered |= query.edge(best_edge)
        remaining.remove(best_edge)
    return tuple(order)


def explain(
    engine, query: Hypergraph, order: "Sequence[int] | None" = None
) -> str:
    """EXPLAIN-style text: the plan plus its cardinality/cost estimates.

    ``engine`` is an :class:`repro.core.engine.HGMatch` instance (typed
    loosely to avoid an import cycle).
    """
    plan = engine.plan(query, order)
    estimate = estimate_order(query, engine.store, plan.order)
    return plan.describe() + "\n" + estimate.describe()


def compare_orders(
    engine, query: Hypergraph, orders: Dict[str, Sequence[int]]
) -> List[dict]:
    """Estimate several candidate orders; rows sorted by estimated cost."""
    rows = []
    for name, order in orders.items():
        estimate = estimate_order(query, engine.store, order)
        rows.append(
            {
                "order": name,
                "steps": list(order),
                "est_cost": estimate.estimated_cost,
                "est_embeddings": estimate.estimated_embeddings,
            }
        )
    rows.sort(key=lambda row: row["est_cost"])
    return rows

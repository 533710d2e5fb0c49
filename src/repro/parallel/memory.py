"""Memory accounting for the scheduling experiment (Exp-5, Fig. 11).

The paper compares the task-based LIFO scheduler against BFS-style
(level-synchronous) execution: BFS materialises every intermediate
result of a level at once, so its memory grows with the result count,
while the LIFO scheduler's retained set is bounded by
``O(a_q × |E(q)|² × |E(H)|)`` (Theorem VI.1) regardless of how many
embeddings the query has.

Memory here is measured in *retained partial-embedding entries*: every
live partial embedding costs one vertex-id slot per vertex of each of
its matched hyperedges (the paper's unit in the Theorem VI.1 proof).
:func:`measure_memory` converts the engine/scheduler peak-retained
counters into those units, and :func:`theoretical_memory_bound`
evaluates the bound itself for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.counters import MatchCounters
from ..core.engine import HGMatch
from ..hypergraph import Hypergraph


@dataclass(frozen=True)
class MemoryMeasurement:
    """Peak retained memory of one execution strategy for one query."""

    strategy: str
    embeddings: int
    peak_partial_embeddings: int
    peak_entry_units: int

    def as_row(self) -> dict:
        return {
            "strategy": self.strategy,
            "embeddings": self.embeddings,
            "peak_partials": self.peak_partial_embeddings,
            "peak_units": self.peak_entry_units,
        }


def entry_units_per_partial(query: Hypergraph) -> int:
    """Vertex-id slots needed by one (worst-case full-length) partial
    embedding: the sum of the query hyperedge arities, ≈ a_q × |E(q)|."""
    return sum(len(edge) for edge in query.edges)


def measure_memory(
    engine: HGMatch,
    query: Hypergraph,
    strategy: str,
    workers: int = 1,
) -> MemoryMeasurement:
    """Run ``query`` under ``strategy`` ("task" or "bfs") and report
    peaks; ``workers`` runs the task strategy as that many root parts
    (``count(executor="threads")``), whose peaks add up — one queue per
    worker."""
    counters = MatchCounters()
    if strategy == "bfs":
        embeddings = engine.count_bfs(query, counters=counters)
    elif strategy == "task":
        embeddings = engine.count(
            query, workers=workers, counters=counters, executor="threads"
        )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    units = entry_units_per_partial(query)
    return MemoryMeasurement(
        strategy=strategy,
        embeddings=embeddings,
        peak_partial_embeddings=counters.peak_retained,
        peak_entry_units=counters.peak_retained * units,
    )


def theoretical_memory_bound(
    query: Hypergraph, data: Hypergraph, workers: int = 1
) -> int:
    """Evaluate the Theorem VI.1 bound in entry units.

    ``O(a_q × |E(q)|² × |E(H)|)`` per task queue, times ``p`` queues.
    """
    average_arity = query.average_arity()
    return int(
        average_arity * (query.num_edges**2) * data.num_edges * max(workers, 1)
    )

"""repro — a from-scratch reproduction of HGMatch (ICDE 2023).

HGMatch is a parallel subhypergraph matching system built around a
*match-by-hyperedge* framework: partial embeddings grow one hyperedge at
a time, candidates come from set operations over signature-partitioned
inverted indexes, and validation compares vertex-profile multisets
instead of backtracking.

Quickstart::

    from repro import Hypergraph, HGMatch

    data = Hypergraph(labels=["A", "C", "A", "A", "B", "C", "A"],
                      edges=[{2, 4}, {4, 6}, {0, 1, 2}, {3, 5, 6},
                             {0, 1, 4, 6}, {2, 3, 4, 5}])
    query = Hypergraph(labels=["A", "C", "A", "A", "B"],
                       edges=[{2, 4}, {0, 1, 2}, {0, 1, 3, 4}])
    engine = HGMatch(data)
    print(engine.count(query))            # -> 2 (Fig. 1 of the paper)

See :mod:`repro.baselines` for the extended match-by-vertex baselines
(CFL-H, DAF-H, CECI-H, RapidMatch-H), :mod:`repro.parallel` for the
shard pool and the simulated work-stealing scheduler, and :mod:`repro.datasets`
for the synthetic analogues of the paper's ten datasets.
"""

from .core import Embedding, HGMatch, MatchCounters
from .errors import (
    HypergraphError,
    ParseError,
    QueryError,
    ReproError,
    SchedulerError,
    TimeoutExceeded,
)
from .hypergraph import (
    DynamicHypergraph,
    Hypergraph,
    HypergraphBuilder,
    MutationBatch,
    MutationResult,
    PartitionedStore,
    dataset_statistics,
    sample_queries,
    sample_query,
)

__version__ = "1.0.0"

__all__ = [
    "Hypergraph",
    "HypergraphBuilder",
    "DynamicHypergraph",
    "MutationBatch",
    "MutationResult",
    "PartitionedStore",
    "HGMatch",
    "Embedding",
    "MatchCounters",
    "sample_query",
    "sample_queries",
    "dataset_statistics",
    "ReproError",
    "HypergraphError",
    "QueryError",
    "ParseError",
    "SchedulerError",
    "TimeoutExceeded",
    "__version__",
]

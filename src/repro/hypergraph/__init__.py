"""Hypergraph substrate: data model, storage, indexing, I/O and sampling.

This package implements everything HGMatch needs below the matching
algorithms: the labelled hypergraph model (Definition III.1), hyperedge
signatures (Definition IV.1), signature-partitioned hyperedge tables
(Section IV-B), the inverted hyperedge index (Section IV-C), text
serialisation, synthetic generators and the paper's random-walk query
sampler (Section VII-A).
"""

from .dynamic import (
    DynamicHypergraph,
    EdgeMutation,
    MutationBatch,
    MutationResult,
    apply_batch,
)
from .hypergraph import Hypergraph, HypergraphBuilder
from .index import (
    ARRAY_CONTAINER_MAX,
    CHUNK_BITS,
    INDEX_BACKENDS,
    AdaptiveHyperedgeIndex,
    BitsetHyperedgeIndex,
    InvertedHyperedgeIndex,
    build_index,
    chunks_count,
    chunks_from_rows,
    chunks_intersect,
    chunks_union_many,
    index_from_postings,
    intersect_many,
    intersect_sorted,
    mask_from_chunks,
    union_many,
    union_sorted,
)
from .sharding import (
    SHARDING_MODES,
    RangeTable,
    ReplicaSet,
    ShardDescriptor,
    StoreShard,
    balanced_range_table,
    build_range_table,
    mutate_range_table,
    range_table_label,
    range_table_slices,
    rebalance_range_table,
    resolve_sharding,
    shard_ranges,
    uniform_range_table,
    weighted_shard_ranges,
)
from .sampling import (
    PAPER_QUERY_SETTINGS,
    QuerySetting,
    query_setting,
    sample_queries,
    sample_query,
)
from .signature import (
    Signature,
    is_sub_signature,
    signature_arity,
    signature_label_counts,
    signature_of_labels,
)
from .journal import MutationJournal, RecoveredState
from .persistence import load_store, save_store, stores_equal
from .statistics import DatasetStatistics, dataset_statistics, format_bytes
from .storage import (
    DEFAULT_INDEX_BACKEND,
    HyperedgePartition,
    PartitionedStore,
    default_index_backend,
    resolve_index_backend,
)

__all__ = [
    "DynamicHypergraph",
    "EdgeMutation",
    "MutationBatch",
    "MutationResult",
    "apply_batch",
    "mutate_range_table",
    "MutationJournal",
    "RecoveredState",
    "Hypergraph",
    "HypergraphBuilder",
    "InvertedHyperedgeIndex",
    "BitsetHyperedgeIndex",
    "AdaptiveHyperedgeIndex",
    "INDEX_BACKENDS",
    "ARRAY_CONTAINER_MAX",
    "CHUNK_BITS",
    "DEFAULT_INDEX_BACKEND",
    "default_index_backend",
    "resolve_index_backend",
    "build_index",
    "index_from_postings",
    "chunks_count",
    "chunks_from_rows",
    "chunks_intersect",
    "chunks_union_many",
    "mask_from_chunks",
    "HyperedgePartition",
    "PartitionedStore",
    "ReplicaSet",
    "ShardDescriptor",
    "StoreShard",
    "SHARDING_MODES",
    "RangeTable",
    "shard_ranges",
    "weighted_shard_ranges",
    "uniform_range_table",
    "balanced_range_table",
    "build_range_table",
    "rebalance_range_table",
    "range_table_slices",
    "range_table_label",
    "resolve_sharding",
    "Signature",
    "signature_of_labels",
    "signature_arity",
    "signature_label_counts",
    "is_sub_signature",
    "intersect_sorted",
    "intersect_many",
    "union_sorted",
    "union_many",
    "QuerySetting",
    "PAPER_QUERY_SETTINGS",
    "query_setting",
    "sample_query",
    "sample_queries",
    "DatasetStatistics",
    "dataset_statistics",
    "format_bytes",
    "save_store",
    "load_store",
    "stores_equal",
]

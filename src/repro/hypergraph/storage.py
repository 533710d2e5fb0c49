"""Signature-partitioned hyperedge tables (Section IV-B, Table I).

HGMatch stores the data hypergraph as one *hyperedge table* per distinct
hyperedge signature.  Searching the candidates of a query hyperedge then
only scans the single partition whose signature matches, and the
cardinality statistic used by the matching-order heuristic
(Definition V.2) is simply the row count of that table — an O(1) lookup.

Each partition also carries the inverted hyperedge index of Section IV-C,
built by :mod:`repro.hypergraph.index`.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Tuple

from .dynamic import (
    MutationResult,
    group_live_edges_by_signature,
    group_rows_by_signature,
)
from .hypergraph import Hypergraph
from .index import INDEX_BACKENDS, build_index
from .signature import Signature


def group_edges_by_signature(
    graph: Hypergraph,
) -> "Dict[Signature, List[int]]":
    """Live edge ids grouped by signature, ascending within each group.

    The canonical partition layout: :class:`PartitionedStore` and the
    row-range sharding in :mod:`repro.hypergraph.sharding` both build
    from this one function, which is what makes a shard's global row
    coordinates (``row_base + local row``) line up with the global
    partition's rows — never reimplement the grouping independently.
    On a :class:`~repro.hypergraph.dynamic.DynamicHypergraph` this
    skips tombstoned slots; the *row layout* (which keeps tombstone
    rows allocated so later rows never shift) is the companion
    :func:`~repro.hypergraph.dynamic.group_rows_by_signature`.
    """
    return group_live_edges_by_signature(graph)


#: What :func:`default_index_backend` falls back to: the fast engine
#: (row bitmasks; Algorithms 4 and 5 both run as big-int set algebra).
#: ``"merge"`` is the paper-faithful reference, named explicitly wherever
#: it is the oracle or its ``postings`` cost model is what is reported.
DEFAULT_INDEX_BACKEND = "bitset"


def default_index_backend() -> str:
    """The backend used when callers pass ``index_backend=None``.

    Resolved at call time from the ``REPRO_INDEX_BACKEND`` environment
    variable (falling back to :data:`DEFAULT_INDEX_BACKEND`), so a whole
    process — the test suite under CI's backend matrix, a deployment —
    can be switched without touching call sites.
    """
    return os.environ.get("REPRO_INDEX_BACKEND") or DEFAULT_INDEX_BACKEND


def resolve_index_backend(index_backend: "str | None") -> str:
    """Normalise an ``index_backend`` argument, validating the name."""
    backend = (
        default_index_backend() if index_backend is None else index_backend
    )
    if backend not in INDEX_BACKENDS:
        raise ValueError(
            f"unknown index backend {backend!r}; "
            f"expected one of {INDEX_BACKENDS}"
        )
    return backend


class HyperedgePartition:
    """One hyperedge table: all data hyperedges sharing a signature.

    Attributes
    ----------
    signature:
        The common signature ``S(e)`` of every hyperedge in the table.
    edge_ids:
        *Live* edge ids (into the owning hypergraph) in ascending
        order — what candidate scans and cardinality statistics see.
    index:
        The inverted hyperedge index over this partition — either
        backend from :mod:`repro.hypergraph.index`; its ``backend`` tag
        tells candidate generation which set-algebra path to take.
    row_ids:
        The partition's *row layout*: ALL edge slots (live +
        tombstoned) ascending.  Equal to ``edge_ids`` until something
        is deleted; row coordinates (shard ranges, wire masks, the
        index's row space) are positions in this tuple.
    """

    __slots__ = ("signature", "edge_ids", "index", "row_ids")

    def __init__(
        self,
        signature: Signature,
        edge_ids: Tuple[int, ...],
        index,
        row_ids: "Tuple[int, ...] | None" = None,
    ) -> None:
        self.signature = signature
        self.edge_ids = edge_ids
        self.index = index
        self.row_ids = edge_ids if row_ids is None else row_ids

    @property
    def cardinality(self) -> int:
        """Live row count of the table — ``Card(e, H)``."""
        return len(self.edge_ids)

    @property
    def num_rows(self) -> int:
        """Allocated rows (live + tombstoned) — the row-space width."""
        return len(self.row_ids)

    # -- incremental maintenance ---------------------------------------

    def append_edge(self, edge_id: int, vertices) -> None:
        """Append a freshly inserted edge at the row-layout tail.

        ``edge_id`` exceeds every id in the partition (dynamic ids are
        never reused), so both ``edge_ids`` and ``row_ids`` stay
        ascending by plain appends.
        """
        self.row_ids = self.row_ids + (edge_id,)
        self.edge_ids = self.edge_ids + (edge_id,)
        self.index.append_edge(edge_id, vertices)

    def remove_edge(self, local_row: int, edge_id: int, vertices) -> None:
        """Tombstone an edge: it leaves ``edge_ids`` (and the index's
        postings) but keeps its slot in ``row_ids``, so every later
        row keeps its coordinate."""
        ids = self.edge_ids
        position = bisect_left(ids, edge_id)
        self.edge_ids = ids[:position] + ids[position + 1:]
        self.index.remove_edge(local_row, edge_id, vertices)

    def incident_edges(self, vertex: int) -> Tuple[int, ...]:
        """``he(v, s)``: edges in this partition incident to ``vertex``.

        Returns the posting list from the inverted index (ascending edge
        ids), or an empty tuple when the vertex never occurs here.
        """
        return self.index.postings(vertex)

    def __len__(self) -> int:
        return len(self.edge_ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.edge_ids)

    def __repr__(self) -> str:
        return f"HyperedgePartition(S={self.signature}, rows={len(self.edge_ids)})"


class PartitionedStore:
    """The complete partitioned storage layer over a data hypergraph.

    Building the store is the whole of HGMatch's offline preprocessing:
    group hyperedges by signature and build one inverted index per group.
    No auxiliary structure is ever built at query time.

    ``index_backend`` selects the posting-list representation for every
    partition: ``"merge"`` (sorted tuples + merge scans), ``"bitset"``
    (dense row-id bitmasks + bitwise algebra) or ``"adaptive"``
    (roaring-style chunked containers).  ``None`` defers to
    :func:`default_index_backend` (the ``REPRO_INDEX_BACKEND``
    environment variable, falling back to ``"bitset"``).  All backends
    yield identical candidate sets; see :mod:`repro.hypergraph.index`.
    """

    def __init__(
        self, graph: Hypergraph, index_backend: "str | None" = None
    ) -> None:
        index_backend = resolve_index_backend(index_backend)
        self._graph = graph
        self.index_backend = index_backend
        grouped = group_rows_by_signature(graph)
        alive = getattr(graph, "is_live", None)

        self._partitions: Dict[Signature, HyperedgePartition] = {}
        for signature, rows in grouped.items():
            row_ids = tuple(rows)
            ids = (
                row_ids
                if alive is None
                else tuple(e for e in row_ids if alive(e))
            )
            index = build_index(index_backend, graph, row_ids)
            self._partitions[signature] = HyperedgePartition(
                signature, ids, index, row_ids
            )

    @property
    def graph(self) -> Hypergraph:
        """The underlying data hypergraph."""
        return self._graph

    def adopt_graph(self, graph) -> None:
        """Re-point the store at a content-identical graph.

        The promotion hook: an engine upgrading its immutable data
        graph to a :class:`~repro.hypergraph.dynamic.DynamicHypergraph`
        keeps the already-built partitions (edge ids and row layouts
        are preserved by the promotion) instead of rebuilding.
        """
        self._graph = graph

    def apply_mutation_result(self, result: MutationResult) -> None:
        """Incrementally maintain every touched partition.

        ``result`` comes from :meth:`~repro.hypergraph.dynamic.
        DynamicHypergraph.apply` on this store's own graph; each record
        carries the edge's global row, so only the touched partitions —
        and within the adaptive backend only the touched containers —
        are updated.  The outcome is structurally identical to
        rebuilding the store from the mutated graph (the mutation
        oracle pins this per backend).
        """
        for mutation in result.deleted:
            self._partitions[mutation.signature].remove_edge(
                mutation.row, mutation.edge_id, mutation.vertices
            )
        for mutation in result.inserted:
            partition = self._partitions.get(mutation.signature)
            if partition is None:
                index = build_index(self.index_backend, self._graph, ())
                partition = HyperedgePartition(mutation.signature, (), index, ())
                self._partitions[mutation.signature] = partition
            partition.append_edge(mutation.edge_id, mutation.vertices)

    @property
    def partitions(self) -> Mapping[Signature, HyperedgePartition]:
        """Mapping from signature to its partition (read-only view)."""
        return self._partitions

    def partition(self, signature: Signature) -> "HyperedgePartition | None":
        """The partition with the given signature, or None if absent."""
        return self._partitions.get(signature)

    def cardinality(self, signature: Signature) -> int:
        """``Card(e, H)`` for a query hyperedge with this signature (O(1))."""
        partition = self._partitions.get(signature)
        return partition.cardinality if partition is not None else 0

    def num_partitions(self) -> int:
        """Number of distinct signatures in the data hypergraph."""
        return len(self._partitions)

    def index_size_entries(self) -> int:
        """Total number of posting-list entries across all partitions.

        Each hyperedge contributes one entry per vertex it contains, so
        this equals the sum of arities — the O(a_H × |E(H)|) size bound of
        Section IV-C.  Reported (scaled by an entry-size constant) as the
        index size in the Fig. 7 benchmark.
        """
        return sum(
            partition.index.num_entries for partition in self._partitions.values()
        )

    def __repr__(self) -> str:
        return (
            f"PartitionedStore(partitions={len(self._partitions)}, "
            f"edges={self._graph.num_edges})"
        )

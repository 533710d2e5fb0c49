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
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from .dynamic import MutationResult
from .hypergraph import Hypergraph
from .index import INDEX_BACKENDS, build_index
from .signature import Signature


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
    """The partitioned storage layer over a data hypergraph: the whole
    of it by default, one row range per signature when ``ranges`` says so.

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

    ``ranges`` maps a signature to the ``(low, high)`` slice of its row
    layout this store holds (a signature it does not name: no rows) and
    ``grouped`` is a precomputed :meth:`~repro.hypergraph.hypergraph.
    Hypergraph.rows_by_signature` — the plumbing through which
    :class:`~repro.hypergraph.sharding.StoreShard` feeds this one build
    loop.  Local row ``r`` of a partition stands for global row
    ``row_base(signature) + r``; edge ids are always global.  A store
    built without ``ranges`` is the 1-of-1 shard: every row, base 0.
    """

    #: Shard identity — what decides who takes a row nobody holds yet
    #: (see :meth:`apply_mutation_result`).
    shard_id = 0
    num_shards = 1

    def __init__(
        self,
        graph: Hypergraph,
        index_backend: "str | None" = None,
        ranges: "Mapping[Signature, Tuple[int, int]] | None" = None,
        grouped: "Mapping[Signature, Sequence[int]] | None" = None,
    ) -> None:
        self.index_backend = resolve_index_backend(index_backend)
        self._graph = graph
        self._partitions: Dict[Signature, HyperedgePartition] = {}
        self._row_bases: Dict[Signature, int] = {}
        if grouped is None:
            grouped = graph.rows_by_signature()
        for signature, rows in grouped.items():
            low, high = (
                (0, len(rows)) if ranges is None
                else ranges.get(signature, (0, 0))
            )
            if not 0 <= low <= high <= len(rows):
                raise ValueError(
                    f"range ({low}, {high}) outside partition of "
                    f"{len(rows)} rows"
                )
            if low < high:
                self._open_partition(signature, rows[low:high], low)

    def _open_partition(
        self, signature: Signature, rows: Sequence[int], row_base: int
    ) -> HyperedgePartition:
        """Index ``rows`` — a slice of the signature's row layout that
        starts at global row ``row_base`` — as this store's partition."""
        graph = self._graph
        row_ids = tuple(rows)
        edge_ids = (
            row_ids
            if graph.num_edges == graph.num_slots  # no tombstone anywhere
            else tuple(e for e in row_ids if graph.is_live(e))
        )
        partition = HyperedgePartition(
            signature,
            edge_ids,
            build_index(self.index_backend, graph, row_ids),
            row_ids,
        )
        self._partitions[signature] = partition
        self._row_bases[signature] = row_base
        return partition

    @property
    def graph(self) -> Hypergraph:
        """The underlying data hypergraph."""
        return self._graph

    def adopt_graph(self, graph) -> None:
        """Re-point the store at a content-identical graph.

        The promotion hook of :func:`~repro.hypergraph.dynamic.
        apply_batch`: upgrading an immutable data graph to a
        :class:`~repro.hypergraph.dynamic.DynamicHypergraph` preserves
        edge ids and row layouts, so the already-built partitions stay.
        """
        self._graph = graph

    def row_base(self, signature: Signature) -> int:
        """Global row index of the store's first local row (0 if it
        holds no rows of the signature)."""
        return self._row_bases.get(signature, 0)

    def apply_mutation_result(self, result: MutationResult) -> None:
        """Incrementally maintain every touched partition.

        ``result`` comes from :meth:`~repro.hypergraph.dynamic.
        DynamicHypergraph.apply` on this store's own graph (or, for the
        shards of a pool, on each one's copy of the same graph, every
        shard applying the same results in order); each record carries
        the edge's global row, so only the touched partitions — and
        within the adaptive backend only the touched containers — are
        updated.  The outcome is structurally identical to rebuilding
        the store from the mutated graph (the mutation oracle pins this
        per backend).

        Deletes tombstone in place: a delete lands on the store whose
        range contains its global row, every other one ignores it, and
        no range boundary moves.  Inserts append at the global row
        layout's tail, so exactly one store *owns* each append — the
        one whose range for the signature is non-empty with ``high ==
        insert row`` (appends extend the positionally last range), or
        the highest shard id when the insert opens a brand-new
        partition (row 0 of an unseen signature).  Both rules are
        computable from local state, so workers never coordinate beyond
        receiving the same batch — and for the whole store both say
        "mine".
        """
        for mutation in result.deleted:
            partition = self._partitions.get(mutation.signature)
            if partition is None:
                continue
            local_row = mutation.row - self._row_bases[mutation.signature]
            if 0 <= local_row < partition.num_rows:
                partition.remove_edge(
                    local_row, mutation.edge_id, mutation.vertices
                )
        for mutation in result.inserted:
            partition = self._partitions.get(mutation.signature)
            if partition is None:
                # Either an unseen signature (row 0: the highest shard
                # takes it) or an empty range of an existing one (some
                # other shard's high matches the insert row).
                if mutation.row or self.shard_id != self.num_shards - 1:
                    continue
                partition = self._open_partition(mutation.signature, (), 0)
            base = self._row_bases[mutation.signature]
            if base + partition.num_rows == mutation.row:
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

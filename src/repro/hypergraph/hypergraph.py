"""The labelled hypergraph data model (Definition III.1 of the paper).

A :class:`Hypergraph` is an immutable, vertex-labelled simple hypergraph:

* vertices are the integers ``0 .. num_vertices - 1``;
* every vertex carries a label (any hashable value);
* hyperedges are non-empty frozensets of vertices, identified by their
  integer position ``0 .. num_edges - 1``;
* repeated hyperedges and repeated vertices inside a hyperedge are removed
  at construction time, mirroring the preprocessing applied to the paper's
  datasets (Section VII-A).

The class stores, besides the edge list itself, the incidence lists
``he(v)`` (edge ids incident to each vertex, ascending) because nearly
every algorithm in the paper is phrased in terms of incident hyperedges.

Use :class:`HypergraphBuilder` for incremental construction or the
``Hypergraph.from_edges`` convenience constructor for one-shot building.

:class:`~repro.hypergraph.dynamic.DynamicHypergraph` extends this class
with edge inserts and deletes.  Deleted edges leave *tombstoned slots*
behind, so the class also answers the **row-layout protocol** the index
layer is written against (:attr:`Hypergraph.version`,
:meth:`~Hypergraph.rows_by_signature`, :meth:`~Hypergraph.slot_vertices`,
:meth:`~Hypergraph.is_live`, …) — trivially here, where every slot is a
live edge — and every consumer of a data graph calls it unconditionally.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
)

from ..errors import HypergraphError
from .signature import Label, Signature, signature_of_labels


class Hypergraph:
    """An immutable vertex-labelled simple hypergraph.

    Parameters
    ----------
    labels:
        ``labels[v]`` is the label of vertex ``v``.  The length of this
        sequence defines the vertex count.
    edges:
        Iterable of vertex collections.  Duplicate vertices within an edge
        are collapsed; duplicate edges (same vertex set — and same edge
        label when edge labels are used) are dropped, keeping the first
        occurrence.  Empty edges raise :class:`HypergraphError`.
    edge_labels:
        Optional hyperedge labels, parallel to ``edges`` (before
        deduplication).  When given, the hypergraph is *edge-labelled*
        (paper footnote 2): isomorphism additionally requires matched
        hyperedges to carry equal labels, which the engine obtains for
        free by folding the edge label into the hyperedge signature.
    """

    __slots__ = (
        "_labels",
        "_edges",
        "_edge_labels",
        "_incidence",
        "_signatures",
        "_edge_lookup",
    )

    #: Mutation version: the number of committed batches, which for an
    #: immutable graph is always 0.
    version = 0

    def __init__(
        self,
        labels: Sequence[Label],
        edges: Iterable[Iterable[int]],
        edge_labels: "Sequence[Label] | None" = None,
    ) -> None:
        self._labels: Tuple[Label, ...] = tuple(labels)
        num_vertices = len(self._labels)

        raw_edges = [frozenset(raw) for raw in edges]
        if edge_labels is not None:
            raw_labels = list(edge_labels)
            if len(raw_labels) != len(raw_edges):
                raise HypergraphError(
                    "edge_labels must parallel edges "
                    f"({len(raw_labels)} labels for {len(raw_edges)} edges)"
                )
        else:
            raw_labels = None

        deduped: List[FrozenSet[int]] = []
        deduped_labels: List[Label] = []
        seen: Set[object] = set()
        for position, edge in enumerate(raw_edges):
            if not edge:
                raise HypergraphError("hyperedges must be non-empty")
            for vertex in edge:
                if not 0 <= vertex < num_vertices:
                    raise HypergraphError(
                        f"edge {sorted(edge)} references unknown vertex {vertex}"
                    )
            key = edge if raw_labels is None else (edge, raw_labels[position])
            if key in seen:
                continue
            seen.add(key)
            deduped.append(edge)
            if raw_labels is not None:
                deduped_labels.append(raw_labels[position])

        self._edges: Tuple[FrozenSet[int], ...] = tuple(deduped)
        self._edge_labels: "Tuple[Label, ...] | None" = (
            tuple(deduped_labels) if raw_labels is not None else None
        )
        if self._edge_labels is None:
            self._edge_lookup: Dict[object, int] = {
                edge: index for index, edge in enumerate(self._edges)
            }
        else:
            self._edge_lookup = {
                (edge, self._edge_labels[index]): index
                for index, edge in enumerate(self._edges)
            }

        incidence: List[List[int]] = [[] for _ in range(num_vertices)]
        for edge_id, edge in enumerate(self._edges):
            for vertex in edge:
                incidence[vertex].append(edge_id)
        self._incidence: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(edge_ids) for edge_ids in incidence
        )

        if self._edge_labels is None:
            self._signatures: Tuple[Signature, ...] = tuple(
                signature_of_labels(self._labels[v] for v in edge)
                for edge in self._edges
            )
        else:
            # The edge label becomes part of the signature, so signature
            # partitioning (and with it candidate generation) enforces
            # the extra edge-label constraint with no engine changes.
            self._signatures = tuple(
                (self._edge_labels[edge_id],)
                + signature_of_labels(self._labels[v] for v in edge)
                for edge_id, edge in enumerate(self._edges)
            )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices, ``|V(H)|``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of hyperedges, ``|E(H)|``."""
        return len(self._edges)

    @property
    def labels(self) -> Tuple[Label, ...]:
        """Tuple of vertex labels indexed by vertex id."""
        return self._labels

    @property
    def edges(self) -> Tuple[FrozenSet[int], ...]:
        """Tuple of hyperedges (frozensets of vertex ids) indexed by edge id."""
        return self._edges

    def label(self, vertex: int) -> Label:
        """Label of ``vertex`` (``l(v)`` in the paper)."""
        return self._labels[vertex]

    def edge(self, edge_id: int) -> FrozenSet[int]:
        """The vertex set of hyperedge ``edge_id``."""
        return self._edges[edge_id]

    def edge_signature(self, edge_id: int) -> Signature:
        """Signature ``S(e)`` of hyperedge ``edge_id`` (Definition IV.1)."""
        return self._signatures[edge_id]

    def edge_signatures(self) -> Tuple[Signature, ...]:
        """All edge signatures, indexed by edge id."""
        return self._signatures

    @property
    def is_edge_labelled(self) -> bool:
        """True when hyperedges carry labels (paper footnote 2)."""
        return self._edge_labels is not None

    def edge_label(self, edge_id: int) -> "Label | None":
        """Label of hyperedge ``edge_id`` (None for unlabelled edges)."""
        if self._edge_labels is None:
            return None
        return self._edge_labels[edge_id]

    def _lookup_key(self, vertices: Iterable[int], label: "Label | None"):
        edge = frozenset(vertices)
        if self._edge_labels is None:
            return edge
        if label is None:
            raise HypergraphError(
                "edge lookups on an edge-labelled hypergraph require the "
                "edge label"
            )
        return (edge, label)

    def edge_id(
        self, vertices: Iterable[int], label: "Label | None" = None
    ) -> int:
        """Return the id of the hyperedge equal to ``vertices``.

        For edge-labelled hypergraphs, ``label`` selects among edges over
        the same vertex set.  Raises :class:`KeyError` if no such
        hyperedge exists.  This lookup is the hyperedge-existence test
        used by the match-by-vertex baselines (Theorem III.2).
        """
        return self._edge_lookup[self._lookup_key(vertices, label)]

    def has_edge(
        self, vertices: Iterable[int], label: "Label | None" = None
    ) -> bool:
        """True if ``vertices`` (with ``label``, when edge-labelled) is a
        hyperedge of this graph."""
        return self._lookup_key(vertices, label) in self._edge_lookup

    # ------------------------------------------------------------------
    # The row layout (what stores, shards and wire masks address)
    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        """Allocated edge slots, live + tombstoned (= the next edge id)."""
        return len(self._edges)

    def slot_vertices(self, edge_id: int) -> "FrozenSet[int] | None":
        """The slot's vertex set, or None for a tombstoned slot."""
        return self._edges[edge_id]

    def is_live(self, edge_id: int) -> bool:
        """True when ``edge_id`` names a live (non-tombstoned) edge."""
        return (
            0 <= edge_id < len(self._edges)
            and self._edges[edge_id] is not None
        )

    def live_edge_ids(self) -> Iterator[int]:
        """Live edge ids in ascending order."""
        return (
            edge_id
            for edge_id, edge in enumerate(self._edges)
            if edge is not None
        )

    def rows_by_signature(self) -> Dict[Signature, List[int]]:
        """The row layout: ALL slot ids per signature, ascending.

        The one grouping every store, shard cut and coordinator check
        builds from, which is what makes a shard's global row
        coordinates (``row_base + local row``) line up with the whole
        partition's rows.  Tombstoned slots are included — they hold
        their row so that later rows never shift.  Returns fresh lists.
        """
        rows: Dict[Signature, List[int]] = {}
        for edge_id, signature in enumerate(self._signatures):
            rows.setdefault(signature, []).append(edge_id)
        return rows

    def batches_since(self, version: int) -> None:
        """The committed batches after ``version``: an immutable graph
        retains none, so a stale copy is caught up by snapshot."""
        return None

    # ------------------------------------------------------------------
    # Incidence and adjacency
    # ------------------------------------------------------------------
    def incident_edges(self, vertex: int) -> Tuple[int, ...]:
        """Edge ids incident to ``vertex`` in ascending order (``he(v)``)."""
        return self._incidence[vertex]

    def degree(self, vertex: int) -> int:
        """Vertex degree ``d(v)``: the number of incident hyperedges."""
        return len(self._incidence[vertex])

    def arity(self, edge_id: int) -> int:
        """Arity ``a(e)``: the number of vertices in hyperedge ``edge_id``."""
        return len(self._edges[edge_id])

    def incident_edges_with_arity(self, vertex: int, arity: int) -> Tuple[int, ...]:
        """``he_a(v)``: incident edge ids whose arity equals ``arity``."""
        return tuple(
            edge_id
            for edge_id in self._incidence[vertex]
            if len(self._edges[edge_id]) == arity
        )

    def adjacent_vertices(self, vertex: int) -> FrozenSet[int]:
        """``adj(v)``: vertices sharing at least one hyperedge with ``vertex``.

        The vertex itself is excluded, matching the conventional
        definition used by the IHS filter.
        """
        neighbours: Set[int] = set()
        for edge_id in self._incidence[vertex]:
            neighbours.update(self._edges[edge_id])
        neighbours.discard(vertex)
        return frozenset(neighbours)

    def adjacent_edges(self, edge_id: int) -> FrozenSet[int]:
        """``adj(e)``: hyperedge ids sharing at least one vertex with ``edge_id``."""
        neighbours: Set[int] = set()
        for vertex in self.edge(edge_id):
            neighbours.update(self._incidence[vertex])
        neighbours.discard(edge_id)
        return frozenset(neighbours)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def average_arity(self) -> float:
        """Average arity ``a_H`` over all hyperedges (0.0 for no edges)."""
        edges = self.edges
        if not edges:
            return 0.0
        return sum(len(edge) for edge in edges) / len(edges)

    def max_arity(self) -> int:
        """Maximum arity ``a_max`` (0 for no edges)."""
        edges = self.edges
        if not edges:
            return 0
        return max(len(edge) for edge in edges)

    def label_alphabet(self) -> FrozenSet[Label]:
        """The set of labels ``Σ`` actually used by vertices."""
        return frozenset(self._labels)

    def is_connected(self) -> bool:
        """True if the hypergraph is connected (via shared vertices).

        Isolated vertices (degree 0) make the hypergraph disconnected
        unless it has at most one vertex and no edges.
        """
        if self.num_vertices == 0:
            return True
        visited = {0}
        frontier = [0]
        while frontier:
            vertex = frontier.pop()
            for edge_id in self._incidence[vertex]:
                for other in self._edges[edge_id]:
                    if other not in visited:
                        visited.add(other)
                        frontier.append(other)
        return len(visited) == self.num_vertices

    # ------------------------------------------------------------------
    # Derived hypergraphs
    # ------------------------------------------------------------------
    def induced_by_edges(self, edge_ids: Iterable[int]) -> "Hypergraph":
        """Sub-hypergraph built from the given edges, vertices renumbered.

        Vertices are relabelled ``0..k-1`` in ascending order of their
        original ids.  Used by the random-walk query sampler.
        """
        edge_ids = list(edge_ids)
        chosen = [self.edge(edge_id) for edge_id in edge_ids]
        vertices = sorted({v for edge in chosen for v in edge})
        renumber = {old: new for new, old in enumerate(vertices)}
        labels = [self._labels[old] for old in vertices]
        edges = [[renumber[v] for v in edge] for edge in chosen]
        edge_labels = (
            [self._edge_labels[edge_id] for edge_id in edge_ids]
            if self._edge_labels is not None
            else None
        )
        return Hypergraph(labels, edges, edge_labels=edge_labels)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[FrozenSet[int]]:
        return iter(self.edges)

    def __len__(self) -> int:
        return self.num_edges

    def _edge_identity(self) -> FrozenSet[object]:
        """The live edges (with their labels, when edge-labelled): the
        keys of the existence lookup are exactly that set."""
        return frozenset(self._edge_lookup)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.labels == other.labels
            and self._edge_identity() == other._edge_identity()
        )

    def __hash__(self) -> int:
        return hash((self.labels, self._edge_identity()))

    def __repr__(self) -> str:
        return (
            f"Hypergraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"|Σ|={len(self.label_alphabet())})"
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Iterable[int]],
        labels: Sequence[Label],
        edge_labels: "Sequence[Label] | None" = None,
    ) -> "Hypergraph":
        """Build a hypergraph from an edge list and a label sequence."""
        return cls(labels, edges, edge_labels=edge_labels)


class HypergraphBuilder:
    """Mutable builder producing :class:`Hypergraph` instances.

    Vertices may be added explicitly via :meth:`add_vertex` (which returns
    the new vertex id) or implicitly through :meth:`add_edge` using
    arbitrary hashable external keys — the builder assigns dense internal
    ids and remembers the mapping.
    """

    def __init__(self) -> None:
        self._labels: List[Label] = []
        self._edges: List[List[int]] = []
        self._edge_labels: List[Label] = []
        self._key_to_id: Dict[Hashable, int] = {}

    def add_vertex(self, label: Label, key: "Hashable | None" = None) -> int:
        """Add a vertex with ``label``; optionally register an external key."""
        vertex = len(self._labels)
        self._labels.append(label)
        if key is not None:
            if key in self._key_to_id:
                raise HypergraphError(f"duplicate vertex key: {key!r}")
            self._key_to_id[key] = vertex
        return vertex

    def vertex_for_key(self, key: Hashable, label: Label) -> int:
        """Return the vertex id for ``key``, creating it with ``label`` if new."""
        if key not in self._key_to_id:
            self.add_vertex(label, key=key)
        return self._key_to_id[key]

    def add_edge(
        self, vertices: Iterable[int], label: "Label | None" = None
    ) -> int:
        """Add a hyperedge over already-created vertex ids; returns its index.

        Passing ``label`` on every edge produces an edge-labelled
        hypergraph; mixing labelled and unlabelled edges is rejected at
        :meth:`build` time.
        """
        edge = list(vertices)
        for vertex in edge:
            if not 0 <= vertex < len(self._labels):
                raise HypergraphError(f"unknown vertex id {vertex}")
        self._edges.append(edge)
        self._edge_labels.append(label)
        return len(self._edges) - 1

    def add_edge_by_keys(self, keyed_vertices: Iterable[Tuple[Hashable, Label]]) -> int:
        """Add a hyperedge given ``(key, label)`` pairs, creating vertices lazily."""
        edge = [self.vertex_for_key(key, label) for key, label in keyed_vertices]
        return self.add_edge(edge)

    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def build(self) -> Hypergraph:
        """Freeze the builder into an immutable :class:`Hypergraph`."""
        labelled = [label is not None for label in self._edge_labels]
        if any(labelled) and not all(labelled):
            raise HypergraphError(
                "either all hyperedges carry a label or none do"
            )
        edge_labels = self._edge_labels if any(labelled) else None
        return Hypergraph(self._labels, self._edges, edge_labels=edge_labels)

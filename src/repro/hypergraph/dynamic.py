"""Mutable hypergraphs: edge insert/delete with stable row layouts.

:class:`DynamicHypergraph` *is a*
:class:`~repro.hypergraph.hypergraph.Hypergraph` — it inherits the read
interface and the row-layout protocol, overriding only the accessors a
tombstone changes, so every consumer of a data graph (stores, shards,
engines, executors) works on either without telling them apart — and
adds a transactional mutation interface:

* :meth:`DynamicHypergraph.apply` commits one :class:`MutationBatch`
  (edge deletes, vertex adds, edge inserts — in that order), bumps the
  graph :attr:`~DynamicHypergraph.version` and returns a
  :class:`MutationResult` describing exactly which edge slots changed
  and *where they live in the row layout*;
* deleted edges become **tombstones**: the edge id and its row stay
  allocated (so rows of later edges never shift), the slot merely stops
  contributing postings, incidence, lookups or counts;
* inserted edges always receive a fresh, strictly increasing edge id —
  ids are never reused — so new rows *append at the tail* of their
  signature's row layout and every sorted structure (posting tuples,
  ascending incidence lists, row tables) extends without re-sorting.

The row-layout invariant this module guarantees is what makes
incremental index maintenance exact across process boundaries:

    the global row coordinates of a signature are ALL of its edge
    slots — live and tombstoned — in ascending edge-id order.

A store built *from scratch* over a mutated :class:`DynamicHypergraph`
therefore produces bit-identical row coordinates to a store maintained
*incrementally* through the same mutations (the differential mutation
oracle in :mod:`repro.testing` pins this), and a shard pool whose
workers hold independently-mutated graph copies keeps exchanging row
masks that mean the same rows everywhere.

``num_edges``, ``edges``, iteration, equality and the fingerprint all
reflect only the **live** edges — a mutated graph is indistinguishable,
to every read-side consumer, from a fresh graph holding its live
content (plus the tombstone rows that only the index layer ever sees
through :meth:`rows_by_signature` / :meth:`is_live`).

:func:`apply_batch` is the one write path: the engine, a shard worker's
MUTATE frame and each batch of its CATCHUP replay all commit through it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..errors import HypergraphError
from .hypergraph import Hypergraph
from .signature import Label, Signature, signature_of_labels


class MutationBatch:
    """One atomic group of graph mutations.

    Parameters
    ----------
    inserts:
        Edge inserts: each item is either an iterable of vertex ids or
        a ``(vertices, edge_label)`` pair (the latter is required on
        edge-labelled graphs, rejected on unlabelled ones).  Vertices
        are normalised to a sorted duplicate-free tuple.
    deletes:
        Edge ids to tombstone.  Every id must name a live edge.
    add_vertices:
        Labels of new vertices, appended in order; inserts may
        reference the new ids.

    Application order within a batch is fixed — vertex adds, then
    deletes, then inserts — so a batch can delete an edge and re-insert
    a superset referencing a fresh vertex.  Instances are immutable and
    picklable: the same batch object is applied by the coordinator and
    broadcast verbatim to every shard worker (MUTATE frames), which is
    what keeps independently-held graph copies in lockstep.
    """

    __slots__ = ("inserts", "deletes", "add_vertices")

    def __init__(
        self,
        inserts: Iterable[object] = (),
        deletes: Iterable[int] = (),
        add_vertices: Iterable[Label] = (),
    ) -> None:
        normalised: List[Tuple[Tuple[int, ...], "Label | None"]] = []
        for item in inserts:
            if (
                isinstance(item, tuple)
                and len(item) == 2
                and not isinstance(item[0], int)
            ):
                vertices, label = item
            else:
                vertices, label = item, None
            normalised.append((tuple(sorted(set(vertices))), label))
        self.inserts: Tuple[Tuple[Tuple[int, ...], "Label | None"], ...] = (
            tuple(normalised)
        )
        self.deletes: Tuple[int, ...] = tuple(deletes)
        self.add_vertices: Tuple[Label, ...] = tuple(add_vertices)

    def __bool__(self) -> bool:
        return bool(self.inserts or self.deletes or self.add_vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MutationBatch):
            return NotImplemented
        return (
            self.inserts == other.inserts
            and self.deletes == other.deletes
            and self.add_vertices == other.add_vertices
        )

    def __hash__(self) -> int:
        return hash((self.inserts, self.deletes, self.add_vertices))

    def __repr__(self) -> str:
        return (
            f"MutationBatch(+{len(self.inserts)}e/-{len(self.deletes)}e/"
            f"+{len(self.add_vertices)}v)"
        )

    # -- daemon protocol (line-JSON) -----------------------------------

    def to_json(self) -> dict:
        """JSON-safe dict for the daemon's ``mutate`` request."""
        return {
            "inserts": [
                {"vertices": list(vertices), "label": label}
                for vertices, label in self.inserts
            ],
            "deletes": list(self.deletes),
            "add_vertices": list(self.add_vertices),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MutationBatch":
        """Inverse of :meth:`to_json` (tolerates missing keys)."""
        if not isinstance(payload, dict):
            raise HypergraphError(
                f"mutation payload must be an object, got {type(payload).__name__}"
            )
        inserts = []
        for item in payload.get("inserts", ()):
            if isinstance(item, dict):
                inserts.append((item["vertices"], item.get("label")))
            else:
                inserts.append(item)
        return cls(
            inserts=inserts,
            deletes=payload.get("deletes", ()),
            add_vertices=payload.get("add_vertices", ()),
        )


class EdgeMutation:
    """One applied edge insert or delete, located in the row layout.

    ``row`` is the edge's position among *all* slots (live + tombstoned)
    of its signature, in ascending edge-id order — the same coordinate
    every index backend and every shard range speaks.
    """

    __slots__ = ("edge_id", "signature", "vertices", "row")

    def __init__(
        self,
        edge_id: int,
        signature: Signature,
        vertices: FrozenSet[int],
        row: int,
    ) -> None:
        self.edge_id = edge_id
        self.signature = signature
        self.vertices = vertices
        self.row = row

    def __repr__(self) -> str:
        return (
            f"EdgeMutation(e{self.edge_id}, S={self.signature}, "
            f"row={self.row})"
        )


class MutationResult:
    """What :meth:`DynamicHypergraph.apply` actually did.

    ``inserted``/``deleted`` hold :class:`EdgeMutation` records in
    application order; ``skipped`` holds the insert specs that
    duplicated an existing live edge (the graph stays simple, mirroring
    construction-time dedup).  ``version`` is the graph version after
    the commit.
    """

    __slots__ = ("version", "inserted", "deleted", "skipped")

    def __init__(
        self,
        version: int,
        inserted: Sequence[EdgeMutation],
        deleted: Sequence[EdgeMutation],
        skipped: Sequence[Tuple[Tuple[int, ...], "Label | None"]],
    ) -> None:
        self.version = version
        self.inserted = tuple(inserted)
        self.deleted = tuple(deleted)
        self.skipped = tuple(skipped)

    def __repr__(self) -> str:
        return (
            f"MutationResult(v{self.version}, +{len(self.inserted)}, "
            f"-{len(self.deleted)}, ~{len(self.skipped)})"
        )


class DynamicHypergraph(Hypergraph):
    """A mutable labelled hypergraph with the immutable read interface.

    Build one with :meth:`from_hypergraph` (preserving edge ids) or the
    :class:`~repro.hypergraph.hypergraph.Hypergraph` constructor
    signature.  The inherited state becomes mutable — lists where the
    base class holds tuples, ``None`` in ``_edges`` for a tombstoned
    slot, ``_signatures`` still naming the row each dead slot occupies —
    and all read accessors report **live** state only; the row-layout
    protocol (:attr:`version`, :meth:`is_live`, :meth:`live_edge_ids`,
    :meth:`slot_vertices`, :attr:`num_slots`) is the base class's,
    unchanged.  Instances are picklable (workers receive a copy at spawn
    and replay MUTATE batches to stay in lockstep).
    """

    def __init__(
        self,
        labels: Sequence[Label],
        edges: Iterable[Iterable[int]] = (),
        edge_labels: "Sequence[Label] | None" = None,
    ) -> None:
        self._copy_state(Hypergraph(labels, edges, edge_labels=edge_labels))

    def _copy_state(self, graph: Hypergraph) -> None:
        """Take a private, mutable copy of ``graph``'s slot state."""
        self._labels: List[Label] = list(graph._labels)
        self._edges: List["FrozenSet[int] | None"] = list(graph._edges)
        self._signatures: List[Signature] = list(graph._signatures)
        self._edge_labels: "List[Label] | None" = (
            None if graph._edge_labels is None else list(graph._edge_labels)
        )
        self._incidence: List[List[int]] = [
            list(edge_ids) for edge_ids in graph._incidence
        ]
        self._edge_lookup: Dict[object, int] = dict(graph._edge_lookup)
        # Maintained beside the slots: apply() locates a row without a
        # scan, rows_by_signature() answers without regrouping.
        self._rows: Dict[Signature, List[int]] = graph.rows_by_signature()
        self._live = graph.num_edges
        self.version = graph.version
        self._history: List[Tuple[int, MutationBatch]] = (
            list(graph._history)
            if isinstance(graph, DynamicHypergraph)
            else []
        )

    @classmethod
    def from_hypergraph(cls, graph: Hypergraph) -> "DynamicHypergraph":
        """Promote ``graph`` to a dynamic one, preserving edge ids.

        A :class:`DynamicHypergraph` argument is deep-copied with its
        tombstones and version intact — the row layout is part of the
        graph's identity (indexes, shard ranges and wire masks all
        speak it), so a copy must stay coordinate-compatible with the
        original.  Use :meth:`to_hypergraph` for a dense, tombstone-free
        snapshot instead.
        """
        instance = cls.__new__(cls)
        instance._copy_state(graph)
        return instance

    @classmethod
    def from_slot_state(
        cls,
        graph: Hypergraph,
        *,
        num_slots: int,
        dead: "Dict[int, Signature]",
        version: int,
    ) -> "DynamicHypergraph":
        """Rebuild a dynamic graph from its frozen live content plus
        the tombstone layout — the snapshot-recovery constructor.

        ``graph`` is the dense live snapshot (what
        :meth:`to_hypergraph` froze: live edges renumbered 0..n-1 in
        ascending original-id order), ``dead`` maps each tombstoned
        slot id to the signature it still occupies in the row layout,
        and ``num_slots`` / ``version`` restore the id allocator and
        the mutation counter.  The result is coordinate-identical to
        the graph the snapshot was taken from: same slots, same rows
        per signature, same next edge id — so replayed
        :class:`MutationBatch` es land on the same coordinates.

        Raises :class:`~repro.errors.HypergraphError` when the pieces
        are inconsistent (slot arithmetic, dead ids out of range or
        colliding with live positions).
        """
        if num_slots != graph.num_edges + len(dead):
            raise HypergraphError(
                f"slot arithmetic mismatch: {num_slots} slots cannot "
                f"hold {graph.num_edges} live edges + {len(dead)} "
                f"tombstones"
            )
        if any(not 0 <= slot < num_slots for slot in dead):
            raise HypergraphError(
                f"tombstoned slot id outside 0..{num_slots - 1}"
            )
        instance = cls.__new__(cls)
        instance._labels = list(graph.labels)
        live_ids = [
            slot for slot in range(num_slots) if slot not in dead
        ]
        instance._edges = [None] * num_slots
        instance._signatures = [None] * num_slots
        for dense_id, slot in enumerate(live_ids):
            instance._edges[slot] = graph.edges[dense_id]
            instance._signatures[slot] = graph.edge_signature(dense_id)
        for slot, signature in dead.items():
            instance._signatures[slot] = signature
        # The first signature component of an edge-labelled graph *is*
        # the edge label (see :meth:`apply`), for dead slots too.
        instance._edge_labels = (
            [signature[0] for signature in instance._signatures]
            if graph.is_edge_labelled
            else None
        )
        instance._incidence = [[] for _ in instance._labels]
        for slot in live_ids:
            for vertex in instance._edges[slot]:
                instance._incidence[vertex].append(slot)
        instance._edge_lookup = {
            instance._lookup_key(
                instance._edges[slot], instance.edge_label(slot)
            ): slot
            for slot in live_ids
        }
        instance._rows = Hypergraph.rows_by_signature(instance)
        instance._live = len(live_ids)
        instance.version = version
        instance._history = []
        return instance

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def apply(self, batch: MutationBatch) -> MutationResult:
        """Commit ``batch`` atomically; returns the located changes.

        Validation happens before any state changes, so a rejected
        batch leaves the graph untouched.  Raises
        :class:`~repro.errors.HypergraphError` on a delete of an
        unknown/dead/duplicated edge id, an insert referencing an
        unknown vertex, an empty insert, or an edge-label mismatch with
        the graph's labelled-ness.
        """
        labelled = self._edge_labels is not None
        # -- validate everything up front --------------------------------
        seen_deletes: Set[int] = set()
        for edge_id in batch.deletes:
            if not self.is_live(edge_id):
                raise HypergraphError(
                    f"cannot delete edge {edge_id}: not a live edge"
                )
            if edge_id in seen_deletes:
                raise HypergraphError(
                    f"edge {edge_id} deleted twice in one batch"
                )
            seen_deletes.add(edge_id)
        new_num_vertices = len(self._labels) + len(batch.add_vertices)
        for vertices, label in batch.inserts:
            if not vertices:
                raise HypergraphError("hyperedges must be non-empty")
            for vertex in vertices:
                if not 0 <= vertex < new_num_vertices:
                    raise HypergraphError(
                        f"edge {list(vertices)} references unknown vertex "
                        f"{vertex}"
                    )
            if labelled and label is None:
                raise HypergraphError(
                    "inserts into an edge-labelled hypergraph require an "
                    "edge label"
                )
            if not labelled and label is not None:
                raise HypergraphError(
                    "edge labels are not allowed on an unlabelled hypergraph"
                )

        # -- vertices ----------------------------------------------------
        for label in batch.add_vertices:
            self._labels.append(label)
            self._incidence.append([])

        # -- deletes (tombstone in place: rows never shift) --------------
        deleted: List[EdgeMutation] = []
        for edge_id in batch.deletes:
            vertices = self._edges[edge_id]
            signature = self._signatures[edge_id]
            row = bisect_left(self._rows[signature], edge_id)
            deleted.append(EdgeMutation(edge_id, signature, vertices, row))
            for vertex in vertices:
                incidence = self._incidence[vertex]
                del incidence[bisect_left(incidence, edge_id)]
            del self._edge_lookup[
                self._lookup_key(vertices, self.edge_label(edge_id))
            ]
            self._edges[edge_id] = None
            self._live -= 1

        # -- inserts (fresh max ids: every structure appends) ------------
        inserted: List[EdgeMutation] = []
        skipped: List[Tuple[Tuple[int, ...], "Label | None"]] = []
        for vertices, label in batch.inserts:
            edge = frozenset(vertices)
            key = self._lookup_key(edge, label)
            if key in self._edge_lookup:
                skipped.append((vertices, label))
                continue
            edge_id = len(self._edges)
            signature = signature_of_labels(self._labels[v] for v in edge)
            if labelled:
                signature = (label,) + signature
                self._edge_labels.append(label)
            self._edges.append(edge)
            self._signatures.append(signature)
            for vertex in edge:
                self._incidence[vertex].append(edge_id)
            self._edge_lookup[key] = edge_id
            rows = self._rows.setdefault(signature, [])
            inserted.append(
                EdgeMutation(edge_id, signature, edge, len(rows))
            )
            rows.append(edge_id)
            self._live += 1

        self.version += 1
        self._history.append((self.version, batch))
        if len(self._history) > self.HISTORY_LIMIT:
            del self._history[: len(self._history) - self.HISTORY_LIMIT]
        return MutationResult(self.version, inserted, deleted, skipped)

    #: Committed batches retained in memory for worker catch-up
    #: (:meth:`batches_since`).  Bounded so a long-lived coordinator
    #: cannot grow without limit; a worker staler than the retained
    #: window is caught up with a full snapshot instead.
    HISTORY_LIMIT = 512

    def batches_since(self, version: int) -> "List[Tuple[int, MutationBatch]] | None":
        """The committed ``(version, batch)`` suffix after ``version``.

        Returns every batch needed to roll a copy of this graph forward
        from ``version`` to :attr:`version`, in commit order — the
        coordinator side of the CATCHUP protocol.  Returns an empty
        list when ``version`` is already current, and None when the
        suffix is not fully retained (the history window rolled past
        it, or ``version`` is ahead of this graph) — the caller falls
        back to shipping a snapshot.
        """
        if version == self.version:
            return []
        if version > self.version:
            return None
        suffix = [
            entry for entry in self._history if entry[0] > version
        ]
        if not suffix or suffix[0][0] != version + 1:
            return None
        return suffix

    def rows_by_signature(self) -> Dict[Signature, List[int]]:
        """As the base class's, from the maintained copy: a store build
        over a mutated graph does not regroup every slot."""
        return {
            signature: list(rows) for signature, rows in self._rows.items()
        }

    # ------------------------------------------------------------------
    # What tombstones change of the read interface (live state only)
    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of *live* hyperedges."""
        return self._live

    @property
    def labels(self) -> Tuple[Label, ...]:
        return tuple(self._labels)

    @property
    def edges(self) -> Tuple[FrozenSet[int], ...]:
        """Live hyperedges in ascending edge-id order.

        Positions here are *not* edge ids once anything was deleted;
        use :meth:`edge` for id-addressed access.
        """
        return tuple(edge for edge in self._edges if edge is not None)

    def edge(self, edge_id: int) -> FrozenSet[int]:
        """As the base class's, refusing an unknown or tombstoned id —
        the gate every id-addressed accessor below goes through."""
        try:
            edge = self._edges[edge_id]
        except IndexError:
            raise HypergraphError(f"unknown edge id {edge_id}") from None
        if edge is None:
            raise HypergraphError(f"edge {edge_id} has been deleted")
        return edge

    def edge_signature(self, edge_id: int) -> Signature:
        self.edge(edge_id)
        return self._signatures[edge_id]

    def edge_signatures(self) -> Tuple[Signature, ...]:
        """Signatures of live edges, ascending edge-id order."""
        return tuple(
            signature
            for signature, edge in zip(self._signatures, self._edges)
            if edge is not None
        )

    def edge_label(self, edge_id: int) -> "Label | None":
        self.edge(edge_id)
        if self._edge_labels is None:
            return None
        return self._edge_labels[edge_id]

    def arity(self, edge_id: int) -> int:
        return len(self.edge(edge_id))

    def incident_edges(self, vertex: int) -> Tuple[int, ...]:
        return tuple(self._incidence[vertex])

    def to_hypergraph(self) -> Hypergraph:
        """Freeze the live content into an immutable graph.

        Edge ids are *renumbered dense* — this is the from-scratch
        rebuild the differential oracle compares against, equivalent to
        re-loading the graph's native-text dump.
        """
        live = list(self.live_edge_ids())
        return Hypergraph(
            self._labels,
            [self._edges[edge_id] for edge_id in live],
            edge_labels=(
                None
                if self._edge_labels is None
                else [self._edge_labels[edge_id] for edge_id in live]
            ),
        )

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __getstate__(self):
        """Pickle without the catch-up history.

        Shipped copies (worker spawns, CATCHUP snapshots) only need the
        graph state itself: the receiving side is the *target* of
        catch-up, never a source, and the history can be the biggest
        part of a long-lived graph's footprint.
        """
        state = {name: getattr(self, name) for name in Hypergraph.__slots__}
        state.update(self.__dict__, _history=[])
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def __repr__(self) -> str:
        return (
            f"DynamicHypergraph(|V|={self.num_vertices}, "
            f"|E|={self.num_edges}, slots={self.num_slots}, "
            f"v{self.version})"
        )


def apply_batch(store, batch: MutationBatch):
    """Commit ``batch`` to ``store`` and the graph it is built over;
    returns ``(graph, result)`` — the graph is the store's, promoted.

    The one write path: a still-immutable graph is promoted first (the
    only promotion outside snapshot recovery — edge ids and row layouts
    are preserved, so the store adopts the promoted graph without
    rebuilding), then :meth:`DynamicHypergraph.apply` commits and
    :meth:`~repro.hypergraph.storage.PartitionedStore.
    apply_mutation_result` maintains every touched partition.  What a
    caller caches *about* the store — anchor-union memos — covers the
    old rows and is the caller's to clear.
    """
    graph = store.graph
    if not isinstance(graph, DynamicHypergraph):
        graph = DynamicHypergraph.from_hypergraph(graph)
        store.adopt_graph(graph)
    result = graph.apply(batch)
    store.apply_mutation_result(result)
    return graph, result

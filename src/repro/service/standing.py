"""Standing queries: exact match deltas over committed mutations.

A standing query is a registered pattern whose full match set the
service keeps current across graph mutations.  When a mutation batch
commits, the subscriber receives a :class:`MatchDelta` — the *exact*
set of embeddings that appeared and disappeared — instead of having to
re-run the query and diff.

Exactness rides on the monotonicity of the matching semantics: a
subhypergraph embedding is a conjunction of per-edge constraints, so

* an embedding dies **iff** it uses a deleted data edge — ``removed``
  is plain set algebra over the old match set, no re-enumeration;
* an embedding is born **iff** it uses at least one inserted data edge
  — ``added`` is enumerated by re-rooting the matching order at each
  query edge (the *pivot*) and restricting step 0's candidates to the
  inserted edges, so the search explores only subtrees that touch new
  rows.  A match containing several inserted edges is found once per
  inserted pivot binding; the canonical-tuple set dedupes.

Both directions compare embeddings by :meth:`Embedding.canonical`
(data edge ids keyed by query edge id), which is independent of the
matching order used to find them — the same identity the differential
tests use to compare engines.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from typing import Callable, FrozenSet, List, Optional, Sequence, Set, Tuple

logger = logging.getLogger("repro.service")


class MatchDelta:
    """The exact change to one standing query's match set.

    ``added`` and ``removed`` are sorted tuples of canonical embeddings
    (each a tuple of data edge ids indexed by query edge id).  A commit
    that leaves the query's subgraph untouched still emits a delta —
    with both sides empty — so subscribers observe every version bump.
    """

    __slots__ = ("query_id", "version", "added", "removed")

    def __init__(self, query_id: int, version: int,
                 added: Sequence[Tuple[int, ...]],
                 removed: Sequence[Tuple[int, ...]]) -> None:
        self.query_id = query_id
        self.version = version
        self.added = tuple(sorted(added))
        self.removed = tuple(sorted(removed))

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatchDelta):
            return NotImplemented
        return (
            self.query_id == other.query_id
            and self.version == other.version
            and self.added == other.added
            and self.removed == other.removed
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchDelta(query_id={self.query_id}, "
            f"version={self.version}, +{len(self.added)}, "
            f"-{len(self.removed)})"
        )

    def to_json(self) -> dict:
        """The daemon's wire shape for one delta event."""
        return {
            "query_id": self.query_id,
            "version": self.version,
            "added": [list(match) for match in self.added],
            "removed": [list(match) for match in self.removed],
        }


def connected_order_from(query, start: int) -> Tuple[int, ...]:
    """A BFS matching order over ``query``'s edges rooted at ``start``.

    Every edge after the first shares a vertex with an earlier edge —
    the connectivity invariant matching orders require.  Components
    unreachable from ``start`` (a disconnected query) are appended as
    their own BFS runs, mirroring how the planner treats such orders.
    """
    num_edges = query.num_edges
    if not 0 <= start < num_edges:
        raise ValueError(f"pivot {start} out of range for {num_edges} edges")
    # vertex → incident query edges, for edge-adjacency expansion.
    order: List[int] = []
    visited: Set[int] = set()
    pending = deque([start])
    roots = itertools.chain([start], range(num_edges))
    while len(order) < num_edges:
        if not pending:
            pending.append(
                next(e for e in roots if e not in visited)
            )
        edge_id = pending.popleft()
        if edge_id in visited:
            continue
        visited.add(edge_id)
        order.append(edge_id)
        for vertex in query.edge(edge_id):
            for neighbour in query.incident_edges(vertex):
                if neighbour not in visited:
                    pending.append(neighbour)
    return tuple(order)


def enumerate_added(engine, query, inserted: "FrozenSet[int] | Set[int]",
                    ) -> Set[Tuple[int, ...]]:
    """All canonical embeddings of ``query`` using an inserted edge.

    Re-roots the matching order at every query edge and restricts step
    0 to ``inserted`` — each new match binds an inserted data edge at
    *some* query position, so the pivot sweep is exhaustive, and the
    canonical set dedupes matches containing several inserted edges.
    """
    added: Set[Tuple[int, ...]] = set()
    if not inserted:
        return added
    for pivot in range(query.num_edges):
        order = connected_order_from(query, pivot)
        for embedding in engine.match(
            query, order=order, first_edges=inserted
        ):
            added.add(embedding.canonical())
    return added


class StandingQuery:
    """One registered standing query and its current match set.

    The service owns the lifecycle: :meth:`MatchService
    .register_standing` seeds :attr:`matches` with a full enumeration,
    and every committed mutation batch calls :meth:`commit` exactly
    once.  The one way out for a delta is the optional ``callback``,
    invoked synchronously inside the commit (so it must be quick and
    must not mutate the graph); :meth:`close` makes one final
    ``callback(None)`` to end the stream.  Nothing is retained for a
    reader: a registration without a callback only keeps its match set
    current.  A callback that raises is logged on the ``repro.service``
    logger and fails neither the commit nor the other registrations.
    """

    def __init__(self, query_id: int, query,
                 order: "Sequence[int] | None" = None,
                 callback: "Callable[[Optional[MatchDelta]], None] | None"
                 = None,
                 ) -> None:
        self.query_id = query_id
        self.query = query
        self.order = None if order is None else tuple(order)
        self.matches: Set[Tuple[int, ...]] = set()
        self.version = 0
        self.closed = False
        self._callback = callback

    def seed(self, engine, version: int) -> None:
        """Full enumeration establishing the initial match set."""
        self.matches = {
            embedding.canonical()
            for embedding in engine.match(self.query, order=self.order)
        }
        self.version = version

    def commit(self, engine, result) -> None:
        """Apply one committed mutation and deliver its delta.

        ``result`` is the :class:`~repro.hypergraph.dynamic
        .MutationResult` the engine produced.  ``removed`` is set
        algebra over the old matches; ``added`` re-enumerates only from
        the inserted edges (see :func:`enumerate_added`).
        """
        deleted = {mutation.edge_id for mutation in result.deleted}
        inserted = {mutation.edge_id for mutation in result.inserted}
        removed = {
            match for match in self.matches
            if deleted and not deleted.isdisjoint(match)
        }
        added = enumerate_added(engine, self.query, inserted)
        self.matches = (self.matches - removed) | added
        self.version = result.version
        self._deliver(
            MatchDelta(self.query_id, result.version, added, removed)
        )

    def close(self) -> None:
        """End the stream: the callback's final call is ``None``."""
        if not self.closed:
            self.closed = True
            self._deliver(None)

    def _deliver(self, delta: "MatchDelta | None") -> None:
        if self._callback is None:
            return
        try:
            self._callback(delta)
        except Exception:
            # The commit has happened (applied, journalled, sent to
            # the pool): a subscriber's failure must not undo or stall
            # it, nor the registrations committed after this one.
            logger.exception(
                "standing query %d: callback failed at version %d",
                self.query_id, self.version,
            )

"""Execution plans: the per-step precomputation for match-by-hyperedge.

HGMatch's plan generator (Fig. 3) turns a query hypergraph into an
:class:`ExecutionPlan` — a matching order plus, for every step, all the
query-side information Algorithms 4 and 5 consult at runtime:

* the step's hyperedge signature (which data partition to probe),
* which previous steps are adjacent / non-adjacent (Observations V.2, V.3),
* the *anchor requirements*: for each previous adjacent hyperedge ``e``
  and shared query vertex ``u ∈ e ∩ e_q``, the label and partial-query
  degree ``d_q'(u)`` that a matching data vertex must reproduce
  (Observation V.4),
* the expected total vertex count after the step (Observation V.5), and
* the shared-vertex projection of the step's query vertex profiles
  that validation compares (Theorem V.2; the full multiset of profiles
  is only the reference validator's, :func:`repro.testing.query_profile`).

All of this depends only on the query and the matching order, so it is
computed once and shared by every task that expands that step — tasks
themselves carry nothing but a tuple of matched data-hyperedge ids.
The plan is the online stage's cheap half: it is built in one pass over
the order, keeping one bitmask of steps per query vertex, and its
records are named tuples — immutable, and built at the cost of a tuple.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from ..hypergraph import Hypergraph, Signature


class AnchorRequirement(NamedTuple):
    """One (previous step, shared vertex) pair for candidate generation.

    A candidate data hyperedge for the current step must be incident to a
    vertex of ``f(ϕ[prev_step])`` whose label is ``label`` and whose
    degree inside the partial embedding equals ``required_degree``.
    """

    prev_step: int
    query_vertex: int
    label: object
    required_degree: int


class StepPlan(NamedTuple):
    """Everything Algorithms 4 and 5 need to expand one matching step."""

    step: int
    query_edge_id: int
    signature: Signature
    adjacent_prev: Tuple[int, ...]
    nonadjacent_prev: Tuple[int, ...]
    #: Sorted by ``(prev_step, query_vertex)``.
    anchors: Tuple[AnchorRequirement, ...]
    expected_num_vertices: int
    #: Number of vertices of the query hyperedge (signatures of
    #: edge-labelled graphs carry one extra leading entry, so this is
    #: not always ``len(signature)``).
    arity: int
    #: ``query label -> small int`` over the labels of this hyperedge.
    profile_label_ids: Mapping[object, int]
    #: What validation compares (Algorithm 5 over the shared vertices
    #: only): the sorted ``(label id, earlier-step bitmask)`` pairs of the
    #: query vertices of this hyperedge that an earlier step already
    #: covers — bit ``s`` set iff the vertex occurs in step ``s < step``.
    #: Its length is the shared-vertex count Observation V.5 demands; the
    #: uncovered vertices all carry the profile ``(label, {step})`` and
    #: are settled by the signature (Observation V.1).
    shared_profile_key: Tuple[Tuple[int, int], ...]
    #: The same multiset as exact counts, for the set-algebra kernel
    #: (:func:`repro.core.validation.validate_mask`): each distinct
    #: ``(label, earlier-step bitmask)`` profile of the key — keyed by the
    #: query *label* itself, so a data vertex is classified in one lookup
    #: — maps to a class number, and ``shared_class_counts[class]`` is how
    #: many vertices of the hyperedge carry that profile.
    shared_profile_classes: Mapping[Tuple[object, int], int]
    shared_class_counts: Tuple[int, ...]


class ExecutionPlan(NamedTuple):
    """A complete plan: matching order plus one :class:`StepPlan` per step."""

    query: Hypergraph
    order: Tuple[int, ...]
    steps: Tuple[StepPlan, ...]
    estimated_start_cardinality: int = 0
    #: Posting-list representation of the store the plan was built
    #: against (informational; candidate generation dispatches on the
    #: partition's own index at runtime).
    index_backend: str = "merge"

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def describe(self) -> str:
        """Human-readable plan summary (used by examples and --explain)."""
        lines = [
            f"ExecutionPlan over {self.query!r} "
            f"(index backend: {self.index_backend})"
        ]
        for step in self.steps:
            edge = sorted(self.query.edge(step.query_edge_id))
            kind = "SCAN" if step.step == 0 else "EXPAND"
            lines.append(
                f"  [{step.step}] {kind} query edge {step.query_edge_id} "
                f"{edge} signature={step.signature} "
                f"adj={list(step.adjacent_prev)}"
            )
        lines.append("  [sink] SINK")
        return "\n".join(lines)


def build_execution_plan(
    query: Hypergraph,
    order: Sequence[int],
    start_cardinality: int = 0,
    index_backend: str = "merge",
) -> ExecutionPlan:
    """Precompute the :class:`ExecutionPlan` for ``query`` under ``order``.

    One pass over the order: ``seen`` maps every query vertex met so far
    to the bitmask of the steps whose hyperedge contains it, so at each
    step a vertex's earlier-step mask is one lookup — its set bits are
    the vertex's anchors, their count its partial-query degree.  The
    order is not checked here (:meth:`repro.core.engine.HGMatch.plan`
    reads connectivity off the result).
    """
    order = tuple(order)
    edges = query.edges
    labels = query.labels
    signatures = query.edge_signatures()
    seen: Dict[int, int] = {}
    steps: List[StepPlan] = []
    for step, edge_id in enumerate(order):
        edge = edges[edge_id]
        bit = 1 << step
        adjacent = 0
        label_ids: Dict[object, int] = {}
        shared: List[Tuple[int, int]] = []
        classes: Dict[Tuple[object, int], int] = {}
        anchors: List[AnchorRequirement] = []
        for vertex in edge:
            label = labels[vertex]
            label_id = label_ids.setdefault(label, len(label_ids))
            earlier = seen.get(vertex, 0)
            seen[vertex] = earlier | bit
            if not earlier:
                continue
            adjacent |= earlier
            shared.append((label_id, earlier))
            key = (label, earlier)
            classes[key] = classes.get(key, 0) + 1
            # Degree of the query vertex within the partial query
            # *before* this step (Observation V.4 / Algorithm 4, L5).
            degree = earlier.bit_count()
            while earlier:
                low = earlier & -earlier
                anchors.append(AnchorRequirement(
                    low.bit_length() - 1, vertex, label, degree
                ))
                earlier ^= low
        anchors.sort()  # (prev_step, query_vertex) pairs are unique
        shared.sort()
        steps.append(StepPlan(
            step,
            edge_id,
            signatures[edge_id],
            tuple(s for s in range(step) if adjacent >> s & 1),
            tuple(s for s in range(step) if not adjacent >> s & 1),
            tuple(anchors),
            len(seen),
            len(edge),
            label_ids,
            tuple(shared),
            {profile: number for number, profile in enumerate(classes)},
            tuple(classes.values()),
        ))
    return ExecutionPlan(
        query, order, tuple(steps), start_cardinality, index_backend
    )

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
* the multiset of query vertex profiles for validation (Theorem V.2),
  plus its shared-vertex projection that validation actually compares.

All of this depends only on the query and the matching order, so it is
computed once and shared by every task that expands that step — tasks
themselves carry nothing but a tuple of matched data-hyperedge ids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from ..hypergraph import Hypergraph, Signature

@dataclass(frozen=True)
class AnchorRequirement:
    """One (previous step, shared vertex) pair for candidate generation.

    A candidate data hyperedge for the current step must be incident to a
    vertex of ``f(ϕ[prev_step])`` whose label is ``label`` and whose
    degree inside the partial embedding equals ``required_degree``.
    """

    prev_step: int
    query_vertex: int
    label: object
    required_degree: int


@dataclass(frozen=True)
class StepPlan:
    """Everything Algorithms 4 and 5 need to expand one matching step."""

    step: int
    query_edge_id: int
    signature: Signature
    adjacent_prev: Tuple[int, ...]
    nonadjacent_prev: Tuple[int, ...]
    anchors: Tuple[AnchorRequirement, ...]
    expected_num_vertices: int
    #: Multiset of query vertex profiles for the step's hyperedge:
    #: ``(label, frozenset of incident step indices including this step)``.
    query_profile: "Counter[Tuple[object, FrozenSet[int]]]"
    #: Number of vertices of the query hyperedge (signatures of
    #: edge-labelled graphs carry one extra leading entry, so this is
    #: not always ``len(signature)``).
    arity: int = 0
    #: ``query label -> small int`` over the labels of this hyperedge.
    profile_label_ids: Mapping[object, int] = field(default_factory=dict)
    #: What validation compares (Algorithm 5 over the shared vertices
    #: only): the sorted ``(label id, earlier-step bitmask)`` pairs of the
    #: query vertices of this hyperedge that an earlier step already
    #: covers — bit ``s`` set iff the vertex occurs in step ``s < step``.
    #: Its length is the shared-vertex count Observation V.5 demands; the
    #: uncovered vertices all carry the profile ``(label, {step})`` and
    #: are settled by the signature (Observation V.1).
    shared_profile_key: Tuple[Tuple[int, int], ...] = ()
    #: The same multiset as exact counts, for the set-algebra kernel
    #: (:func:`repro.core.validation.validate_mask`): each distinct
    #: ``(label, earlier-step bitmask)`` profile of the key — keyed by the
    #: query *label* itself, so a data vertex is classified in one lookup
    #: — maps to a class number, and ``shared_class_counts[class]`` is how
    #: many vertices of the hyperedge carry that profile.
    shared_profile_classes: Mapping[Tuple[object, int], int] = field(
        default_factory=dict
    )
    shared_class_counts: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ExecutionPlan:
    """A complete plan: matching order plus one :class:`StepPlan` per step."""

    query: Hypergraph
    order: Tuple[int, ...]
    steps: Tuple[StepPlan, ...]
    estimated_start_cardinality: int = 0
    #: Sorted tuple of query vertices in order of first appearance, kept
    #: for embedding expansion back to vertex mappings.
    vertex_arrival: Tuple[int, ...] = field(default=())
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
    """Precompute the :class:`ExecutionPlan` for ``query`` under ``order``."""
    order = tuple(order)
    # vertex -> set of step indices whose query hyperedge contains it
    incident_steps: Dict[int, Set[int]] = {}
    for step, edge_id in enumerate(order):
        for vertex in query.edge(edge_id):
            incident_steps.setdefault(vertex, set()).add(step)

    steps: List[StepPlan] = []
    covered: Set[int] = set()
    arrival: List[int] = []
    for step, edge_id in enumerate(order):
        edge = query.edge(edge_id)
        adjacent: List[int] = []
        nonadjacent: List[int] = []
        for prev in range(step):
            prev_edge = query.edge(order[prev])
            if prev_edge & edge:
                adjacent.append(prev)
            else:
                nonadjacent.append(prev)

        anchors: List[AnchorRequirement] = []
        for prev in adjacent:
            prev_edge = query.edge(order[prev])
            for vertex in sorted(prev_edge & edge):
                # Degree of the query vertex within the partial query
                # *before* this step (Observation V.4 / Algorithm 4, L5).
                degree_before = sum(
                    1 for s in incident_steps[vertex] if s < step
                )
                anchors.append(
                    AnchorRequirement(
                        prev_step=prev,
                        query_vertex=vertex,
                        label=query.label(vertex),
                        required_degree=degree_before,
                    )
                )

        profile: Counter = Counter()
        label_ids: Dict[object, int] = {}
        shared_entries: List[Tuple[int, int]] = []
        shared_classes: "Counter[Tuple[object, int]]" = Counter()
        for vertex in edge:
            incident_upto = frozenset(
                s for s in incident_steps[vertex] if s <= step
            )
            label = query.label(vertex)
            profile[(label, incident_upto)] += 1
            label_id = label_ids.setdefault(label, len(label_ids))
            if len(incident_upto) > 1:
                earlier = sum(1 << s for s in incident_upto if s < step)
                shared_entries.append((label_id, earlier))
                shared_classes[(label, earlier)] += 1

        new_vertices = edge - covered
        covered |= edge
        arrival.extend(sorted(new_vertices))

        steps.append(
            StepPlan(
                step=step,
                query_edge_id=edge_id,
                signature=query.edge_signature(edge_id),
                adjacent_prev=tuple(adjacent),
                nonadjacent_prev=tuple(nonadjacent),
                anchors=tuple(anchors),
                expected_num_vertices=len(covered),
                query_profile=profile,
                arity=len(edge),
                profile_label_ids=label_ids,
                shared_profile_key=tuple(sorted(shared_entries)),
                shared_profile_classes={
                    profile: number
                    for number, profile in enumerate(shared_classes)
                },
                shared_class_counts=tuple(shared_classes.values()),
            )
        )

    return ExecutionPlan(
        query=query,
        order=order,
        steps=tuple(steps),
        estimated_start_cardinality=start_cardinality,
        vertex_arrival=tuple(arrival),
        index_backend=index_backend,
    )

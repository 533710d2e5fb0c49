"""Algorithms 4 and 5 batched over a whole frontier (the row-scan
orientation of the set algebra in :mod:`repro.core.validation`).

The per-parent kernels (:func:`expand_parent`: :func:`~repro.core.candidates.
generate_candidate_set` + :func:`~repro.core.validation.validate_mask`)
hold one parent fixed and run a pass over ``V(partial)`` against *row*
masks: ``O(|V(partial)|)`` interpreter iterations per parent whatever the
partition's size.  Whoever holds a block of same-depth parents — a
level-synchronous shard worker, the engine's block-DFS — can run the
transposed join instead: index the frontier, scan the rows.
:func:`expand_block` is the one place that chooses between the two.

For a block of ``n`` parents at step ``k`` the **frontier index** holds,
per data vertex ``v`` of the partition and step ``j < k``, the ``n``-bit
plane ``C_j(v)`` of the parents whose step-``j`` hyperedge contains
``v``.  Splitting the block by those planes gives, per vertex, the few
disjoint planes "``v`` occurs in exactly the steps ``M``" —
``AND_{j∈M} C_j(v) & ~OR_{j∉M} C_j(v)`` — and everything the per-parent
kernels read off a ``vertex_step_map`` is a union of them, derived once
per vertex:

* ``covered(v)``, the parents with ``v ∈ V(partial)``: every ``M ≠ 0``;
* the profile class planes of Theorem V.2: the ``M`` of each class
  ``(label(v), M)`` of the step's key; ``covered`` minus those is
  ``foreign``;
* Algorithm 4's anchor filter (lines 4-5): the ``M`` that contain the
  anchor's previous step, no step the new hyperedge is not adjacent to
  (Observation V.3) and exactly ``required_degree`` steps (V.4).

Each live row ``r`` of the partition is then probed once: the parents
for which ``r`` is an Algorithm 4 candidate are
``AND_anchors OR_{v∈r} anchor_plane(v)``, and Algorithm 5 is
``validate_mask`` verbatim over parent bits — ``foreign``, the exact
per-class counts from running planes, the bit-sliced
``|r ∩ V(partial)|`` for Observation V.5's counters.  A level costs
``O(rows × arity + n·k)`` big-int operations instead of
``O(n × |V(partial)|)`` interpreter iterations, with the same survivors
and the same ``candidates`` / ``filtered`` / ``final_*`` counters.

Precondition (what the coordinator loop composes, by induction over
Observation V.5): every parent is a partial embedding of the plan's first
``k`` steps, so each covers exactly
``plan.steps[k-1].expected_num_vertices`` vertices — the kernel reads
``|V(partial)|`` from the plan where the per-parent kernel measures it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from ..hypergraph import Hypergraph
from ..hypergraph.storage import HyperedgePartition
from .candidates import (
    AnchorUnionMemo,
    CandidateSet,
    MaskCandidates,
    VertexStepState,
    generate_candidate_set,
)
from .counters import MatchCounters
from .plan import ExecutionPlan, StepPlan
from .validation import _add_plane, _rows_counting, validate_candidate_set

#: Parents per frontier index.  A plane is a ``FRONTIER_BLOCK``-bit int
#: however few parents cover its vertex, so the block size bounds the
#: index at (vertices of the partition) × k planes of 128 bytes; the row
#: scan repeats per block, which the orientation inequality charges for.
FRONTIER_BLOCK = 1024


#: What setting a frontier index up costs before the first parent or row
#: is touched (label tables, dicts), in the inequality's unit; it keeps
#: one- and two-parent frontiers on the per-parent kernels.
_INDEX_SETUP = 16


def block_limit(index_backend: str) -> int:
    """Parents a depth-first caller hands :func:`expand_block` at a
    time: a block where the scan orientation exists, else one task."""
    return FRONTIER_BLOCK if index_backend == "bitset" else 1


def frontier_blocks(frontier: Sequence) -> "Iterator[Sequence]":
    """A level's frontier as :func:`expand_block`-sized slices."""
    for low in range(0, len(frontier), FRONTIER_BLOCK):
        yield frontier[low:low + FRONTIER_BLOCK]


def batched_is_cheaper(
    plan, step: int, num_parents: int, live_rows: int
) -> bool:
    """The orientation choice — index nested loop vs scan — counted in
    interpreter iterations: the per-parent kernels walk ``V(partial)``
    once per parent; the batched one sets an index up, touches each
    parent once per step to fill it and walks every live row's vertices
    once per block of the frontier.  Step 0 (no anchors: every row is a
    candidate of the one root parent) has nothing to index.
    """
    step_plan = plan.steps[step]
    if not step_plan.anchors:
        return False
    blocks = -(-num_parents // FRONTIER_BLOCK)
    per_parent = num_parents * plan.steps[step - 1].expected_num_vertices
    batched = (
        blocks * (_INDEX_SETUP + live_rows * step_plan.arity)
        + num_parents * step
    )
    return batched < per_parent


def _exact_step_planes(masks: Sequence[int], everyone: int) -> Dict[int, int]:
    """Split the block's parents by the exact set of steps whose edge
    holds one vertex: ``{step bitmask M: parents with exactly M}`` from
    the per-step planes ``masks[j]``, uncovered parents (``M == 0``)
    dropped.  The planes are disjoint and few — one per distinct way the
    frontier covers the vertex."""
    exact = {0: everyone}
    for j, mask in enumerate(masks):
        if not mask:
            continue
        split: Dict[int, int] = {}
        for steps, plane in exact.items():
            inside = plane & mask
            if inside:
                split[steps | 1 << j] = inside
                plane ^= inside
            if plane:
                split[steps] = plane
        exact = split
    exact.pop(0, None)
    return exact


def expand_block(
    graph: Hypergraph,
    partition: HyperedgePartition,
    plan: ExecutionPlan,
    step: int,
    parents: Sequence[Tuple[int, ...]],
    state: VertexStepState,
    counters: "MatchCounters | None",
    memo: "AnchorUnionMemo | None",
    want_sets: bool = True,
) -> "Tuple[int, List[CandidateSet] | None]":
    """The one block step: expand at most :data:`FRONTIER_BLOCK`
    partial embeddings of the plan's first ``step`` steps against
    ``partition`` (the step's signature partition, whole or a shard's
    rows of it) in whichever orientation costs less — the only place one
    is chosen; the engine's block-DFS and BFS loops and the shard
    worker's ``expand_level`` all come through here.

    Returns ``(accepted, sets)``: the number of accepted (parent, data
    hyperedge) pairs and one accepted :class:`CandidateSet` per parent
    (``None`` with ``want_sets=False``, for callers that only count the
    last level).  ``state`` is the caller's running
    :class:`VertexStepState`, advanced from parent to parent by the
    per-parent orientation; ``counters`` may be None.
    """
    step_plan = plan.steps[step]
    final = step == plan.num_steps - 1
    index = partition.index
    if getattr(index, "backend", "merge") == "bitset" and batched_is_cheaper(
        plan, step, len(parents), partition.cardinality
    ):
        accepted, row_masks = scan_rows(
            graph, partition, step_plan, parents, counters, final, want_sets
        )
        if row_masks is None:
            return accepted, None
        return accepted, [MaskCandidates(index, mask) for mask in row_masks]
    accepted = 0
    sets: "List[CandidateSet] | None" = [] if want_sets else None
    step_masks = state.step_masks
    for parent in parents:
        survivors = expand_parent(
            graph, partition, step_plan, parent, state.advance(parent),
            step_masks, counters, memo, final,
        )
        accepted += len(survivors)
        if want_sets:
            sets.append(survivors)
    return accepted, sets


def expand_parent(
    graph, partition, step_plan: StepPlan, parent, vmap, step_masks,
    counters, memo, final_step: bool,
) -> CandidateSet:
    """The per-parent orientation: Algorithm 4's candidate set of one
    parent (``vmap`` / ``step_masks``: its ``vertex_step_map`` and step
    bitmasks) filtered by one Algorithm 5 kernel call."""
    candidates = generate_candidate_set(
        graph, partition, step_plan, parent, vmap, counters, memo=memo
    )
    if final_step and counters is not None:
        counters.final_candidates += len(candidates)
    return validate_candidate_set(
        graph, step_plan, step_masks, candidates, counters, final_step
    )


def scan_rows(
    graph: Hypergraph,
    partition: HyperedgePartition,
    step_plan: StepPlan,
    parents: Sequence[Tuple[int, ...]],
    counters: "MatchCounters | None",
    final_step: bool,
    want_masks: bool,
) -> "Tuple[int, List[int] | None]":
    """Expand one block of parents against every live row of
    ``partition``.

    Returns ``(accepted, row_masks)``: the number of accepted
    (parent, row) pairs and — when ``want_masks`` — one accepted *row*
    mask per parent, the same mask ``validate_mask`` returns for it.
    ``final_step`` only says whether the ``final_*`` funnel counters are
    charged.  ``parents`` are partial embeddings of the plan's first
    ``step_plan.step`` steps (see the module docstring), at most
    :data:`FRONTIER_BLOCK` of them.

    Cost model (``mask-ops``): one work unit per parent bit written into
    the index, per vertex plane a distinct frontier edge is OR-ed into,
    per step plane read when a vertex's planes are derived, and per
    vertex of every live row probed — nothing per candidate.
    """
    num_steps = step_plan.step
    edge_of = graph.edge
    label_of = graph.label
    everyone = (1 << len(parents)) - 1

    # The frontier index, over the partition's own vertices only (no row
    # probes any other): step_planes[j][v] = parents whose step-j edge
    # holds v.
    probed = partition.index.vertices()
    step_planes: List[Dict[int, int]] = []
    work = len(parents) * num_steps
    for column in zip(*parents):
        by_edge: Dict[int, int] = {}
        bit = 1
        for edge_id in column:
            by_edge[edge_id] = by_edge.get(edge_id, 0) | bit
            bit <<= 1
        by_vertex: Dict[int, int] = {}
        for edge_id, plane in by_edge.items():
            vertices = edge_of(edge_id) & probed
            work += len(vertices)
            for vertex in vertices:
                by_vertex[vertex] = by_vertex.get(vertex, 0) | plane
        step_planes.append(by_vertex)

    anchors_by_label: Dict[object, List[Tuple[int, int, int]]] = {}
    for number, anchor in enumerate(step_plan.anchors):
        anchors_by_label.setdefault(anchor.label, []).append(
            (number, anchor.prev_step, anchor.required_degree)
        )
    classes_by_label: Dict[object, List[Tuple[int, int]]] = {}
    for (label, steps), number in step_plan.shared_profile_classes.items():
        classes_by_label.setdefault(label, []).append((number, steps))
    barred = 0  # Observation V.3: steps whose vertices no anchor may use
    for j in step_plan.nonadjacent_prev:
        barred |= 1 << j

    # Per covered vertex, what the per-parent kernels read off a
    # vertex_step_map, as planes of parent bits: (covered, foreign,
    # [(anchor, plane)], [(profile class, plane)]).
    planes: Dict[int, tuple] = {}
    for vertex in set().union(*step_planes):
        exact = _exact_step_planes(
            [plane.get(vertex, 0) for plane in step_planes], everyone
        )
        label = label_of(vertex)
        anchor_planes = []
        for number, prev_step, degree in anchors_by_label.get(label, ()):
            plane = 0
            for steps, holders in exact.items():
                if (
                    steps >> prev_step & 1
                    and not steps & barred
                    and steps.bit_count() == degree
                ):
                    plane |= holders
            if plane:
                anchor_planes.append((number, plane))
        covered = 0
        for holders in exact.values():
            covered |= holders
        foreign = covered
        class_planes = []
        for number, steps in classes_by_label.get(label, ()):
            holders = exact.get(steps)
            if holders:
                class_planes.append((number, holders))
                foreign ^= holders
        planes[vertex] = (covered, foreign, anchor_planes, class_planes)
    work += num_steps * len(planes)

    num_anchors = len(step_plan.anchors)
    class_counts = step_plan.shared_class_counts
    # Observation V.5 on parents that are partial embeddings: each covers
    # len(key) + expected - arity vertices, so need_shared == len(key).
    need_shared = len(step_plan.shared_profile_key)
    slot_vertices = graph.slot_vertices
    row_masks: "List[int] | None" = [0] * len(parents) if want_masks else None
    candidates = passed = accepted_total = 0
    for row, edge_id in enumerate(partition.row_ids):
        vertices = slot_vertices(edge_id)
        if vertices is None:  # tombstoned slot: the row exists, no edge does
            continue
        work += len(vertices)
        seen = [planes[vertex] for vertex in vertices if vertex in planes]
        # Algorithm 4: the parents whose every anchor has an image in r.
        unions = [0] * num_anchors
        for entry in seen:
            for number, plane in entry[2]:
                unions[number] |= plane
        cand = everyone
        for union in unions:
            cand &= union
        if not cand:
            continue
        candidates += cand.bit_count()
        # Algorithm 5: validate_mask over parent bits.
        foreign = 0
        counts = [[0] * (count + 1) for count in class_counts]
        # Bit-sliced |r ∩ V(partial)|, for Observation V.5's counters only.
        shared: List[int] = []
        for covered, alien, _, class_planes in seen:
            covered &= cand
            if not covered:
                continue
            foreign |= alien
            for number, holders in class_planes:
                plane = counts[number]
                for j in range(len(plane) - 1, 0, -1):
                    plane[j] |= plane[j - 1] & holders
                plane[0] |= holders
            if counters is not None:
                _add_plane(shared, covered)
        if counters is not None:
            passed += _rows_counting(cand, shared, need_shared).bit_count()
        accepted = cand & ~foreign
        for plane, count in zip(counts, class_counts):
            accepted &= plane[count - 1] & ~plane[count]
        if not accepted:
            continue
        accepted_total += accepted.bit_count()
        if row_masks is not None:
            row_bit = 1 << row
            while accepted:
                low = accepted & -accepted
                row_masks[low.bit_length() - 1] |= row_bit
                accepted ^= low

    if counters is not None:
        counters.candidates += candidates
        counters.filtered += passed
        counters.work_units += work
        if final_step:
            counters.final_candidates += candidates
            counters.final_filtered += passed
    return accepted_total, row_masks

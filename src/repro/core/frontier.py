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

A **block** of ``n`` same-depth parents at step ``k`` is ``k`` columns
of data-edge ids (``cols[j][i]``: the step-``j`` edge of parent ``i``;
the root block is ``([], 1)``), never a tuple per parent: a child block
repeats each parent's entries once per child and appends the decoded
edges as a new column, so every column but the last is runs of one
edge.  On the bitset backend accepted sets are raw row masks, one int
per parent, decoded (:func:`decoder`) only where children or embeddings
are built.

For a block at step ``k`` the **frontier index** holds, per data vertex
``v`` of the partition and step ``j < k``, the ``n``-bit plane
``C_j(v)`` of the parents whose step-``j`` hyperedge contains ``v`` (a
run of one edge is a shifted all-ones plane).  Splitting the block by
those planes gives, per vertex, the few disjoint planes "``v`` occurs in
exactly the steps ``M``" — ``AND_{j∈M} C_j(v) & ~OR_{j∉M} C_j(v)`` — and
everything the per-parent kernels read off a ``vertex_step_map`` is a
union of them, what each ``(label(v), M)`` means tabulated once per scan:

* ``covered(v)``, the parents with ``v ∈ V(partial)``: the OR of the
  step planes;
* the profile class planes of Theorem V.2: ``(label(v), M)`` is a class
  of the step's key or not; ``covered`` minus the classes' planes is
  ``foreign``;
* Algorithm 4's anchor filter (lines 4-5): the anchors ``M`` satisfies —
  it contains the anchor's previous step, no step the new hyperedge is
  not adjacent to (Observation V.3) and exactly ``required_degree``
  steps (V.4).

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

from itertools import chain, compress, islice, repeat
from operator import methodcaller, ne
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from ..hypergraph import Hypergraph
from ..hypergraph.storage import HyperedgePartition
from .candidates import (
    AnchorUnionMemo,
    CandidateSet,
    VertexStepState,
    candidate_mask,
    generate_candidate_set,
)
from .counters import MatchCounters
from .plan import ExecutionPlan, StepPlan
from .validation import (
    _add_plane,
    _rows_counting,
    validate_candidate_set,
    validate_mask,
)

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


def frontier_blocks(cols: Sequence[Sequence[int]], n: int) -> Iterator[tuple]:
    """A level's frontier of ``n`` parents, as columns, in
    :func:`expand_block`-sized blocks."""
    for low in range(0, n, FRONTIER_BLOCK):
        high = min(low + FRONTIER_BLOCK, n)
        yield [column[low:high] for column in cols], high - low


def block_parents(cols: Sequence[Sequence[int]], n: int) -> Iterable[Tuple[int, ...]]:
    """The block's parents as tuples, first to last."""
    return zip(*cols) if cols else repeat((), n)


def decoder(partition: HyperedgePartition) -> Callable[[object], Tuple[int, ...]]:
    """What turns one accepted set :func:`expand_block` returns for
    ``partition`` into ascending data-edge ids: a bitset row mask
    through the index's row table, a :class:`CandidateSet` itself."""
    index = partition.index
    if index.backend == "bitset":
        return index.decode_mask
    return methodcaller("to_tuple")


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


def _exact_step_planes(masks: Sequence[int], covered: int) -> Dict[int, int]:
    """Split the ``covered`` parents by the exact set of steps whose edge
    holds one vertex: ``{step bitmask M: parents with exactly M}`` from
    the per-step planes ``masks[j]`` (``covered`` is their OR).  The
    planes are disjoint and few — one per distinct way the frontier
    covers the vertex."""
    exact = {0: covered}
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
    return exact


def expand_block(
    graph: Hypergraph,
    partition: HyperedgePartition,
    plan: ExecutionPlan,
    step: int,
    cols: Sequence[Sequence[int]],
    n: int,
    state: VertexStepState,
    counters: "MatchCounters | None",
    memo: "AnchorUnionMemo | None",
    want_sets: bool = True,
) -> "Tuple[int, List | None]":
    """The one block step: expand a block of at most
    :data:`FRONTIER_BLOCK` partial embeddings of the plan's first
    ``step`` steps — ``n`` parents as ``step`` columns, see the module
    docstring — against ``partition`` (the step's signature partition,
    whole or a shard's rows of it) in whichever orientation costs less —
    the only place one is chosen; the engine's block-DFS and BFS loops
    and the shard worker's ``expand_level`` all come through here.

    Returns ``(accepted, sets)``: the number of accepted (parent, data
    hyperedge) pairs and one accepted set per parent (``None`` with
    ``want_sets=False``, for callers that only count the last level) —
    a raw row mask on the bitset backend, a :class:`CandidateSet`
    otherwise; :func:`decoder` decodes either.  ``state`` is the
    caller's running :class:`VertexStepState`, advanced from parent to
    parent by the per-parent orientation; ``counters`` may be None.
    """
    step_plan = plan.steps[step]
    final = step == plan.num_steps - 1
    if partition.index.backend == "bitset":
        if batched_is_cheaper(plan, step, n, partition.cardinality):
            return scan_rows(
                graph, partition, step_plan, cols, n, counters, final, want_sets
            )
        expand_one, size = _expand_parent_mask, int.bit_count
    else:
        expand_one, size = expand_parent, len
    accepted = 0
    sets: "List | None" = [] if want_sets else None
    step_masks = state.step_masks
    for parent in block_parents(cols, n):
        survivors = expand_one(
            graph, partition, step_plan, parent, state.advance(parent),
            step_masks, counters, memo, final,
        )
        accepted += size(survivors)
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


def _expand_parent_mask(
    graph, partition, step_plan: StepPlan, parent, vmap, step_masks,
    counters, memo, final_step: bool,
) -> int:
    """:func:`expand_parent` on the bitset backend, row masks end to
    end: Algorithm 4's mask straight into :func:`validate_mask`."""
    mask = candidate_mask(
        graph, partition, step_plan, parent, vmap, counters, memo
    )
    if final_step and counters is not None:
        counters.final_candidates += mask.bit_count()
    return validate_mask(
        graph, step_plan, step_masks, partition.index, mask, counters,
        final_step,
    )


def scan_rows(
    graph: Hypergraph,
    partition: HyperedgePartition,
    step_plan: StepPlan,
    cols: Sequence[Sequence[int]],
    n: int,
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
    charged.  The block's ``n`` parents, one column per step
    (``cols[j][i]``), are partial embeddings of the plan's first
    ``step_plan.step`` steps (see the module docstring), at most
    :data:`FRONTIER_BLOCK` of them.  The prefix columns are read as runs
    of one edge; the exact step sets are tabulated on first sight.

    Cost model (``mask-ops``): one work unit per parent bit written into
    the index, per vertex plane a distinct frontier edge is OR-ed into,
    per step plane read when a vertex's planes are derived, and per
    vertex of every live row probed — nothing per candidate.
    """
    num_steps = step_plan.step
    edge_of = graph.edge
    label_of = graph.label
    everyone = (1 << n) - 1

    # The frontier index, over the partition's own vertices only (no row
    # probes any other): vertex_masks[v][j] = parents whose step-j edge
    # holds v.
    probed = partition.index.vertices()
    vertex_masks: Dict[int, List[int]] = {}
    work = n * num_steps
    for j, column in enumerate(cols):
        by_edge: Dict[int, int] = {}
        if j < num_steps - 1:
            # A prefix column is runs of one edge (a parent's entry once
            # per child): a run over parents start..end-1 is one plane.
            start = 0
            for end in chain(
                compress(range(1, n), map(ne, column, islice(column, 1, None))),
                (n,),
            ):
                edge_id = column[start]
                by_edge[edge_id] = (
                    by_edge.get(edge_id, 0) | (1 << end) - (1 << start)
                )
                start = end
        else:  # the decoded edges: mostly one per parent
            bit = 1
            for edge_id in column:
                by_edge[edge_id] = by_edge.get(edge_id, 0) | bit
                bit <<= 1
        for edge_id, plane in by_edge.items():
            vertices = edge_of(edge_id) & probed
            work += len(vertices)
            for vertex in vertices:
                masks = vertex_masks.get(vertex)
                if masks is None:
                    masks = vertex_masks[vertex] = [0] * num_steps
                masks[j] |= plane

    anchors = [
        (number, anchor.label, anchor.prev_step, anchor.required_degree)
        for number, anchor in enumerate(step_plan.anchors)
    ]
    class_of = step_plan.shared_profile_classes
    barred = 0  # Observation V.3: steps whose vertices no anchor may use
    for j in step_plan.nonadjacent_prev:
        barred |= 1 << j
    # (label, exact step set M) -> (the anchors M satisfies, M's profile
    # class or None), filled on first sight.
    kinds: Dict[tuple, tuple] = {}

    # Per covered vertex, what the per-parent kernels read off a
    # vertex_step_map, as planes of parent bits: (covered, foreign,
    # [(anchor, plane)], [(profile class, plane)]).
    planes: Dict[int, tuple] = {}
    for vertex, masks in vertex_masks.items():
        covered = 0
        for mask in masks:
            covered |= mask
        label = label_of(vertex)
        foreign = covered
        anchor_planes = []
        class_planes = []
        for steps, holders in _exact_step_planes(masks, covered).items():
            kind = kinds.get((label, steps))
            if kind is None:
                kind = kinds[label, steps] = (
                    [
                        number
                        for number, wanted, prev_step, degree in anchors
                        if wanted == label
                        and steps >> prev_step & 1
                        and not steps & barred
                        and steps.bit_count() == degree
                    ],
                    class_of.get((label, steps)),
                )
            for number in kind[0]:
                anchor_planes.append((number, holders))
            if kind[1] is not None:
                class_planes.append((kind[1], holders))
                foreign ^= holders
        planes[vertex] = (covered, foreign, anchor_planes, class_planes)
    work += num_steps * len(planes)

    num_anchors = len(anchors)
    class_counts = step_plan.shared_class_counts
    # Observation V.5 on parents that are partial embeddings: each covers
    # len(key) + expected - arity vertices, so need_shared == len(key).
    need_shared = len(step_plan.shared_profile_key)
    slot_vertices = graph.slot_vertices
    row_masks: "List[int] | None" = [0] * n if want_masks else None
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

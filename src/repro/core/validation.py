"""Embedding validation (Algorithm 5 / Theorem V.2 of the paper).

Candidate generation can produce false positives; HGMatch removes them
without any backtracking search by comparing *vertex profiles*.  The
profile of a data vertex ``v`` inside a partial embedding is the pair
``(label(v), set of matched hyperedges containing v)``; the profile of a
query vertex maps its incident query hyperedges to their matched images.
Theorem V.2: the expansion is valid iff the profile multisets of the
newly added query hyperedge and its candidate data hyperedge are equal
(after the cheap total-vertex-count check of Observation V.5).

Only the *shared* vertices need comparing.  A candidate comes from the
step's signature partition (Observation V.1), so its label multiset
already equals the query hyperedge's; every vertex outside the partial
embedding has the profile ``(label, {step})`` on both sides; hence the
multisets are equal iff they are equal over ``c ∩ V(partial)`` — whose
size is exactly what Observation V.5 tests.  Profiles use *step
bitmasks* instead of hyperedge-id sets on both sides (the same thing up
to the bijection ``step ↔ f(ϕ[step])``), so the query side is the
``shared_profile_key`` precomputed in the plan.

A multiset equality is a set of exact counts, which is what lets the
whole candidate mask of a parent be validated at once
(:func:`validate_mask`): candidate row ``c`` is valid iff every profile
class of the key with multiplicity ``k`` has exactly ``k`` covered data
vertices of that profile incident to ``c``, and no covered vertex of any
other profile is incident to ``c`` at all.  With ``m_v`` the posting row
mask of covered vertex ``v``, "none of another profile" is
``cand & ~OR(m_v)`` and "exactly k" is ``≥k & ~≥(k+1)`` over running
planes — ``O(|V(partial)|)`` big-int operations per parent, no Python
per candidate.  :func:`validate_candidate_set` picks the kernel from the
candidate set's representation; :func:`validate_candidates` is the only
one that can run on edge-id tuples, and the oracle for the other.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Set

from ..hypergraph import Hypergraph
from .candidates import CandidateSet, MaskCandidates, TupleCandidates
from .counters import MatchCounters
from .plan import StepPlan


def validate_candidates(
    data: Hypergraph,
    step_plan: StepPlan,
    step_masks: Mapping[int, int],
    candidates: Iterable[int],
    counters: "MatchCounters | None" = None,
    final_step: bool = False,
    partial_num_vertices: "int | None" = None,
) -> List[int]:
    """Run Algorithm 5 for every candidate of one parent embedding.

    ``step_masks`` maps each data vertex of the partial embedding to the
    bitmask of the steps whose matched hyperedge contains it
    (``VertexStepState.step_masks`` / ``vertex_step_masks``);
    ``candidates`` are edge ids **of the step's signature partition** —
    the shared-vertex comparison is only sound for those, see
    :func:`is_valid_expansion` for arbitrary edges.  Returns the accepted
    edge ids in input order.  ``partial_num_vertices`` defaults to
    ``len(step_masks)``; pass it when the mapping covers only part of the
    partial embedding.

    Cost model: one work unit per vertex of every candidate that survives
    Observation V.5, charged once per call.
    """
    if partial_num_vertices is None:
        partial_num_vertices = len(step_masks)
    # Observation V.5 on the live partial: |V(partial)| + |c \ V(partial)|
    # must hit the plan's vertex count, i.e. c shares exactly this many.
    need_shared = (
        partial_num_vertices + step_plan.arity - step_plan.expected_num_vertices
    )
    key = list(step_plan.shared_profile_key)
    label_id = step_plan.profile_label_ids.get
    edge_of = data.edge
    label_of = data.label
    covered = step_masks.keys()
    accepted: List[int] = []
    passed = 0
    for candidate in candidates:
        shared = edge_of(candidate) & covered
        if len(shared) != need_shared:
            continue
        passed += 1
        # Theorem V.2 over the shared vertices (a plain loop: on 3.11 a
        # comprehension costs a frame per candidate).
        entries = []
        for vertex in shared:
            entries.append((label_id(label_of(vertex), -1), step_masks[vertex]))
        entries.sort()
        if entries == key:
            accepted.append(candidate)
    if counters is not None:
        counters.filtered += passed
        counters.work_units += passed * step_plan.arity
        if final_step:
            counters.final_filtered += passed
    return accepted


def validate_mask(
    data: Hypergraph,
    step_plan: StepPlan,
    step_masks: Mapping[int, int],
    index,
    candidate_mask: int,
    counters: "MatchCounters | None" = None,
    final_step: bool = False,
) -> int:
    """Algorithm 5 for a parent's whole candidate *row mask* at once.

    ``index`` is the step partition's index and must serve per-vertex row
    masks (``postings_mask``); ``candidate_mask`` is Algorithm 4's result
    over the same rows.  Returns the accepted rows as a mask — the same
    set, counters and work units as :func:`validate_candidates` over the
    decoded candidates, without decoding one.
    """
    if not candidate_mask:
        return 0
    class_of = step_plan.shared_profile_classes.get
    class_counts = step_plan.shared_class_counts
    postings_mask = index.postings_mask
    label_of = data.label
    # planes[class][j]: candidates incident to more than j covered
    # vertices of that profile class (j = 0 .. multiplicity).
    planes = [[0] * (count + 1) for count in class_counts]
    foreign = 0
    # Bit-sliced |c ∩ V(partial)| per candidate row, for the Observation
    # V.5 counters only: digits[i] holds bit i of every row's count.
    digits: "List[int] | None" = None if counters is None else []
    for vertex, steps in step_masks.items():
        incident = postings_mask(vertex) & candidate_mask
        if not incident:
            continue
        number = class_of((label_of(vertex), steps))
        if number is None:
            foreign |= incident
        else:
            plane = planes[number]
            for j in range(len(plane) - 1, 0, -1):
                plane[j] |= plane[j - 1] & incident
            plane[0] |= incident
        if digits is not None:
            carry = incident
            for i, digit in enumerate(digits):
                digits[i] = digit ^ carry
                carry &= digit
                if not carry:
                    break
            else:
                digits.append(carry)
    # Observation V.5 on the live partial, as in validate_candidates.
    need_shared = (
        len(step_masks) + step_plan.arity - step_plan.expected_num_vertices
    )
    if need_shared == len(step_plan.shared_profile_key):
        accepted = candidate_mask & ~foreign
        for plane, count in zip(planes, class_counts):
            accepted &= plane[count - 1] & ~plane[count]
    else:
        accepted = 0  # no candidate can share both counts of vertices
    if counters is not None:
        passed = _rows_counting(candidate_mask, digits, need_shared).bit_count()
        counters.filtered += passed
        counters.work_units += passed * step_plan.arity
        if final_step:
            counters.final_filtered += passed
    return accepted


def _add_plane(digits: List[int], plane: int) -> None:
    """Add one to the bit-sliced counter ``digits`` at every bit of
    ``plane`` (``digits[i]`` holds bit ``i`` of every position's count) —
    the ripple-carry step :func:`validate_mask` runs inline."""
    for i, digit in enumerate(digits):
        digits[i] = digit ^ plane
        plane &= digit
        if not plane:
            return
    digits.append(plane)


def _rows_counting(rows: int, digits: Sequence[int], value: int) -> int:
    """The rows of ``rows`` whose bit-sliced count equals ``value``."""
    if value < 0 or value >> len(digits):
        return 0
    for i, digit in enumerate(digits):
        rows &= digit if value >> i & 1 else ~digit
    return rows


def validate_candidate_set(
    data: Hypergraph,
    step_plan: StepPlan,
    step_masks: Mapping[int, int],
    candidates: CandidateSet,
    counters: "MatchCounters | None" = None,
    final_step: bool = False,
) -> CandidateSet:
    """Algorithm 5 for one parent, in the candidate set's own
    representation: a row mask whose index serves per-vertex row masks
    goes through :func:`validate_mask` and stays a mask; everything else
    (the merge backend, the adaptive backend's chunk and array results,
    step 0's whole partition) through :func:`validate_candidates`.
    """
    if type(candidates) is MaskCandidates:
        index = candidates.index
        if index.backend == "bitset":
            return MaskCandidates(
                index,
                validate_mask(
                    data, step_plan, step_masks, index, candidates.mask,
                    counters, final_step,
                ),
            )
    return TupleCandidates(
        tuple(
            validate_candidates(
                data, step_plan, step_masks, candidates, counters, final_step
            )
        )
    )


def is_valid_expansion(
    data: Hypergraph,
    step_plan: StepPlan,
    vmap: Dict[int, Set[int]],
    partial_num_vertices: int,
    candidate_edge: int,
    counters: "MatchCounters | None" = None,
    final_step: bool = False,
    step_tuples=None,
    step_masks: "Dict[int, int] | None" = None,
) -> bool:
    """Algorithm 5 for one candidate: :func:`validate_candidates` behind
    an explicit signature guard, for tests, traces and external callers.

    ``vmap`` is the ``vertex_step_map`` of the partial embedding *before*
    adding the candidate and ``partial_num_vertices`` its size.  With
    ``step_masks`` (the partial's per-vertex step bitmasks) the kernel
    reads them directly; without, the masks of the candidate's shared
    vertices are derived from ``vmap``.  ``step_tuples`` is accepted and
    ignored (nothing compares step tuples any more).
    """
    if data.edge_signature(candidate_edge) != step_plan.signature:
        return False  # Observation V.1; the kernel takes it for granted
    if step_masks is None:
        step_masks = {}
        for vertex in data.edge(candidate_edge) & vmap.keys():
            mask = 0
            for step in vmap[vertex]:
                mask |= 1 << step
            step_masks[vertex] = mask
    return bool(
        validate_candidates(
            data, step_plan, step_masks, (candidate_edge,), counters,
            final_step, partial_num_vertices,
        )
    )


def certify_embedding(
    data: Hypergraph,
    query: Hypergraph,
    order: Sequence[int],
    matched_edges: Sequence[int],
) -> bool:
    """Exhaustively certify a complete embedding with a vertex mapping.

    Independent of the profile machinery: searches for an injective,
    label-preserving vertex mapping sending every query hyperedge
    ``ϕ[i]`` exactly onto ``matched_edges[i]``.  Used by the engine's
    ``strict`` mode and by the test suite to cross-check Theorem V.2.
    """
    from .expansion import iter_vertex_mappings  # local import: avoid cycle

    for _ in iter_vertex_mappings(data, query, order, matched_edges):
        return True
    return False

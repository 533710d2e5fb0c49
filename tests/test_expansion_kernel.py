"""The expansion kernels against the full-profile reference oracle.

``validate_candidates`` compares Theorem V.2's profiles over the shared
vertices only, one candidate at a time; ``validate_mask`` turns the same
multiset equality into per-class exact counts over a parent's whole
candidate row mask; ``repro.testing.reference_is_valid_expansion``
writes Algorithm 5 out in full.  Along whole enumeration trees all
three must give the same verdict for **every** edge of the step's
partition — and the two kernels the same counters — on every index
backend that can run them.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HGMatch, Hypergraph, MatchCounters
from repro.core.candidates import (
    MaskCandidates,
    TupleCandidates,
    vertex_step_map,
    vertex_step_masks,
)
from repro.core.plan import build_execution_plan
from repro.core.validation import (
    is_valid_expansion,
    validate_candidate_set,
    validate_candidates,
    validate_mask,
)
from repro.testing import (
    make_mutable_instance,
    random_instances,
    random_mutation_schedule,
    reference_is_valid_expansion,
)

BACKENDS = ("merge", "bitset", "adaptive")


def check_tree(engine: HGMatch, query: Hypergraph, max_nodes: int = 400) -> int:
    """Walk the enumeration tree of ``query``; at every node compare the
    kernel, the one-candidate wrapper and the engine's bare-task path
    with the reference over the whole partition.  Returns the nodes seen."""
    data = engine.data
    plan = engine.plan(query)
    stack = [()]
    nodes = 0
    while stack and nodes < max_nodes:
        matched = stack.pop()
        nodes += 1
        step_plan = plan.steps[len(matched)]
        partition = engine.store.partition(step_plan.signature)
        if partition is None:
            continue
        vmap = vertex_step_map(data, matched)
        expected = [
            edge
            for edge in partition.edge_ids
            if reference_is_valid_expansion(data, step_plan, vmap, edge)
        ]
        masks = vertex_step_masks(data, matched)
        final = len(matched) == plan.num_steps - 1
        counted = MatchCounters()
        assert validate_candidates(
            data, step_plan, masks, partition.edge_ids, counted, final
        ) == expected
        if hasattr(partition.index, "postings_mask"):
            check_mask_kernel(
                data, step_plan, masks, partition, final, expected, counted
            )
        assert [
            edge
            for edge in partition.edge_ids
            if is_valid_expansion(data, step_plan, vmap, len(vmap), edge)
        ] == expected
        # Algorithm 4 is complete, so candidates + kernel lose nothing.
        assert list(engine.accepted_set(plan, matched)) == expected
        if len(matched) < plan.num_steps - 1:
            stack.extend(matched + (edge,) for edge in expected)
    return nodes


def live_rows(partition) -> int:
    """Row mask of the partition's live edges (tombstoned rows clear)."""
    live = set(partition.edge_ids)
    return sum(
        1 << row
        for row, edge in enumerate(partition.index.row_to_edge)
        if edge in live
    )


def check_mask_kernel(data, step_plan, masks, partition, final, expected, counted):
    """``validate_mask`` over every live row of the partition: same
    survivors and same counters as the per-candidate kernel."""
    index = partition.index
    rows = live_rows(partition)
    counters = MatchCounters()
    accepted = validate_mask(
        data, step_plan, masks, index, rows, counters, final
    )
    assert list(index.decode_mask(accepted)) == expected
    assert counters == counted
    # Counters are optional and do not change the verdict.
    assert validate_mask(data, step_plan, masks, index, rows) == accepted


def sub_query(data: Hypergraph, edge_ids) -> Hypergraph:
    """The sub-hypergraph on ``edge_ids`` with compact vertex ids."""
    vertices = sorted({v for edge_id in edge_ids for v in data.edge(edge_id)})
    rename = {vertex: position for position, vertex in enumerate(vertices)}
    return Hypergraph(
        [data.label(vertex) for vertex in vertices],
        [{rename[v] for v in data.edge(edge_id)} for edge_id in edge_ids],
        edge_labels=(
            [data.edge_label(edge_id) for edge_id in edge_ids]
            if data.is_edge_labelled
            else None
        ),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_equals_reference_on_random_trees(backend):
    for data, query in random_instances(1201, 8):
        assert check_tree(HGMatch(data, index_backend=backend), query) > 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_equals_reference_on_edge_labelled_graph(backend):
    rng = random.Random(1202)
    checked = 0
    for plain, _ in random_instances(1203, 6):
        data = Hypergraph(
            plain.labels,
            plain.edges,
            edge_labels=[rng.choice("xy") for _ in plain.edges],
        )
        # A connected three-edge query grown from a random data edge.
        chosen = [rng.randrange(data.num_edges)]
        for _ in range(2):
            covered = set().union(*(data.edge(e) for e in chosen))
            adjacent = [
                e
                for e in range(data.num_edges)
                if e not in chosen and data.edge(e) & covered
            ]
            if adjacent:
                chosen.append(rng.choice(adjacent))
        query = sub_query(data, chosen)
        engine = HGMatch(data, index_backend=backend)
        assert engine.count(query) >= 1
        checked += check_tree(engine, query)
    assert checked > 6


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_equals_reference_over_tombstoned_rows(backend):
    rng = random.Random(1204)
    tombstoned = 0
    for data, query, _ in random_instances(1205, 6, make_mutable_instance):
        engine = HGMatch(data, index_backend=backend)
        for batch in random_mutation_schedule(rng, data, steps=4):
            engine.apply_mutations(batch)
        check_tree(engine, query)
        tombstoned += sum(
            partition.num_rows - len(partition.edge_ids)
            for partition in engine.store.partitions.values()
        )
    assert tombstoned > 0  # the row layout really diverged from edge ids


def test_signature_guard_makes_the_shortcut_sound():
    """An off-partition edge can match on its shared vertices alone; the
    wrapper's explicit Observation V.1 guard is what rejects it."""
    data = Hypergraph(["A", "A", "A", "B"], [{0, 1}, {1, 2}, {1, 3}])
    query = Hypergraph(["A", "A", "A"], [{0, 1}, {1, 2}])
    step_plan = build_execution_plan(query, (0, 1)).steps[1]
    vmap = vertex_step_map(data, (0,))
    masks = vertex_step_masks(data, (0,))
    assert data.edge_signature(2) != step_plan.signature
    assert validate_candidates(data, step_plan, masks, (1, 2)) == [1, 2]
    assert is_valid_expansion(data, step_plan, vmap, len(vmap), 1)
    assert not is_valid_expansion(data, step_plan, vmap, len(vmap), 2)
    assert not is_valid_expansion(
        data, step_plan, vmap, len(vmap), 2, step_masks=masks
    )
    assert not reference_is_valid_expansion(data, step_plan, vmap, 2)


def test_observation_v5_reads_the_live_partial_size():
    """A malformed partial (step 1 disjoint from step 0, one vertex too
    many) must fail V.5 even though the shared profile of the candidate
    matches the plan's key."""
    data = Hypergraph(["A"] * 5, [{0, 1}, {2, 3}, {3, 4}, {1, 2}])
    query = Hypergraph(["A"] * 4, [{0, 1}, {1, 2}, {2, 3}])
    plan = build_execution_plan(query, (0, 1, 2))
    malformed = (0, 1)  # {0,1} then {2,3}: not adjacent in the data
    vmap = vertex_step_map(data, malformed)
    masks = vertex_step_masks(data, malformed)
    assert len(vmap) == plan.steps[1].expected_num_vertices + 1
    assert plan.steps[2].shared_profile_key == ((0, 0b10),)
    assert masks[3] == 0b10  # candidate {3,4} shares exactly that vertex
    assert validate_candidates(data, plan.steps[2], masks, (2,)) == []
    assert not reference_is_valid_expansion(data, plan.steps[2], vmap, 2)
    # The well-formed partial accepts the same candidate.
    good = vertex_step_masks(data, (0, 3))
    assert validate_candidates(data, plan.steps[2], good, (1,)) == [1]


def test_bare_task_path_builds_masks():
    """``expand(plan, task)`` validates over masks it rebuilds from the
    task tuple — the ones a push/pop state maintains — and expanding
    level by level that way reaches the engine's count, on a mask
    backend."""
    from repro.core.candidates import VertexStepState

    for data, query in random_instances(1206, 4):
        engine = HGMatch(data, index_backend="bitset")
        plan = engine.plan(query)
        state = VertexStepState(data)
        frontier = [()]
        for _ in range(plan.num_steps):
            next_frontier = []
            for matched in frontier:
                state.advance(matched)
                assert state.step_masks == vertex_step_masks(data, matched)
                next_frontier.extend(engine.expand(plan, matched))
            frontier = next_frontier
        assert len(frontier) == engine.count(query)


# ----------------------------------------------------------------------
# The set-algebra kernel's own cases
# ----------------------------------------------------------------------


def full_partition_verdicts(data, query, order, matched):
    """``(per-candidate kernel, mask kernel decoded, reference)`` for the
    step after ``matched`` over the whole partition, on a bitset engine."""
    engine = HGMatch(data, index_backend="bitset")
    plan = engine.plan(query, order)
    step_plan = plan.steps[len(matched)]
    partition = engine.store.partition(step_plan.signature)
    masks = vertex_step_masks(data, matched)
    vmap = vertex_step_map(data, matched)
    accepted = validate_mask(
        data, step_plan, masks, partition.index, live_rows(partition)
    )
    return (
        validate_candidates(data, step_plan, masks, partition.edge_ids),
        list(partition.index.decode_mask(accepted)),
        [
            edge
            for edge in partition.edge_ids
            if reference_is_valid_expansion(data, step_plan, vmap, edge)
        ],
    )


def test_a_class_of_two_needs_exactly_two():
    """Two same-label query vertices shared with the same earlier edge
    form one profile class of multiplicity 2: a candidate incident to
    only one such data vertex (what ``>= 1 and not >= 2`` would accept)
    must be rejected, one incident to both accepted."""
    #        a0 a1 b0  c0  a2  c1  c2
    labels = ["A", "A", "B", "C", "A", "C", "C"]
    data = Hypergraph(
        labels,
        [{0, 1, 2}, {0, 1, 3}, {0, 4, 5}, {1, 4, 6}, {0, 1, 6}],
    )
    query = Hypergraph(["A", "A", "B", "C"], [{0, 1, 2}, {0, 1, 3}])
    step_plan = build_execution_plan(query, (0, 1)).steps[1]
    assert step_plan.shared_class_counts == (2,)
    assert step_plan.shared_profile_classes == {("A", 0b1): 0}
    kernel, mask, reference = full_partition_verdicts(data, query, (0, 1), (0,))
    assert kernel == mask == reference == [1, 4]


def test_a_covered_vertex_of_a_foreign_profile_rejects_the_candidate():
    """Candidate {2, 0} has the demanded shared vertex 2 (profile
    ``(A, step 1)``) but also vertex 0, covered by step 0 only — a
    profile the query hyperedge does not have."""
    data = Hypergraph(["A"] * 4, [{0, 1}, {1, 2}, {2, 3}, {0, 2}])
    query = Hypergraph(["A"] * 4, [{0, 1}, {1, 2}, {2, 3}])
    kernel, mask, reference = full_partition_verdicts(
        data, query, (0, 1, 2), (0, 1)
    )
    assert kernel == mask == reference == [2]


def test_foreign_label_on_a_covered_vertex_rejects_the_candidate():
    """A covered vertex whose label the query hyperedge does not carry
    (the per-candidate kernel's ``label id -1``) beside the demanded
    shared vertex.  Edge 0 = {a0, b1} is off the step's {A, A}
    partition, so it is fed through a stand-in index over both rows:
    the kernels take Observation V.1 for granted."""
    from repro.hypergraph.index import BitsetHyperedgeIndex

    data = Hypergraph(["A", "B", "A"], [{0, 1}, {0, 2}])
    query = Hypergraph(["A", "B", "A"], [{0, 1}, {0, 2}])
    step_plan = build_execution_plan(query, (0, 1)).steps[1]
    masks = vertex_step_masks(data, (0,))
    index = BitsetHyperedgeIndex.build(data, (0, 1))
    accepted = validate_mask(data, step_plan, masks, index, 0b11)
    assert index.decode_mask(accepted) == (1,)
    assert validate_candidates(data, step_plan, masks, (0, 1)) == [1]


def test_empty_candidate_mask_is_a_no_op():
    data = Hypergraph(["A"] * 3, [{0, 1}, {1, 2}])
    query = Hypergraph(["A"] * 3, [{0, 1}, {1, 2}])
    engine = HGMatch(data, index_backend="bitset")
    step_plan = engine.plan(query, (0, 1)).steps[1]
    partition = engine.store.partition(step_plan.signature)
    counters = MatchCounters()
    masks = vertex_step_masks(data, (0,))
    assert validate_mask(
        data, step_plan, masks, partition.index, 0, counters, True
    ) == 0
    assert counters == MatchCounters()
    empty = validate_candidate_set(
        data, step_plan, masks, MaskCandidates(partition.index, 0), counters
    )
    assert type(empty) is MaskCandidates and len(empty) == 0 and not empty


def test_the_kernel_is_chosen_by_the_candidate_representation():
    """A row mask over a bitset index stays a mask; tuples (merge, step
    0) and an adaptive index's single-chunk masks (no per-vertex row
    masks to serve) go through the per-candidate kernel."""
    for data, query in random_instances(1207, 3):
        answers = {}
        for backend in BACKENDS:
            engine = HGMatch(data, index_backend=backend)
            plan = engine.plan(query)
            first = engine.accepted_set(plan, ())
            assert type(first) is TupleCandidates
            kinds = set()
            for edge in first:
                accepted = engine.accepted_set(plan, (edge,))
                kinds.add(type(accepted))
                answers.setdefault(edge, []).append(accepted.to_tuple())
            kinds.discard(type(None))
            if backend == "bitset":
                assert kinds <= {MaskCandidates, TupleCandidates}
            else:
                assert kinds <= {TupleCandidates}
        assert all(len(set(found)) == 1 for found in answers.values())


@settings(max_examples=200, deadline=None)
@given(
    num_rows=st.integers(1, 70),
    vertices=st.lists(
        # (profile slot, row mask seed): slots 0..2 are the query's
        # classes, slot 3 is a profile the query does not have.
        st.tuples(st.integers(0, 3), st.integers(0, (1 << 70) - 1)),
        max_size=9,
    ),
    counts=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2)),
    used_classes=st.integers(0, 3),
    slack=st.integers(-1, 1),
    candidate_seed=st.integers(0, (1 << 70) - 1),
)
def test_plane_arithmetic_against_per_row_popcounts(
    num_rows, vertices, counts, used_classes, slack, candidate_seed
):
    """The planes alone, on synthetic masks: "exactly k of the class,
    none of another profile" and the bit-sliced ``== need_shared`` count
    against a brute-force count per row."""
    row_space = (1 << num_rows) - 1
    counts = counts[:used_classes]
    postings = {
        vertex: seed & row_space for vertex, (_, seed) in enumerate(vertices)
    }
    slot_of = {vertex: slot for vertex, (slot, _) in enumerate(vertices)}
    key_length = sum(counts)
    step_plan = SimpleNamespace(
        arity=key_length + 1,
        # need_shared = len(step_masks) + arity - expected_num_vertices
        expected_num_vertices=len(vertices) + 1 - slack,
        shared_profile_classes={
            ("L", 1 << slot): slot for slot in range(len(counts))
        },
        shared_class_counts=counts,
        shared_profile_key=((0, 0),) * key_length,
    )
    need_shared = key_length + slack
    data = SimpleNamespace(label=lambda vertex: "L")
    index = SimpleNamespace(postings_mask=lambda vertex: postings[vertex])
    step_masks = {vertex: 1 << slot_of[vertex] for vertex in postings}
    candidate_mask = candidate_seed & row_space

    expected = passed = 0
    for row in range(num_rows):
        if not candidate_mask >> row & 1:
            continue
        incident = [v for v in postings if postings[v] >> row & 1]
        per_slot = [0, 0, 0, 0]
        for vertex in incident:
            per_slot[slot_of[vertex]] += 1
        if len(incident) == need_shared:
            passed += 1
            foreign = sum(per_slot[len(counts):])
            if not foreign and tuple(per_slot[:len(counts)]) == counts:
                expected |= 1 << row

    counters = MatchCounters()
    assert validate_mask(
        data, step_plan, step_masks, index, candidate_mask, counters, True
    ) == expected
    assert counters.filtered == counters.final_filtered == passed
    assert counters.work_units == passed * step_plan.arity

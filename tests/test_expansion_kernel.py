"""The expansion kernel against the full-profile reference oracle.

``validate_candidates`` compares Theorem V.2's profiles over the shared
vertices only; ``repro.testing.reference_is_valid_expansion`` writes
Algorithm 5 out in full.  Along whole enumeration trees the two must
give the same verdict for **every** edge of the step's partition, on
every index backend.
"""

from __future__ import annotations

import random

import pytest

from repro import HGMatch, Hypergraph
from repro.core.candidates import vertex_step_map, vertex_step_masks
from repro.core.plan import build_execution_plan
from repro.core.validation import is_valid_expansion, validate_candidates
from repro.testing import (
    make_mutable_instance,
    make_random_instance,
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
        assert validate_candidates(
            data, step_plan, vertex_step_masks(data, matched), partition.edge_ids
        ) == expected
        assert [
            edge
            for edge in partition.edge_ids
            if is_valid_expansion(data, step_plan, vmap, len(vmap), edge)
        ] == expected
        # Algorithm 4 is complete, so candidates + kernel lose nothing.
        assert engine.accepted_edges(plan, matched) == expected
        if len(matched) < plan.num_steps - 1:
            stack.extend(matched + (edge,) for edge in expected)
    return nodes


def random_instances(seed: int, count: int, make=make_random_instance):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        instance = make(rng)
        if instance is not None:
            found.append(instance)
    return found


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
    """``expand(plan, task)`` without a state validates over masks it
    rebuilds itself — same answer as the stateful call, on a mask backend."""
    from repro.core.candidates import VertexStepState

    for data, query in random_instances(1206, 4):
        engine = HGMatch(data, index_backend="bitset")
        plan = engine.plan(query)
        state = VertexStepState(data)
        frontier = [()]
        for _ in range(plan.num_steps):
            next_frontier = []
            for matched in frontier:
                bare = engine.expand(plan, matched)
                assert bare == engine.expand(
                    plan, matched, vmap=state.advance(matched),
                    step_masks=state.step_masks,
                )
                assert state.step_masks == vertex_step_masks(data, matched)
                next_frontier.extend(bare)
            frontier = next_frontier
        assert len(frontier) == engine.count(query)

"""The two orientations of a shard worker's level against each other.

``expand_level`` on the bitset backend runs Algorithms 4 and 5 either
once per parent (``generate_candidate_set`` + ``validate_mask`` — the
kernel every other test holds to the reference) or batched over the
frontier (``repro.core.frontier.scan_rows``: index the frontier, probe
each live row once).  Along whole enumeration trees, for every level and
every shard, both must produce the same reply — payload bytes and
embeddings — the same funnel counters and the same worker accounting.
``work_units`` is the one number that legitimately differs (each
orientation charges the mask operations it performs).
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HGMatch, Hypergraph, MatchCounters
from repro.core.candidates import AnchorUnionMemo, VertexStepState
from repro.core import frontier as frontier_module
from repro.core.frontier import FRONTIER_BLOCK, batched_is_cheaper
from repro.hypergraph import StoreShard, apply_batch
from repro.parallel.level_sync import expand_level
from repro.parallel.tasks import WorkerStats
from repro.testing import (
    make_mutable_instance,
    random_instances,
    random_mutation_schedule,
)

FUNNEL = ("candidates", "filtered", "final_candidates", "final_filtered")


def forced(batched, block=FRONTIER_BLOCK):
    """Force the orientation the one block step picks (and its block
    size) for every caller — shard worker and engine alike."""
    return mock.patch.multiple(
        frontier_module,
        batched_is_cheaper=lambda *args: batched,
        FRONTIER_BLOCK=block,
    )


def run_level(
    graph, shard, plan, step, frontier, batched, block=FRONTIER_BLOCK
):
    """One ``expand_level`` call with the orientation forced; returns the
    reply, the funnel counters and the worker accounting."""
    counters = MatchCounters()
    stats = WorkerStats(worker_id=shard.shard_id)
    with forced(batched, block):
        reply = expand_level(
            graph, shard, plan, step, frontier, VertexStepState(graph),
            counters, stats, AnchorUnionMemo(),
        )
    return (
        reply,
        tuple(getattr(counters, name) for name in FUNNEL),
        (stats.tasks_executed, stats.payload_bytes, stats.embeddings),
    )


def levels_of(engine, query, order=None):
    """``(plan, step, frontier)`` for every level of the query's tree."""
    plan = engine.plan(query, order)
    frontier = [()]
    for step in range(plan.num_steps):
        yield plan, step, frontier
        frontier = [
            child
            for partial in frontier
            for child in engine.expand(plan, partial)
        ]


def check_tree(engine, query, shards, block=FRONTIER_BLOCK, order=None) -> int:
    """Both orientations on every level and shard of ``query``'s tree;
    the last level's embeddings must also add up to the engine's count.
    Returns how many parents went through the comparison."""
    graph = engine.data
    compared = 0
    for plan, step, frontier in levels_of(engine, query, order):
        embeddings = 0
        for shard in shards:
            expected = run_level(graph, shard, plan, step, frontier, False)
            assert run_level(
                graph, shard, plan, step, frontier, True, block
            ) == expected
            embeddings += expected[0][2]
            compared += len(frontier)
        if step == plan.num_steps - 1:
            assert embeddings == engine.count(query, order)
    return compared


def bitset_shards(graph, num_shards=2):
    return [
        StoreShard.build(graph, shard_id, num_shards, "bitset")
        for shard_id in range(num_shards)
    ]


@pytest.mark.parametrize("num_shards", [1, 2, 3])
def test_orientations_agree_on_random_trees(num_shards):
    compared = 0
    for data, query in random_instances(1501, 8):
        engine = HGMatch(data, index_backend="bitset")
        compared += check_tree(engine, query, bitset_shards(data, num_shards))
    assert compared > 50


def edge_labelled_instances(seed):
    """The random instances with edge labels drawn over them."""
    rng = random.Random(seed)
    for plain, plain_query in random_instances(1503, 8):
        yield (
            Hypergraph(
                plain.labels, plain.edges,
                edge_labels=[rng.choice("xxy") for _ in plain.edges],
            ),
            Hypergraph(
                plain_query.labels, plain_query.edges,
                edge_labels=["x"] * plain_query.num_edges,
            ),
        )


def test_orientations_agree_on_an_edge_labelled_graph():
    embeddings = 0
    for data, query in edge_labelled_instances(1502):
        engine = HGMatch(data, index_backend="bitset")
        check_tree(engine, query, bitset_shards(data))
        embeddings += engine.count(query)
    assert embeddings > 0


def test_orientations_agree_on_incrementally_mutated_shards():
    """Shards maintained batch by batch, as a worker does on MUTATE:
    tombstoned slots keep their rows, so the row scan walks the row
    layout and skips them — it never resolves a dead slot's edge."""
    rng = random.Random(1504)
    tombstoned = 0
    for data, query, _ in random_instances(1505, 8, make_mutable_instance):
        engine = HGMatch(data, index_backend="bitset")
        shards = bitset_shards(data)
        for batch in random_mutation_schedule(rng, data, steps=4):
            engine.apply_mutations(batch)
            for shard in shards:
                apply_batch(shard.graph, shard, batch)
        check_tree(engine, query, shards)
        tombstoned += sum(
            partition.num_rows - partition.cardinality
            for shard in shards
            for partition in shard.partitions.values()
        )
    assert tombstoned > 0


def test_a_profile_class_of_two_and_a_foreign_profile_vertex():
    """The set-algebra kernel's own corner cases (see
    ``test_expansion_kernel``), through both orientations: a class of
    multiplicity 2 needs exactly two, and a covered vertex of a profile
    the query hyperedge lacks rejects the row."""
    labels = ["A", "A", "B", "C", "A", "C", "C"]
    data = Hypergraph(
        labels, [{0, 1, 2}, {0, 1, 3}, {0, 4, 5}, {1, 4, 6}, {0, 1, 6}]
    )
    query = Hypergraph(["A", "A", "B", "C"], [{0, 1, 2}, {0, 1, 3}])
    engine = HGMatch(data, index_backend="bitset")
    assert engine.plan(query, (0, 1)).steps[1].shared_class_counts == (2,)
    assert check_tree(engine, query, bitset_shards(data), order=(0, 1)) > 0
    assert engine.count(query, (0, 1)) == 2

    data = Hypergraph(["A"] * 4, [{0, 1}, {1, 2}, {2, 3}, {0, 2}])
    query = Hypergraph(["A"] * 4, [{0, 1}, {1, 2}, {2, 3}])
    engine = HGMatch(data, index_backend="bitset")
    check_tree(engine, query, bitset_shards(data, 1), order=(0, 1, 2))
    plan = engine.plan(query, (0, 1, 2))
    reply, funnel, _ = run_level(
        data, bitset_shards(data, 1)[0], plan, 2, [(0, 1)], True
    )
    # Every row on vertex 2 is a candidate of parent (0, 1) — {1,2}
    # itself, {2,3} and {0,2}; only {2,3} shares exactly one vertex, and
    # {0,2} holds vertex 0, covered by step 0 only.
    assert reply == ("level", None, 1) and funnel[:2] == (3, 1)


def test_vertices_of_non_adjacent_steps_anchor_nothing():
    """Observation V.3 where the degree filter alone would not do: at
    step 3 both anchors want a degree-2 vertex, and vertices 1 and 2 have
    degree 2 through step 1 — which the new hyperedge is not adjacent to.
    Without the bar, row {1,2} would be a third candidate."""
    data = Hypergraph(["A"] * 5, [{0, 1}, {1, 2}, {0, 2, 3}, {0, 4}])
    engine = HGMatch(data, index_backend="bitset")
    order = (0, 1, 2, 3)
    plan = engine.plan(data, order)
    assert plan.steps[3].nonadjacent_prev == (1,)
    assert {a.required_degree for a in plan.steps[3].anchors} == {2}
    (shard,) = bitset_shards(data, 1)
    assert check_tree(engine, data, [shard], order=order) > 0
    reply, funnel, _ = run_level(data, shard, plan, 3, [(0, 1, 2)], True)
    assert reply == ("level", None, 1) and funnel[:2] == (2, 1)


def test_empty_frontier_and_all_rejected_level():
    data = Hypergraph(["A"] * 4, [{0, 1}, {1, 2}, {0, 2}])
    query = Hypergraph(["A"] * 4, [{0, 1}, {1, 2}, {2, 3}])
    engine = HGMatch(data, index_backend="bitset")
    plan = engine.plan(query, (0, 1, 2))
    (shard,) = bitset_shards(data, 1)
    for batched in (False, True):
        reply, funnel, accounting = run_level(
            data, shard, plan, 1, [], batched
        )
        assert reply == ("level", [], 0)
        assert funnel == (0, 0, 0, 0) and accounting == (0, 0, 0)
    # Every candidate of the last level closes a triangle: all rejected.
    frontier = list(levels_of(engine, query, (0, 1, 2)))[2][2]
    assert len(frontier) > 1
    rejected = run_level(data, shard, plan, 2, frontier, True)
    assert rejected == run_level(data, shard, plan, 2, frontier, False)
    assert rejected[0] == ("level", None, 0) and rejected[1][0] > 0



def test_a_partition_of_tombstones_only():
    """Rows, but no edge: every slot of the step's partition deleted."""
    from repro.hypergraph.dynamic import MutationBatch

    data = Hypergraph(["A", "B", "A", "A"], [{0, 1}, {0, 2}, {0, 3}])
    query = Hypergraph(["A", "B", "A"], [{0, 1}, {0, 2}])
    engine = HGMatch(data, index_backend="bitset")
    plan = engine.plan(query, (0, 1))
    (shard,) = bitset_shards(data, 1)
    batch = MutationBatch(deletes=[1, 2])
    engine.apply_mutations(batch)
    apply_batch(shard.graph, shard, batch)
    partition = shard.partition(plan.steps[1].signature)
    assert partition.num_rows == 2 and partition.cardinality == 0
    dead = run_level(engine.data, shard, plan, 1, [(0,)], True)
    assert dead == run_level(engine.data, shard, plan, 1, [(0,)], False)
    assert dead == (("level", None, 0), (0, 0, 0, 0), (1, 0, 0))


def star(leaves: int) -> Hypergraph:
    """``leaves`` two-vertex hyperedges around one centre vertex."""
    return Hypergraph(
        ["C"] + ["A", "B"] * (leaves // 2),
        [{0, leaf} for leaf in range(1, leaves + 1)],
    )


#: Three leaves of a star, so step 2's frontier is (leaves / 2)² wide.
STAR_QUERY = Hypergraph(["C", "A", "B", "A"], [{0, 1}, {0, 2}, {0, 3}])


def test_a_frontier_that_straddles_block_boundaries():
    """A frontier wider than the real block size, cut mid-block; and the
    random trees under a three-parent block, cut on nearly every level."""
    data = star(80)
    engine = HGMatch(data, index_backend="bitset")
    widest = max(len(f) for _, _, f in levels_of(engine, STAR_QUERY))
    assert widest > FRONTIER_BLOCK and widest % FRONTIER_BLOCK
    check_tree(engine, STAR_QUERY, bitset_shards(data))
    for data, query in random_instances(1506, 6):
        engine = HGMatch(data, index_backend="bitset")
        check_tree(engine, query, bitset_shards(data), block=3)


@pytest.fixture(scope="module")
def level_pool():
    """Levels to resample: ``(graph, shard, plan, step, frontier)``."""
    pool = []
    for data, query in random_instances(1507, 10):
        engine = HGMatch(data, index_backend="bitset")
        for shard in bitset_shards(data):
            for plan, step, frontier in levels_of(engine, query):
                if step and frontier:
                    pool.append((data, shard, plan, step, frontier))
    assert len(pool) > 10
    return pool


@settings(max_examples=150, deadline=None)
@given(
    level=st.integers(0, 10_000),
    picks=st.lists(st.integers(0, 10_000), max_size=24),
    block=st.integers(1, 9),
)
def test_any_multiset_of_partial_embeddings_in_any_order(
    level_pool, level, picks, block
):
    """Synthetic frontiers: any parents of a level, repeated, reordered
    and cut into blocks anywhere — the batched kernel may depend on none
    of it (bit positions are an artefact of the block)."""
    graph, shard, plan, step, parents = level_pool[level % len(level_pool)]
    frontier = [parents[pick % len(parents)] for pick in picks]
    assert run_level(
        graph, shard, plan, step, frontier, True, block
    ) == run_level(graph, shard, plan, step, frontier, False)


# ----------------------------------------------------------------------
# Which orientation runs
# ----------------------------------------------------------------------


def spied_level(engine, shard, plan, step, frontier):
    """``expand_level`` under the real inequality; returns how many row
    scans it made."""
    with mock.patch.object(
        frontier_module, "scan_rows", wraps=frontier_module.scan_rows
    ) as spy:
        expand_level(
            engine.data, shard, plan, step, frontier,
            VertexStepState(engine.data), MatchCounters(),
            WorkerStats(worker_id=0), AnchorUnionMemo(),
        )
    return spy.call_count


def test_the_orientation_follows_frontier_and_partition_size():
    data = star(200)
    engine = HGMatch(data, index_backend="bitset")
    (shard,) = bitset_shards(data, 1)
    levels = list(levels_of(engine, STAR_QUERY))
    plan, step, frontier = levels[2]
    # One parent against 100 rows: a pass over its three vertices beats
    # a scan of the partition, so no row is scanned ...
    assert not batched_is_cheaper(plan, step, 1, 100)
    assert spied_level(engine, shard, plan, step, frontier[:1]) == 0
    # ... the whole level against the same rows is the other way round:
    # one scan per block of the frontier;
    assert batched_is_cheaper(plan, step, len(frontier), 100)
    assert spied_level(engine, shard, plan, step, frontier) == -(
        -len(frontier) // FRONTIER_BLOCK
    )
    # step 0 has nothing to index,
    assert spied_level(engine, shard, *levels[0]) == 0
    # and a partition much wider than a block is cheaper to probe per
    # parent however long the frontier is.
    assert not batched_is_cheaper(plan, step, 10**6, 2 * FRONTIER_BLOCK)


@pytest.mark.parametrize("backend", ["merge", "adaptive"])
def test_other_backends_keep_the_per_parent_kernel(backend):
    data = star(40)
    engine = HGMatch(data, index_backend=backend)
    shard = StoreShard.build(data, 0, 1, backend)
    plan, step, frontier = list(levels_of(engine, STAR_QUERY))[2]
    assert batched_is_cheaper(plan, step, len(frontier), 20)
    assert spied_level(engine, shard, plan, step, frontier) == 0


# ----------------------------------------------------------------------
# The in-process callers of the same block step
# ----------------------------------------------------------------------

def in_parts(parts):
    """``count_part`` over every one of ``parts`` root parts, summed
    (one counter set, as the parts' counters add up)."""
    return lambda e, q, c: sum(
        e.count_part(q, part=part, parts=parts, counters=c)
        for part in range(parts)
    )


CALLERS = {
    "count": lambda e, q, c: e.count(q, counters=c),
    "match": lambda e, q, c: len({m.canonical() for m in e.match(q, counters=c)}),
    "count_bfs": lambda e, q, c: e.count_bfs(q, counters=c),
    "count_part_2": in_parts(2),
    "count_part_3": in_parts(3),
}


def through_every_caller(engine, query, batched, block=FRONTIER_BLOCK):
    """``{caller: (count, funnel + embeddings + tasks)}`` with the
    orientation forced for all of them, and ``{caller: peak_retained}``."""
    results, peaks = {}, {}
    with forced(batched, block):
        for name, run in CALLERS.items():
            counters = MatchCounters()
            count = run(engine, query, counters)
            results[name] = (count,) + tuple(
                getattr(counters, field)
                for field in FUNNEL + ("embeddings", "tasks")
            )
            peaks[name] = counters.peak_retained
    return results, peaks


def check_callers(engine, query) -> int:
    """Every in-process caller × orientation × block size agrees with
    the merge engine's count and with each other, counters included;
    ``count`` and ``match`` hold the same partials at their peak."""
    expected = HGMatch(engine.data, index_backend="merge").count(query)
    reference, peaks = through_every_caller(engine, query, False)
    assert set(reference.values()) == {reference["count"]}
    assert reference["count"][0] == reference["count"][5] == expected
    assert peaks["count"] == peaks["match"]
    for batched, block in ((True, FRONTIER_BLOCK), (True, 3), (False, 2)):
        results, peaks = through_every_caller(engine, query, batched, block)
        assert results == reference
        assert peaks["count"] == peaks["match"]
    with forced(True, 3):
        scanned = {m.canonical() for m in engine.match(query)}
    assert scanned == {m.canonical() for m in engine.match(query)}
    return expected


def test_in_process_callers_agree_on_random_trees():
    embeddings = 0
    for data, query in random_instances(1511, 30):
        embeddings += check_callers(HGMatch(data, index_backend="bitset"), query)
    assert embeddings > 50


def test_in_process_callers_agree_on_an_edge_labelled_graph():
    embeddings = 0
    for data, query in edge_labelled_instances(1512):
        embeddings += check_callers(HGMatch(data, index_backend="bitset"), query)
    assert embeddings > 0


def test_in_process_callers_agree_on_an_engine_mutated_in_place():
    """``apply_mutations`` tombstones rows of the engine's own store, so
    the in-process row scan has dead slots to skip as well."""
    rng = random.Random(1513)
    tombstoned = 0
    for data, query, _ in random_instances(1514, 8, make_mutable_instance):
        engine = HGMatch(data, index_backend="bitset")
        for batch in random_mutation_schedule(rng, data, steps=4):
            engine.apply_mutations(batch)
        check_callers(engine, query)
        tombstoned += sum(
            partition.num_rows - partition.cardinality
            for partition in engine.store.partitions.values()
        )
    assert tombstoned > 0


@pytest.mark.parametrize("batched", [False, True])
def test_first_edges_and_strict_under_both_orientations(batched):
    """The standing-query delta path (``first_edges``) restricts step 0
    only, and ``strict`` certifies every embedding either way."""
    rng = random.Random(1515)
    restricted = 0
    for data, query in random_instances(1516, 10):
        engine = HGMatch(data, index_backend="bitset")
        everything = list(engine.match(query))
        first_edges = set(rng.sample(range(data.num_edges), data.num_edges // 2))
        with forced(batched, 3):
            delta = {
                m.canonical()
                for m in engine.match(query, first_edges=first_edges, strict=True)
            }
        assert delta == {
            m.canonical() for m in everything if m.edge_ids[0] in first_edges
        }
        restricted += len(everything) - len(delta)
    assert restricted > 0


@pytest.mark.parametrize("batched", [False, True])
def test_the_time_budget_is_checked_between_blocks(batched, monkeypatch):
    from repro.core import engine as engine_module
    from repro.errors import TimeoutExceeded

    engine = HGMatch(star(40), index_backend="bitset")
    ticks = iter(range(10**6))
    monkeypatch.setattr(
        engine_module.time, "monotonic", lambda: float(next(ticks))
    )
    for run in (engine.count, engine.count_bfs):
        counters = MatchCounters()
        with forced(batched, 4), pytest.raises(TimeoutExceeded):
            # One tick per block: the budget runs out inside level 1.
            run(STAR_QUERY, counters=counters, time_budget=4.0)
        whole = MatchCounters()
        engine.count(STAR_QUERY, counters=whole)
        assert 0 < counters.candidates < whole.candidates


def test_the_engine_scans_wide_blocks_and_probes_narrow_ones():
    """The real inequality, in-process: the star's wide levels go through
    the row scan block by block, a merge engine never does, and the
    counts agree."""
    data = star(200)
    engine = HGMatch(data, index_backend="bitset")
    with mock.patch.object(
        frontier_module, "scan_rows", wraps=frontier_module.scan_rows
    ) as spy:
        count = engine.count(STAR_QUERY)
        scans = spy.call_count
        assert sum(1 for _ in engine.match(STAR_QUERY)) == count
        assert scans > 1 and spy.call_count == 2 * scans
        assert HGMatch(data, index_backend="merge").count(STAR_QUERY) == count
        assert spy.call_count == 2 * scans
    assert count == 100 * 100 * 99

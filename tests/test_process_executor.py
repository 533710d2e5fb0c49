"""The multiprocess pool: parity, accounting and lifecycle.

The correctness bar is bit-identical counts against the sequential
engine for every index backend, plus the funnel counters (candidates /
filtered / final_*) matching exactly, since each root candidate is
searched in exactly one part.  The payload tests at the end pin the
row-range shard kernel the level-synchronous loop runs in process.
"""

from __future__ import annotations

import random

import pytest

from repro import HGMatch, Hypergraph
from repro.core.counters import MatchCounters
from repro.errors import QueryError, SchedulerError, TimeoutExceeded
from repro.hypergraph import INDEX_BACKENDS
from repro.parallel import ShardPool, spawn_local_cluster
from repro.testing import make_random_instance


@pytest.fixture(scope="module")
def workload_instances():
    """A deterministic batch of small (data, query) pairs."""
    rng = random.Random(987)
    instances = []
    while len(instances) < 6:
        instance = make_random_instance(rng)
        if instance is not None:
            instances.append(instance)
    return instances


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_counts_match_sequential(workload_instances, backend, num_shards):
    for data, query in workload_instances:
        engine = HGMatch(data, index_backend=backend, shards=num_shards)
        try:
            expected = engine.count(query)
            assert engine.count(query, executor="processes") == expected
        finally:
            engine.close()


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_counter_funnel_matches_sequential(workload_instances, backend):
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend=backend, shards=3)
    try:
        sequential = MatchCounters()
        expected = engine.count(query, counters=sequential)
        sharded = MatchCounters()
        assert engine.count(
            query, executor="processes", counters=sharded
        ) == expected
        # Disjoint root parts: every candidate is produced and validated
        # exactly once across the pool, so the funnel is exact.
        assert sharded.candidates == sequential.candidates
        assert sharded.filtered == sequential.filtered
        assert sharded.final_candidates == sequential.final_candidates
        assert sharded.final_filtered == sequential.final_filtered
        assert sharded.embeddings == sequential.embeddings
        assert sharded.work_model == sequential.work_model
    finally:
        engine.close()


@pytest.mark.parametrize("backend", ("bitset", "adaptive"))
def test_mask_backends_ship_masks_not_edge_lists(workload_instances, backend):
    """Shard payloads must be row payloads (bitmask/chunk tags), never
    decoded edge-id tuples."""
    from repro.core.candidates import _WIRE_CHUNKS, _WIRE_MASK, _WIRE_TUPLE
    from repro.hypergraph import StoreShard
    from repro.parallel.level_sync import encode_survivors

    data, query = workload_instances[0]
    shard = StoreShard.build(data, 0, 2, index_backend=backend)
    signature = next(iter(shard.partitions))
    index = shard.partition(signature).index
    payload = encode_survivors(backend, [0], [], 7, index)
    # bitset ships masks; adaptive ships whichever row representation
    # (mask or chunk map) is smaller — never a decoded edge-id tuple.
    assert payload[0] in (_WIRE_MASK, _WIRE_CHUNKS)
    assert payload[0] != _WIRE_TUPLE
    if backend == "adaptive":
        dense = encode_survivors(
            backend, list(range(min(64, len(index.row_to_edge)) or 1)), [], 0,
            index,
        )
        assert dense[0] in (_WIRE_MASK, _WIRE_CHUNKS)


def test_pool_persists_across_queries(workload_instances):
    data, first_query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset", shards=2)
    try:
        executor = engine.pool()
        assert engine.count(first_query, executor="processes") == engine.count(
            first_query
        )
        # Same pool object serves the next query against the same data.
        assert engine.pool() is executor
        assert engine.count(first_query, executor="processes") == engine.count(
            first_query
        )
        # Asking for a different shard count rebuilds the pool.
        other = engine.pool(3)
        assert other is not executor
        assert other.num_shards == 3
    finally:
        engine.close()


def test_results_are_reproducible_across_runs(workload_instances):
    data, query = workload_instances[1]
    engine = HGMatch(data, index_backend="adaptive", shards=2)
    try:
        first = engine.pool().run(engine, query, counters=MatchCounters())
        second = engine.pool().run(engine, query, counters=MatchCounters())
        assert first.embeddings == second.embeddings
        assert first.counters.as_row() == second.counters.as_row()
        assert [s.embeddings for s in first.worker_stats] == [
            s.embeddings for s in second.worker_stats
        ]
    finally:
        engine.close()


def test_backend_mismatch_is_rejected(workload_instances):
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    executor = ShardPool(num_shards=2, index_backend="bitset")
    try:
        with pytest.raises(SchedulerError):
            executor.run(engine, query)
    finally:
        executor.close()
        engine.close()


def test_invalid_executor_and_shards():
    data = Hypergraph(labels=["A", "A"], edges=[{0, 1}])
    query = Hypergraph(labels=["A", "A"], edges=[{0, 1}])
    engine = HGMatch(data)
    with pytest.raises(QueryError):
        engine.count(query, executor="warp-drive")
    with pytest.raises(QueryError):
        engine.count_bfs(query, executor="warp-drive")
    with pytest.raises(QueryError):
        HGMatch(data, shards=0)
    with pytest.raises(SchedulerError):
        ShardPool(num_shards=0)


def test_single_step_query(fig1_data):
    """num_steps == 1: the SCAN level is also the final level."""
    query = Hypergraph(labels=["A", "B"], edges=[{0, 1}])
    engine = HGMatch(fig1_data, shards=2)
    try:
        expected = engine.count(query)
        assert engine.count(query, executor="processes") == expected
    finally:
        engine.close()


def test_workers_names_parallelism_when_shards_unset(workload_instances):
    """count(workers=N, executor="processes") on an unsharded engine
    runs N worker processes, matching every other executor's meaning of
    ``workers``."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset")  # shards defaults to 1
    try:
        expected = engine.count(query)
        assert (
            engine.count(query, workers=3, executor="processes") == expected
        )
        assert engine._pool.num_shards == 3
    finally:
        engine.close()


def _kill(process):
    process.terminate()
    process.join(timeout=2.0)
    assert not process.is_alive()


def test_dead_worker_recovers_between_jobs_and_mid_job(
    workload_instances, kill_mid_job
):
    """``processes`` runs on the one shard pool and inherits its
    failure policy: a worker lost between jobs is brought back by the
    recovery ladder on reuse, one lost mid-job leaves its part to the
    survivor and is respawned by the next job's open — exact counts
    either way, pool healthy afterwards."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(num_shards=2, index_backend="bitset")
    try:
        expected = engine.count(query)
        assert executor.run(engine, query).embeddings == expected
        # Between jobs.
        _kill(executor._cluster.processes[0])
        assert executor.run(engine, query).embeddings == expected
        assert all(p.is_alive() for p in executor._cluster.processes)
        # Mid-job.
        state = kill_mid_job(executor, 1)
        result = executor.run(engine, query)
        assert state["killed"] and result.embeddings == expected
        # (The pump may see the death only during the next job.)
        for _ in range(2):
            assert executor.run(engine, query).embeddings == expected
        assert all(p.is_alive() for p in executor._cluster.processes)
        assert len(executor._members) == 2
    finally:
        executor.close()
        engine.close()


def test_a_worker_killed_right_before_a_job_is_respawned_by_its_open(
    workload_instances,
):
    """The open fails a member whose owned process is dead even when the
    pump has not read its EOF yet, so the respawn never waits a job:
    killed and run at once, ten times over, every count is exact and
    after every job all processes are alive and the pool is whole."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(num_shards=2, index_backend="bitset")
    try:
        expected = engine.count(query)
        assert executor.run(engine, query).embeddings == expected
        for round_ in range(10):
            _kill(executor._cluster.processes[round_ % 2])
            assert executor.run(engine, query).embeddings == expected
            assert all(p.is_alive() for p in executor._cluster.processes)
            assert len(executor._members) == 2
    finally:
        executor.close()
        engine.close()


def test_cluster_lookups_refuse_names_outside_the_cluster(fig1_data):
    """``kill_member``, ``address_of`` and ``respawn`` share one checked
    lookup: a negative name never wraps around to the last worker."""
    cluster = spawn_local_cluster(fig1_data, 2, index_backend="bitset")
    try:
        for name in (-1, 2):
            for lookup in (
                cluster.kill_member, cluster.address_of, cluster.respawn,
            ):
                with pytest.raises(
                    SchedulerError, match=f"no shard worker {name} "
                ):
                    lookup(name)
        assert all(p.is_alive() for p in cluster.processes)
    finally:
        cluster.close()


def test_processes_and_hostless_sockets_share_one_pool(workload_instances):
    """One set of worker processes per engine: ``executor="processes"``
    and ``executor="sockets"`` with no hosts configured are the same
    coordinator over the same local cluster."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset", shards=2)
    try:
        expected = engine.count(query)
        assert engine.count(query, executor="processes") == expected
        pool = engine.pool()
        pids = [process.pid for process in pool._cluster.processes]
        assert engine.count(query, executor="sockets") == expected
        assert engine.pool() is pool
        assert [p.pid for p in pool._cluster.processes] == pids
        processes = list(pool._cluster.processes)
    finally:
        engine.close()
    assert pool._cluster is None and not pool._members
    assert not any(process.is_alive() for process in processes)


def test_solo_job_on_a_stale_worker_is_refused(workload_instances):
    """Every SUBTREE request is stamped with the graph version the
    coordinator assumes — the solo coordinator's too — so a worker that
    did not see a mutation refuses the job instead of adding up counts
    across versions."""
    from repro.testing import random_mutation_schedule

    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(num_shards=2, index_backend="bitset")
    try:
        assert executor.run(engine, query).embeddings == engine.count(query)
        batch = random_mutation_schedule(random.Random(5), data, steps=1)[0]
        engine.apply_mutations(batch)
        # The pool was not told (no executor.mutate): its workers hold
        # version 0 while the engine's graph moved to version 1.
        executor._graph = engine.data
        with pytest.raises(
            SchedulerError, match="query assumes graph version 1"
        ):
            executor.run(engine, query)
    finally:
        executor.close()
        engine.close()


def test_timeout_raises(workload_instances):
    data, query = workload_instances[0]
    engine = HGMatch(data, shards=2)
    try:
        with pytest.raises(TimeoutExceeded):
            engine.count(query, executor="processes", time_budget=-1.0)
        # The pool survives a timeout and still answers correctly.
        assert engine.count(query, executor="processes") == engine.count(query)
    finally:
        engine.close()


def test_spawn_start_method(workload_instances):
    """The worker protocol must survive the spawn start method (fresh
    interpreter, everything crossing as pickles)."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(
        num_shards=2, index_backend="bitset", start_method="spawn"
    )
    try:
        assert executor.run(engine, query).embeddings == engine.count(query)
    finally:
        executor.close()
        engine.close()


def test_fig1_running_example_across_executors(fig1_data, fig1_query):
    engine = HGMatch(fig1_data, shards=2)
    try:
        expected = engine.count(fig1_query)
        assert engine.count(fig1_query, executor="threads", workers=3) == expected
        assert engine.count(fig1_query, executor="processes") == expected
        assert engine.count(fig1_query, executor="simulated", workers=3) == expected
        assert engine.count_bfs(fig1_query) == expected
        # Every parallel spelling is count's, not count_bfs's.
        for spelling in ("threads", "simulated", "processes", "sockets"):
            with pytest.raises(QueryError, match="use count"):
                engine.count_bfs(fig1_query, executor=spelling)
    finally:
        engine.close()


# ----------------------------------------------------------------------
# The shard seam under the set-algebra kernel
# ----------------------------------------------------------------------


def _payload_before_the_mask_kernel(graph, partition, step_plan, step_masks,
                                    candidates, row_base):
    """What ``expand_level`` shipped for one parent on the bitset backend
    before ``validate_mask``: the per-candidate kernel, every survivor
    bisected back to its row, the mask rebuilt bit by bit."""
    from bisect import bisect_left

    from repro.core.candidates import encode_mask_payload
    from repro.core.validation import validate_candidates

    accepted = validate_candidates(graph, step_plan, step_masks, candidates)
    if not accepted:
        return None
    mask = 0
    for edge in accepted:
        mask |= 1 << bisect_left(partition.row_ids, edge)
    return encode_mask_payload(mask, row_base)


def _check_level_payloads(engine, query, shards) -> int:
    """Run every intermediate level of ``query`` through ``expand_level``
    on each shard and compare the payload of every parent, byte for
    byte, with the pre-kernel emission.  Returns how many parents went
    through the mask kernel."""
    from repro.core.candidates import (
        AnchorUnionMemo,
        MaskCandidates,
        VertexStepState,
        generate_candidate_set,
    )
    from repro.parallel.level_sync import expand_level
    from repro.parallel.tasks import WorkerStats

    graph = engine.data
    plan = engine.plan(query)
    frontier = [()]
    masked = 0
    for step in range(plan.num_steps - 1):
        step_plan = plan.steps[step]
        for shard in shards:
            kind, payloads, _ = expand_level(
                graph, shard, plan, step, frontier, VertexStepState(graph),
                MatchCounters(), WorkerStats(worker_id=shard.shard_id),
                AnchorUnionMemo(),
            )
            partition = shard.partition(step_plan.signature)
            if partition is None:
                assert payloads is None
                continue
            state = VertexStepState(graph)
            expected = []
            for partial in frontier:
                candidates = generate_candidate_set(
                    graph, partition, step_plan, partial,
                    state.advance(partial),
                )
                masked += type(candidates) is MaskCandidates
                expected.append(
                    _payload_before_the_mask_kernel(
                        graph, partition, step_plan, state.step_masks,
                        candidates, shard.row_base(step_plan.signature),
                    )
                )
            assert kind == "level" and payloads == expected
        frontier = [
            child
            for partial in frontier
            for child in engine.expand(plan, partial)
        ]
    return masked


def test_bitset_level_payloads_are_byte_identical_to_the_parent_commit(
    workload_instances,
):
    from repro.hypergraph import StoreShard

    masked = 0
    for data, query in workload_instances:
        engine = HGMatch(data, index_backend="bitset")
        shards = [StoreShard.build(data, s, 2, "bitset") for s in range(2)]
        masked += _check_level_payloads(engine, query, shards)
    assert masked > 0


def test_bitset_level_payloads_over_tombstoned_shard_rows():
    """Incrementally maintained shards: rows of deleted edges stay
    allocated, so the row layout no longer equals the live edge table —
    the accepted mask must still land on the same bits and offset."""
    from repro.hypergraph import StoreShard, apply_batch
    from repro.testing import make_mutable_instance, random_mutation_schedule

    rng = random.Random(1301)
    masked = tombstoned = found = 0
    while found < 12:
        instance = make_mutable_instance(rng)
        if instance is None:
            continue
        found += 1
        data, query, _ = instance
        engine = HGMatch(data, index_backend="bitset")
        shards = [StoreShard.build(data, s, 2, "bitset") for s in range(2)]
        for batch in random_mutation_schedule(rng, data, steps=4):
            engine.apply_mutations(batch)
            for shard in shards:
                apply_batch(shard, batch)
        tombstoned += sum(
            partition.num_rows - len(partition.edge_ids)
            for shard in shards
            for partition in shard.partitions.values()
        )
        masked += _check_level_payloads(engine, query, shards)
    assert masked > 0 and tombstoned > 0

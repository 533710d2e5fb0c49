"""Adaptive shard placement: balanced mode and the load rebalancer.

The acceptance bar for any placement change is the same as for the
transports: bit-identical counts.  This suite pins it across the
executor matrix — threads, processes, sockets and the simulated
scheduler (which don't shard and so anchor the reference), for every
index backend, under balanced placement and again after a live
rebalance — plus the rebalance lifecycle itself: only moved shards
rebuild, stale placements are refused at the socket handshake, and
per-shard CPU load is recorded for the feedback loop.
"""

from __future__ import annotations

import random

import pytest

from repro import HGMatch
from repro.core.counters import MatchCounters
from repro.errors import SchedulerError
from repro.hypergraph import INDEX_BACKENDS
from repro.parallel import (
    ShardPool,
    load_imbalance,
    spawn_local_cluster,
    worker_loads,
)
from repro.testing import make_random_instance


@pytest.fixture(scope="module")
def workload_instances():
    """A deterministic batch of small (data, query) pairs."""
    rng = random.Random(4242)
    instances = []
    while len(instances) < 3:
        instance = make_random_instance(rng)
        if instance is not None:
            instances.append(instance)
    return instances


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_process_parity_balanced_and_after_rebalance(
    workload_instances, backend
):
    """processes × {balanced, rebalanced} == sequential == threads ==
    simulated, for every backend, with the funnel counters exact."""
    for data, query in workload_instances[:2]:
        engine = HGMatch(data, index_backend=backend, sharding="balanced")
        executor = ShardPool(
            num_shards=3, index_backend=backend, sharding="balanced"
        )
        try:
            sequential = MatchCounters()
            expected = engine.count(query, counters=sequential)
            assert engine.count(query, executor="threads", workers=3) == (
                expected
            )
            assert engine.count(
                query, executor="simulated", workers=3
            ) == expected
            first = executor.run_bfs(engine, query)
            assert first.embeddings == expected
            assert first.counters.candidates == sequential.candidates
            assert first.counters.filtered == sequential.filtered
            executor.rebalance(first.worker_stats)
            second = executor.run_bfs(engine, query)
            assert second.embeddings == expected
            assert second.counters.candidates == sequential.candidates
            assert second.counters.filtered == sequential.filtered
        finally:
            executor.close()
            engine.close()


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_socket_parity_balanced_and_after_rebalance(
    workload_instances, backend
):
    """sockets × {balanced, rebalanced} == sequential, every backend."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend=backend)
    executor = ShardPool(
        num_shards=2, index_backend=backend, sharding="balanced"
    )
    try:
        expected = engine.count(query)
        first = executor.run_bfs(engine, query)
        assert first.embeddings == expected
        executor.rebalance(first.worker_stats)
        second = executor.run_bfs(engine, query)
        assert second.embeddings == expected
        # The rebalanced layout persists across jobs on the same pool.
        assert executor.run_bfs(engine, query).embeddings == expected
    finally:
        executor.close()
        engine.close()


def test_engine_plumbs_sharding_to_both_executors(workload_instances):
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset", shards=2,
                     sharding="balanced")
    try:
        expected = engine.count(query)
        assert engine.count(query, executor="processes") == expected
        assert engine.pool().sharding == "balanced"
        assert engine.count(query, executor="sockets") == expected
        assert engine.pool().sharding == "balanced"
    finally:
        engine.close()


def test_rebalance_rebuilds_only_moved_shards(workload_instances):
    """A no-op load vector moves nothing; a skewed one moves at most
    num_shards shards and the pool keeps serving."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(num_shards=3, index_backend="bitset")
    try:
        expected = engine.count(query)
        result = executor.run_bfs(engine, query)
        assert result.embeddings == expected
        stats = sorted(result.worker_stats, key=lambda s: s.worker_id)
        # Synthetic loads: shard 0 four times hotter than the others.
        stats[0].cpu_time, stats[1].cpu_time, stats[2].cpu_time = (
            4.0, 1.0, 1.0,
        )
        moved = executor.rebalance(stats)
        assert 0 < moved <= 3
        assert executor.run_bfs(engine, query).embeddings == expected
        # Balanced loads: the recut swings back toward the even cut
        # (possibly a no-op) and counts still hold.
        stats[0].cpu_time = 1.0
        again = executor.rebalance(stats)
        assert 0 <= again <= 3
        assert executor.run_bfs(engine, query).embeddings == expected
        # Identical loads twice in a row converge to a fixed point.
        assert executor.rebalance(stats) == 0
    finally:
        executor.close()
        engine.close()


def test_rebalance_relabels_unmoved_workers_too(workload_instances):
    """Every worker must end a rebalance on the new placement label —
    including ones whose ranges didn't move — or the next session
    re-establishment (idle-out, --max-sessions) would be refused at
    the handshake and strand the whole fleet on externally managed
    workers."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    cluster = spawn_local_cluster(data, 3, index_backend="merge")
    executor = ShardPool(
        addresses=cluster.addresses, index_backend="merge"
    )
    try:
        expected = engine.count(query)
        first = executor.run_bfs(engine, query)
        assert first.embeddings == expected
        stats = sorted(first.worker_stats, key=lambda s: s.worker_id)
        for entry, load in zip(stats, (4.0, 1.0, 1.0)):
            entry.cpu_time = load
        if executor.rebalance(stats) == 0:
            pytest.skip("synthetic loads moved no boundary on this data")
        label = executor._sharding_label
        assert label.startswith("rebalanced-")
        # Simulate sessions dropping between jobs (worker idle-out):
        # reconnection re-validates every worker's handshake against
        # the rebalanced label, so all of them must announce it.
        executor._close_connections()
        assert executor.run_bfs(engine, query).embeddings == expected
        assert executor._sharding_label == label
    finally:
        executor.close()
        cluster.close()
        engine.close()


def test_rebalance_requires_live_pool():
    executor = ShardPool(num_shards=2, index_backend="merge")
    with pytest.raises(SchedulerError, match="no live pool"):
        executor.rebalance([])
    net = ShardPool(num_shards=2, index_backend="merge")
    with pytest.raises(SchedulerError, match="no live pool"):
        net.rebalance([])


def test_handshake_refuses_placement_mismatch(workload_instances):
    """A worker cut under a different placement owns different rows —
    composing it with uniform peers would double- or under-count."""
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="merge")
    cluster = spawn_local_cluster(
        data, 2, index_backend="merge", sharding="balanced"
    )
    executor = ShardPool(
        addresses=cluster.addresses, index_backend="merge"
    )
    try:
        with pytest.raises(SchedulerError, match="placement mismatch"):
            executor.run_bfs(engine, query)
    finally:
        executor.close()
        cluster.close()
        engine.close()


def test_worker_stats_record_cpu_time(workload_instances):
    data, query = workload_instances[0]
    engine = HGMatch(data, index_backend="bitset")
    executor = ShardPool(num_shards=2, index_backend="bitset")
    try:
        result = executor.run_bfs(engine, query)
        assert any(s.cpu_time > 0 for s in result.worker_stats)
        loads = worker_loads(result.worker_stats)
        assert loads == [
            s.cpu_time
            for s in sorted(result.worker_stats, key=lambda s: s.worker_id)
        ]
        assert load_imbalance(result.worker_stats) >= 1.0
    finally:
        executor.close()
        engine.close()


def test_load_helpers_fall_back_to_busy_time():
    from repro.parallel import WorkerStats

    stats = [
        WorkerStats(worker_id=1, busy_time=1.0),
        WorkerStats(worker_id=0, busy_time=3.0),
    ]
    assert worker_loads(stats) == [3.0, 1.0]
    assert load_imbalance(stats) == 1.5
    assert load_imbalance([WorkerStats(worker_id=0)]) == 1.0
